"""Outside-in span tracing of disq's public functions.

A Tracer replaces each traced function at every binding it has in the
loaded disq modules (its defining module, from-import copies such as
`disq.sweep.kmeans_fit`, the package namespace) or on its class, records
one span per call, and puts every original object back when it exits.
Spans stay in memory; the per-layer metrics are derived from them after
the traced body has finished.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _dist_evals(args, kwargs, result):
    x, centroids = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "centroids")
    return {"dist_evals": len(x) * len(centroids)}


def _lloyd_iters(args, kwargs, result):
    return {"lloyd_iters": result.iterations_run}


def _padding(args, kwargs, result):
    mask = result.mask
    return {"padded": int(mask.size - mask.sum()), "frames": int(mask.size)}


def _samples(args, kwargs, result):
    items, config = _arg(args, kwargs, 0, "train_items"), _arg(args, kwargs, 2, "config")
    return {"samples": len(items) * config.epochs}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.stat(_arg(args, kwargs, 0, "path")).st_size}


def _write_bytes(args, kwargs, result):
    return {"bytes": os.stat(_arg(args, kwargs, 1, "path")).st_size}


# (module, attribute path in that module, counter extractor or None). The
# span name is "<module>.<attribute path>".
TRACED = (
    ("quantize", "nearest_centroids", _dist_evals),
    ("quantize", "kmeans_fit", _lloyd_iters),
    ("quantize", "assign", None),
    ("quantize", "reconstruct", None),
    ("quantize", "quantize_opensmile", None),
    ("model", "collate", _padding),
    ("model", "forward_batch", None),
    ("model", "backward_batch", None),
    ("model", "Adam.step", None),
    ("model", "predict", None),
    ("model", "train", _samples),
    ("fusion", "resample", None),
    ("metrics", "confusion_matrix", None),
    ("sweep", "load_dataset", None),
    ("sweep", "prepare_items", None),
    ("sweep", "run_cell", None),
    ("sweep", "CodebookCache.layer_codebook", None),
    ("sweep", "CodebookCache.osm_codebooks", None),
    ("dataio", "read_feature_file", _read_bytes),
    ("dataio", "write_feature_file", _write_bytes),
    ("dataio", "load_utterance", None),
    ("persist", "load_codebook", None),
    ("persist", "load_checkpoint", None),
    ("cli", "cmd_tokenize", None),
    ("cli", "cmd_eval", None),
    ("cli", "cmd_sweep", None),
)


def disq_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "disq" or name.startswith("disq.")]


class Tracer:
    """Context manager that wraps every TRACED function while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, extract):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool worker's outermost call belongs to whatever the main
                # thread is doing when the worker picks the job up
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            span = Span(name, 0.0, 0.0, parent, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        import disq

        modules = disq_modules()
        try:
            for module_name, path, extract in TRACED:
                module = getattr(disq, module_name)
                name = f"{module_name}.{path}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, attr, cls.__dict__[attr], self._wrap(name, cls.__dict__[attr], extract))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(name, original, extract)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, original, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()


# --- per-layer metrics ------------------------------------------------------------


def _covered(parent: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to the parent."""
    total, reach = 0.0, parent.start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, reach), min(child.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[Span], body_s: float, workers: int) -> dict[str, float]:
    """Per-layer counts and times of one traced body, keyed by metric name."""
    by_name: dict[str, list[Span]] = {f"{m}.{p}": [] for m, p, _ in TRACED}
    children: dict[int, list[Span]] = {}
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    def calls(name):
        return float(len(by_name[name]))

    def busy(name):
        return float(sum(s.duration for s in by_name[name]))

    def self_s(name):
        return float(sum(s.duration - _covered(s, children.get(id(s), [])) for s in by_name[name]))

    def attr_sum(name, key):
        return float(sum(s.attrs.get(key, 0) for s in by_name[name]))

    out: dict[str, float] = {}
    for name in (
        "quantize.nearest_centroids",
        "quantize.kmeans_fit",
        "quantize.assign",
        "quantize.reconstruct",
        "quantize.quantize_opensmile",
        "model.forward_batch",
        "model.backward_batch",
        "model.Adam.step",
        "model.predict",
        "model.collate",
        "fusion.resample",
        "metrics.confusion_matrix",
        "sweep.prepare_items",
        "sweep.run_cell",
        "dataio.read_feature_file",
        "dataio.write_feature_file",
        "persist.load_codebook",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
    out["quantize.nearest_centroids.dist_evals"] = attr_sum("quantize.nearest_centroids", "dist_evals")
    out["quantize.kmeans_fit.self_s"] = self_s("quantize.kmeans_fit")
    out["quantize.kmeans_fit.lloyd_iters"] = attr_sum("quantize.kmeans_fit", "lloyd_iters")
    out["model.train.busy_s"] = busy("model.train")
    out["model.train.self_s"] = self_s("model.train")
    out["model.samples"] = attr_sum("model.train", "samples")
    frames = attr_sum("model.collate", "frames")
    out["model.collate.pad_ratio"] = attr_sum("model.collate", "padded") / frames if frames else 0.0
    out["sweep.prepare_items.self_s"] = self_s("sweep.prepare_items")
    out["sweep.load_dataset.busy_s"] = busy("sweep.load_dataset")

    hits = misses = 0
    wait = 0.0
    for name in ("sweep.CodebookCache.layer_codebook", "sweep.CodebookCache.osm_codebooks"):
        for span in by_name[name]:
            fits = [c for c in children.get(id(span), []) if c.name == "quantize.kmeans_fit"]
            if fits:
                misses += 1
            else:
                hits += 1
            wait += span.duration - _covered(span, fits)
    out["sweep.codebook_cache.hits"] = float(hits)
    out["sweep.codebook_cache.misses"] = float(misses)
    out["sweep.codebook_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["sweep.codebook_wait_s"] = wait
    out["sweep.worker_busy_ratio"] = busy("sweep.run_cell") / (workers * body_s) if body_s > 0 else 0.0

    out["dataio.read_feature_file.bytes"] = attr_sum("dataio.read_feature_file", "bytes")
    out["dataio.write_feature_file.bytes"] = attr_sum("dataio.write_feature_file", "bytes")
    out["dataio.load_utterance.calls"] = calls("dataio.load_utterance")
    out["dataio.load_utterance.self_s"] = self_s("dataio.load_utterance")
    out["persist.load_checkpoint.busy_s"] = busy("persist.load_checkpoint")
    for name in ("cli.cmd_tokenize", "cli.cmd_eval", "cli.cmd_sweep"):
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.self_s"] = self_s(name)
    return out
