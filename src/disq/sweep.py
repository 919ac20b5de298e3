"""Experiment grid runner: codebook caching, stream preparation, reports.

A sweep cell is one (layer set, K, augmentation) combination; each cell is
trained once per seed on frozen token streams (or continuous features).
Codebooks are trained once per (stream, K, codebook seed, train-split hash)
and shared by every cell that touches them, mirroring a
generate-once-then-freeze protocol; a residual-VQ stage is such a stream,
the residual its layer's earlier stages leave (`prepare_rvq_items`).
Continuous features are the loaded frames themselves, held once per
utterance and read-only, so the forked workers of a sweep read them
without copying a page.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import multiprocessing
import numbers
import os
from concurrent import futures  # its process pool loads on first use
from dataclasses import dataclass, field, replace

import numpy as np

from . import dataio
from .dataio import N_CLASSES, FeatureSequence, UtteranceRecord
from .fusion import LAYER_SETS, resolve_layer_set, resample
from .metrics import confusion_matrix, macro_f1, per_class_f1
from .model import ModelParams, PreparedUtterance, TrainConfig, predict, token_table, train
from .quantize import OPENSMILE_CATEGORIES, Codebook, assign, kmeans_fit

AUGMENTATIONS = OPENSMILE_CATEGORIES.names() + ("all",)


def check_augmentation(aug: str, where: str = "") -> None:
    """An augmentation is "none", one paralinguistic category name, or "all"; an error is prefixed by `where`."""
    if aug != "none" and aug not in AUGMENTATIONS:
        raise ValueError(f"{where}unknown augmentation {aug!r}")


def _csv_header(n_alpha: int) -> list[str]:
    return (
        ["layer_set", "K", "seed", "aug", "macro_f1"]
        + [f"f1_c{i}" for i in range(N_CLASSES)]
        + [f"alpha_l{i}" for i in range(n_alpha)]
    )


CSV_COLUMNS = _csv_header(24)  # the header while no row uses a layer past 23


@dataclass
class ResultRow:
    """One experiment outcome; seed is an int or "avg" for seed-averaged rows."""

    layer_set: str
    k: int | None  # None = continuous features (quantization bypassed)
    seed: int | str
    aug: str
    macro_f1: float
    per_class_f1: np.ndarray
    mean_alpha: dict[int, float]


@dataclass
class LoadedDataset:
    """The utterances of the loaded splits and a content hash of the train split.

    `layers` are the layers whose feature files were read; `layer_count` is
    the dataset's depth.
    """

    root: str
    utterances: dict[str, list[UtteranceRecord]]
    layer_count: int
    feature_dim: int
    train_hash: str
    layers: tuple[int, ...]


def train_hash(dataset_dir) -> str:
    """The hash that binds codebooks and checkpoints to a dataset: sha256 of its train manifest's bytes."""
    return hashlib.sha256(dataio.manifest_path(dataset_dir, "train").read_bytes()).hexdigest()


def load_dataset(dataset_dir, splits=dataio.SPLITS, layers=None, opensmile: bool = True) -> LoadedDataset:
    """Read the manifests of `splits`, and their feature files of `layers` and of opensmile.

    `layers` is a sequence of layer indices, or a function that picks them
    from the dataset's layer count (so that a named layer set resolves
    before any feature file is read). The default reads every layer; a
    caller that needs less leaves the rest on disk. Without `opensmile` no
    utterance gets an opensmile stream. The train split's hash
    (`train_hash`) is taken whether or not it is loaded.
    """
    manifests = {split: dataio.load_split(dataset_dir, split) for split in dict.fromkeys(splits)}
    shapes = {(m.layer_count, m.feature_dim) for m in manifests.values()}
    if len(shapes) != 1:
        listing = ", ".join(f"{s}: {m.layer_count} x {m.feature_dim}" for s, m in manifests.items())
        raise ValueError(f"dataset {dataset_dir}: manifests disagree on layer count x feature dim ({listing})")
    ((layer_count, feature_dim),) = shapes
    if layers is None:
        layers = range(layer_count)
    elif callable(layers):
        layers = layers(layer_count)
    layers = tuple(layers)
    outside = sorted(set(layers) - set(range(layer_count)))
    if outside:
        raise ValueError(f"dataset {dataset_dir}: layers {outside} are not in the dataset's 0..{layer_count - 1}")
    utterances = {
        split: [dataio.load_utterance(m, rec, layers, opensmile) for rec in m.records]
        for split, m in manifests.items()
    }
    return LoadedDataset(
        root=str(dataset_dir),
        utterances=utterances,
        layer_count=layer_count,
        feature_dim=feature_dim,
        train_hash=train_hash(dataset_dir),
        layers=layers,
    )


def _stream_frames(ds: LoadedDataset, split: str, need: tuple, cache: CodebookCache) -> list[np.ndarray | None]:
    """Per-utterance frames of a need's stream (None where an utterance lacks it).

    A layer's frames; a category's opensmile columns; or, for RVQ stage s
    of a layer, the float64 residual that the layer's stages before s leave,
    their books and tokens looked up in `cache` in stage order.
    """
    kind, name, k, seed = need
    if kind == "layer":
        return [u.layers[name].frames for u in ds.utterances[split]]
    if kind == "rvq":
        layer, stage = name
        residual = [u.layers[layer].frames.astype(np.float64) for u in ds.utterances[split]]
        for s in range(stage):
            earlier = ("rvq", (layer, s), k, seed - stage + s)
            centroids = cache.codebook(ds, earlier).centroids
            for r, idx in zip(residual, cache.tokens(ds, split, earlier)):
                r -= centroids[idx]
        return residual
    cols = OPENSMILE_CATEGORIES.column_slice(name)
    return [None if u.opensmile is None else u.opensmile.frames[:, cols] for u in ds.utterances[split]]


def _needs(layers, k: int, aug: str, seed: int) -> list[tuple]:
    """The codebooks a quantized (layers, K, aug) input looks up, as (kind, name, K, seed) needs.

    One per layer, then one per paralinguistic category `aug` uses, in table order.
    """
    osm = [("osm", c.name, c.k, seed) for c in OPENSMILE_CATEGORIES.categories if aug in ("all", c.name)]
    return [("layer", layer, k, seed) for layer in layers] + osm


@dataclass
class _Book:
    """One need's record: its codebook or the error its fit raised, its tokens by split, its table."""

    book: Codebook | Exception
    tokens: dict[str, list[np.ndarray | None]] = field(default_factory=dict)
    table: np.ndarray | None = None  # `token_table`, derived at first lookup


class CodebookCache:
    """Caches trained codebooks, their standardized tables and each split's tokens for one dataset.

    Every book is a need (kind, name, K, seed): ("layer", 3, 256, 0) is a
    layer's book, ("osm", "prosody", 32, 0) a paralinguistic category's,
    ("rvq", (3, 1), 256, 1) stage 1 of a layer 3 residual quantizer seeded
    0 (stage s has seed + s, as in `rvq_fit`). Each need has one `_Book`
    record, keyed by (train-split hash, need) so a cache can never serve a
    different dataset by accident. A split is encoded once per book, the
    train split by the book's own fit: its tokens are one 1-D index array
    per utterance (None where an utterance lacks the stream), in the
    smallest unsigned dtype that holds K - 1. A failed fit keeps its error,
    raised again at every lookup; a split whose encoding raised is encoded
    again at its next lookup. `misses` counts actual codebook fits, wherever
    they ran (see `fill`).
    """

    def __init__(self, kmeans_max_iters: int = 100):
        self._books: dict[tuple, _Book] = {}
        self.misses = 0
        self.max_iters = kmeans_max_iters

    def hold(self, ds: LoadedDataset, books: dict[tuple, Codebook]) -> None:
        """Serve codebooks fitted earlier (a checkpoint's), by need, as if fitted here.

        Each must have the stream_id, K and seed its need's fit would give
        it, and as many centroid columns as its stream has (the dataset's
        feature dim, or a category's), else ValueError. Each becomes its
        need's record, with no tokens yet; holding a codebook counts no fit.
        """
        osm_dims = {c.name: c.dim for c in OPENSMILE_CATEGORIES.categories}
        for need, cb in books.items():
            kind, name, k, seed = need
            want = {"stream_id": f"{kind}:{name}", "k": k, "seed": seed}  # as `codebook` fits it
            got = {f: getattr(cb, f) for f in want}
            if got != want:
                raise ValueError(f"holds {got}, its need asks for {want}")
            dim = osm_dims[name] if kind == "osm" else ds.feature_dim
            if cb.dim != dim:
                raise ValueError(f"centroids have {cb.dim} columns, the stream {dim}")
            self._books[(ds.train_hash, need)] = _Book(cb)

    def fill(self, ds: LoadedDataset, needs, splits=(), workers: int = 1) -> None:
        """Fit each needed book the cache lacks, and encode `splits` with it.

        Each need fills a cache of its own over `_map_phase`, merged back in
        order, so books, tokens and `misses` do not depend on `workers`. An
        RVQ stage is not filled: its part would fit the stages before it again.
        """

        def fit(need):
            part = CodebookCache(self.max_iters)
            with contextlib.suppress(Exception):  # a failed fit stays in `part`, raised at every lookup
                part.codebook(ds, need)
                for split in splits:
                    part.tokens(ds, split, need)
            return part

        missing = [need for need in dict.fromkeys(needs) if (ds.train_hash, need) not in self._books]
        for part in _map_phase(fit, missing, workers):
            self._books.update(part._books)
            self.misses += part.misses

    def _record(self, ds: LoadedDataset, need: tuple) -> _Book:
        """A need's record, its book fitted at first lookup; a failed fit's error is raised."""
        key = (ds.train_hash, need)
        if key not in self._books:
            self.misses += 1
            self._books[key] = self._fit(ds, need)
        record = self._books[key]
        if isinstance(record.book, Exception):
            raise record.book
        return record

    def _fit(self, ds: LoadedDataset, need: tuple) -> _Book:
        """Fit a need's book on the train split's frames of its stream.

        The fit's last Lloyd pass assigns each train frame its nearest
        centroid, as `assign` would, so it also gives the train split's tokens.
        """
        kind, name, k, seed = need
        try:
            parts = _stream_frames(ds, "train", need, self)
            frames = [f for f in parts if f is not None]
            if not frames:
                raise ValueError("no opensmile streams in the train split")
            x = np.concatenate(frames)
            idx = np.empty(len(x), dtype=np.int64)
            cb = kmeans_fit(x, k, seed, self.max_iters, stream_id=f"{kind}:{name}", assignment=idx)
            return _Book(cb, {"train": _rows(parts, idx, k)})
        except Exception as exc:  # raised again at every lookup
            return _Book(exc.with_traceback(None))

    def codebook(self, ds: LoadedDataset, need: tuple) -> Codebook:
        """The book of one need, fitted on the train split's frames of its stream at first lookup."""
        return self._record(ds, need).book

    def table(self, ds: LoadedDataset, need: tuple) -> np.ndarray:
        """The (K, dim) `token_table` of a book, fitted or held."""
        record = self._record(ds, need)
        if record.table is None:
            record.table = token_table(record.book.centroids)
        return record.table

    def tokens(self, ds: LoadedDataset, split: str, need: tuple) -> list[np.ndarray | None]:
        """Per-utterance token indices of one book's stream; None where an utterance lacks it."""
        record = self._record(ds, need)
        if split not in record.tokens:
            parts = _stream_frames(ds, split, need, self)
            frames = [p for p in parts if p is not None]
            idx = assign(record.book, FeatureSequence(np.concatenate(frames))).indices if frames else np.empty(0)
            record.tokens[split] = _rows(parts, idx, record.book.k)
        return record.tokens[split]

    def layer_codebook(self, ds: LoadedDataset, layer: int, k: int, seed: int) -> Codebook:
        return self.codebook(ds, ("layer", layer, k, seed))

    def osm_codebooks(self, ds: LoadedDataset, seed: int) -> dict[str, Codebook]:
        return {c.name: self.codebook(ds, ("osm", c.name, c.k, seed)) for c in OPENSMILE_CATEGORIES.categories}


def _rows(parts: list, idx: np.ndarray, k: int) -> list[np.ndarray | None]:
    """`idx` over the concatenated parts that are not None, cut per part (None where a part is None).

    Rows take the smallest unsigned dtype that holds K - 1 (uint8 for K <= 256).
    """
    idx = idx.astype(np.min_scalar_type(k - 1))
    ends = np.cumsum([0 if p is None else len(p) for p in parts])
    return [None if p is None else idx[end - len(p) : end] for p, end in zip(parts, ends)]


def _token_items(ds: LoadedDataset, split: str, needs: list[tuple], cache: CodebookCache) -> list[PreparedUtterance]:
    """One quantized item per utterance: a token row per need, with the needs' tables."""
    tables = tuple(cache.table(ds, need) for need in needs)
    tokens = [cache.tokens(ds, split, need) for need in needs]
    return [
        PreparedUtterance(utt.utt_id, None, utt.label, tokens=np.stack([t[i] for t in tokens]), tables=tables)
        for i, utt in enumerate(ds.utterances[split])
    ]


def prepare_rvq_items(
    ds: LoadedDataset,
    split: str,
    layer: int,
    stages: tuple[int, ...],
    k_per_stage: int,
    cache: CodebookCache,
    seed: int = 0,
) -> list[PreparedUtterance]:
    """Codec-style streams: per-stage RVQ tokens of one layer.

    Stage s is the cache's ("rvq", (layer, s), k_per_stage, seed + s) book,
    fitted on the train split's residual after stages 0..s-1, as `rvq_fit`
    fits it. Each of `stages`, in the order given, becomes one token stream
    with its book's `token_table`, so the downstream attention head consumes
    them exactly like per-layer token streams.
    """
    stages = tuple(stages)
    if not stages or any(s < 0 for s in stages):
        raise ValueError(f"stages {stages}: need at least one, each >= 0")
    return _token_items(ds, split, [("rvq", (layer, s), k_per_stage, seed + s) for s in stages], cache)


def prepare_items(
    ds: LoadedDataset,
    split: str,
    layers: tuple[int, ...],
    k: int | None,
    cache: CodebookCache,
    codebook_seed: int = 0,
    aug: str = "none",
) -> list[PreparedUtterance]:
    """Assemble frozen model inputs for one split.

    k=None bypasses quantization entirely (continuous features, and a raw
    paralinguistic block if augmentation is on). A continuous item's
    streams are its utterance's read-only loaded frames
    (`UtteranceRecord.stack`): a view of the block, copied only for a layer
    set whose rows in it are not evenly spaced (`sparse` or `ten` over all
    24 loaded layers). A quantized item holds its layer tokens and the
    cache's tables of their codebooks, no frames. The paralinguistic frames
    of the categories `aug` uses, float32(C)[idx] of each category's book
    side by side for a quantized item, are aligned to each utterance's
    frame count here, once, since they are frozen during training.
    """
    check_augmentation(aug)
    if k is not None and cache is None:
        raise ValueError("quantized preparation needs a CodebookCache")
    utts = ds.utterances[split]
    if k is None:
        items = [PreparedUtterance(utt.utt_id, utt.stack(layers), utt.label) for utt in utts]
    else:
        needs = _needs(layers, k, aug, codebook_seed)
        cache.fill(ds, needs, tuple(ds.utterances), fit_workers())
        items = _token_items(ds, split, needs[: len(layers)], cache)
        # float32(C)[idx] has the bits of float32(C[idx])
        osm_books = [
            (cache.codebook(ds, need).centroids.astype(np.float32), cache.tokens(ds, split, need))
            for need in needs[len(layers) :]
        ]
    if aug != "none":
        for i, (item, utt) in enumerate(zip(items, utts)):
            if utt.opensmile is None:
                raise ValueError(f"{utt.utt_id}: augmentation requested but no opensmile stream")
            if k is not None:
                block = np.concatenate([c32[idx[i]] for c32, idx in osm_books], axis=1)
            elif aug == "all":
                block = utt.opensmile.frames
            else:
                block = utt.opensmile.frames[:, OPENSMILE_CATEGORIES.column_slice(aug)]
            item.osm = resample(block, item.shape[1])
    return items


def evaluate(
    params: ModelParams,
    items: list[PreparedUtterance],
    layers: tuple[int, ...],
    layer_set: str = "",
    k: int | None = None,
    seed: int | str = 0,
    aug: str = "none",
) -> ResultRow:
    """Argmax predictions over a split, folded into one result row."""
    if params.fusion.n_layers != len(layers):
        raise ValueError(
            f"params cover {params.fusion.n_layers} layers but config names {len(layers)}"
        )
    preds, alphas = predict(params, items)
    labels = np.array([it.label for it in items])
    cm = confusion_matrix(labels, preds)
    mean_alpha = alphas.mean(axis=0)
    return ResultRow(
        layer_set=layer_set,
        k=k,
        seed=seed,
        aug=aug,
        macro_f1=macro_f1(cm),
        per_class_f1=per_class_f1(cm),
        mean_alpha={layer: float(a) for layer, a in zip(layers, mean_alpha)},
    )


@dataclass
class SweepGrid:
    """Axes of one sweep: cluster counts x layer sets x seeds x augmentations."""

    ks: tuple[int, ...]
    layer_sets: tuple[str, ...]
    seeds: tuple[int, ...]
    augmentations: tuple[str, ...] = ("none",)
    include_continuous: bool = False
    codebook_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        for name in ("ks", "layer_sets", "seeds", "augmentations"):
            values, integral = tuple(getattr(self, name)), name in ("ks", "seeds")
            for i, v in enumerate(values):
                if integral and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
                    raise ValueError(f"{name}[{i}]: expected an integer, got {v!r}")
                if name == "seeds" and v < 0:
                    raise ValueError(f"seeds[{i}]: must be >= 0, got {v}")
                if name == "ks" and v < 1:
                    raise ValueError(f"ks[{i}]: must be >= 1, got {v}")
                if v in values[:i]:
                    raise ValueError(f"{name}[{i}]: {v!r} is listed twice")
            setattr(self, name, tuple(int(v) for v in values) if integral else values)
        if not (self.ks and self.layer_sets and self.seeds and self.augmentations):
            raise ValueError("every grid axis must be non-empty")
        for aug in self.augmentations:
            check_augmentation(aug)
        if "none" not in self.augmentations:
            raise ValueError('augmentations: must list "none", the baseline each augmentation is reported against')
        if self.codebook_seed < 0:
            raise ValueError("codebook_seed must be >= 0")
        if self.train.seed != 0:  # run_cell trains each cell once per value of `seeds` instead
            raise ValueError(f"train.seed: must be 0 in a grid, whose seeds set the training seed; got {self.train.seed}")

    def cells(self) -> list[tuple[int | None, str, str]]:
        out = [(k, ls, aug) for k in self.ks for ls in self.layer_sets for aug in self.augmentations]
        return out + [(None, ls, "none") for ls in self.layer_sets if self.include_continuous]

    @classmethod
    def from_json(cls, doc: dict) -> "SweepGrid":
        return dataio.from_json(cls, doc)


@dataclass
class CellFailure:
    k: int | None
    layer_set: str
    aug: str
    seed: int | str
    error: str

    def __str__(self) -> str:  # its line in a sweep's failures.txt
        return f"{self.layer_set} K={self.k} aug={self.aug} seed={self.seed}: {self.error}"


@dataclass
class SweepResult:
    rows: list[ResultRow]  # seed rows then the averaged row, cell by cell
    failures: list[CellFailure]
    cache: CodebookCache


def average_rows(rows: list[ResultRow]) -> ResultRow:
    """Arithmetic mean over seed rows of one cell."""
    first = rows[0]
    layers = sorted(first.mean_alpha)
    return ResultRow(
        layer_set=first.layer_set,
        k=first.k,
        seed="avg",
        aug=first.aug,
        macro_f1=float(np.mean([r.macro_f1 for r in rows])),
        per_class_f1=np.mean([r.per_class_f1 for r in rows], axis=0),
        mean_alpha={l: float(np.mean([r.mean_alpha[l] for r in rows])) for l in layers},
    )


def run_cell(
    ds: LoadedDataset,
    layer_set,
    k: int | None,
    seed: int,
    cache: CodebookCache,
    train_config: TrainConfig,
    aug: str = "none",
    codebook_seed: int = 0,
) -> ResultRow | CellFailure:
    """Prepare, train and evaluate one cell at one seed; an error becomes the CellFailure returned."""
    name = layer_set if isinstance(layer_set, str) else ",".join(map(str, layer_set))
    try:
        name, layers = resolve_layer_set(layer_set, ds.layer_count)
        splits = {split: prepare_items(ds, split, layers, k, cache, codebook_seed, aug) for split in dataio.SPLITS}
        result = train(splits["train"], splits["dev"], replace(train_config, seed=seed))
        return evaluate(result.params, splits["test"], layers, name, k, seed, aug)
    except Exception as exc:  # isolate the run, keep the sweep going
        return CellFailure(k, name, aug, seed, f"{type(exc).__name__}: {exc}")


_PHASE: list = []  # [fn, tasks] of a worker process's phase, filled as the worker starts


def _phase_task(i: int):
    fn, tasks = _PHASE
    return fn(tasks[i])


def pool_size(workers: int, tasks: int) -> int:
    """Worker processes for a phase of `tasks` tasks: never more than it has tasks."""
    return max(1, min(workers, tasks))


def _map_phase(fn, tasks: list, workers: int) -> list:
    """fn over tasks, in order: here for one worker or inside a worker, else in forked worker processes.

    fn and tasks reach the workers by fork, task indices and results by pickle.
    A dead worker raises BrokenProcessPool; no worker outlives the call.
    """
    size = pool_size(workers, len(tasks))
    if size == 1 or _PHASE:  # a worker process never starts a pool of its own
        return [fn(task) for task in tasks]
    fork = multiprocessing.get_context("fork")
    with futures.ProcessPoolExecutor(size, fork, initializer=_PHASE.extend, initargs=((fn, tasks),)) as pool:
        return list(pool.map(_phase_task, range(len(tasks))))


def fit_workers() -> int:
    """Codebook fit workers outside a sweep: usable cores // pinned BLAS threads, 1 if unpinned or without fork."""
    pinned = [os.environ.get(v, "") for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")]
    pinned = [int(v) for v in pinned if v.isdigit() and int(v) > 0]
    if not pinned or not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, len(os.sched_getaffinity(0)) // max(pinned))


def _codebook_needs(grid: SweepGrid, layer_count: int) -> list[tuple]:
    """The codebooks the grid's quantized cells look up, in grid order."""
    needs = []
    for k, ls, aug in grid.cells():
        if k is not None:
            with contextlib.suppress(Exception):  # a set that does not resolve fails its cells when they run
                needs += _needs(resolve_layer_set(ls, layer_count)[1], k, aug, grid.codebook_seed)
    return needs


def run_sweep(grid: SweepGrid, ds: LoadedDataset, workers: int = 1) -> SweepResult:
    """Every grid cell per seed plus seed-averaged rows, in deterministic order.

    Phase 1 fits each codebook the grid needs and encodes every split with
    it; a fit that raised fails every cell that needs it. Phase 2 runs each
    (cell, seed) over the full cache. With workers > 1 each phase runs in
    forked worker processes; the outputs do not depend on `workers`.
    """
    cache = CodebookCache()
    cache.fill(ds, _codebook_needs(grid, ds.layer_count), dataio.SPLITS, workers)

    def unit(task):
        (k, ls, aug), seed = task
        return run_cell(ds, ls, k, seed, cache, grid.train, aug, grid.codebook_seed)

    outcomes = _map_phase(unit, [(cell, seed) for cell in grid.cells() for seed in grid.seeds], workers)
    rows, n = [], len(grid.seeds)
    for i in range(0, len(outcomes), n):  # one cell's seeds
        cell_rows = [row for row in outcomes[i : i + n] if isinstance(row, ResultRow)]
        rows += cell_rows + ([average_rows(cell_rows)] if cell_rows else [])
    return SweepResult(rows, [f for f in outcomes if isinstance(f, CellFailure)], cache)


# --- rendering ----------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _csv_k(k: int | None) -> str:
    return "" if k is None else str(k)


def _csv(header: list[str], records: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *records])
    return buf.getvalue()


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Machine contract: CSV_COLUMNS, blanks for absent layers.

    Rows over layers past 23 widen the alpha columns to their highest layer,
    so that no fusion weight is dropped.
    """
    n_alpha = max([24] + [layer + 1 for row in rows for layer in row.mean_alpha])
    return _csv(
        _csv_header(n_alpha),
        [
            [row.layer_set, _csv_k(row.k), str(row.seed), row.aug, _fmt(row.macro_f1)]
            + [_fmt(v) for v in row.per_class_f1]
            + [_fmt(row.mean_alpha[i]) if i in row.mean_alpha else "" for i in range(n_alpha)]
            for row in rows
        ],
    )


def rows_to_text(rows: list[ResultRow]) -> str:
    """Aligned table for humans; the CSV is the machine contract."""
    header = ["layer_set", "K", "seed", "aug", "macro_f1"]
    body = [[r.layer_set, "-" if r.k is None else str(r.k), str(r.seed), r.aug, f"{r.macro_f1:.4f}"] for r in rows]
    widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h) for i, h in enumerate(header)]
    lines = [header, ["-" * w for w in widths], *body]
    return "".join("  ".join(v.ljust(w) for v, w in zip(line, widths)) + "\n" for line in lines)


@dataclass
class AugGain:
    layer_set: str
    k: int | None
    category: str
    base_f1: float
    aug_f1: float
    gain_pct: float


def _set_size(name: str, layer_count: int) -> int:
    if name in LAYER_SETS:
        return len(resolve_layer_set(name, layer_count)[1])
    return len(name.split(","))


def augmentation_report(rows: list[ResultRow], layer_count: int = 24) -> list[AugGain]:
    """Percentage gain of each augmentation over its no-augmentation baseline.

    Works on seed-averaged rows and orders the table sparse to dense (by
    layer-set size, with named sets resolved against `layer_count`, the
    depth of the dataset the rows come from).
    """
    avg = [r for r in rows if r.seed == "avg"]
    baselines = {(r.layer_set, r.k): r for r in avg if r.aug == "none"}
    gains: list[AugGain] = []
    for row in avg:
        if row.aug == "none":
            continue
        base = baselines.get((row.layer_set, row.k))
        if base is None:
            raise ValueError(f"missing augmentation baseline for {(row.layer_set, row.k)}")
        if base.macro_f1 <= 0:
            raise ValueError(f"baseline macro F1 is 0 for {(row.layer_set, row.k)}")
        gains.append(
            AugGain(
                layer_set=row.layer_set,
                k=row.k,
                category=row.aug,
                base_f1=base.macro_f1,
                aug_f1=row.macro_f1,
                gain_pct=100.0 * (row.macro_f1 - base.macro_f1) / base.macro_f1,
            )
        )
    order = {name: i for i, name in enumerate(AUGMENTATIONS)}
    gains.sort(key=lambda g: (_set_size(g.layer_set, layer_count), g.layer_set, order.get(g.category, 99)))
    return gains


def gains_to_csv(gains: list[AugGain]) -> str:
    return _csv(
        ["layer_set", "K", "category", "base_f1", "aug_f1", "gain_pct"],
        [[g.layer_set, _csv_k(g.k), g.category, _fmt(g.base_f1), _fmt(g.aug_f1), _fmt(g.gain_pct)] for g in gains],
    )
