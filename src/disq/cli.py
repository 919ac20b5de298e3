"""Single entry point exposing the pipeline as reproducible subcommands.

Every command reads its inputs, never touching them, and writes all artifacts
under one output directory, which it creates just before its first write.
`main` frames each run: it starts the clock, resolves `--out`, runs the
command, writes `run_metadata.json` from the config payload and seeds the
command returns, and prints its success line. A run that succeeds exits 0. A
failure prints one line `error: <category>: <message>` to stderr, exits with
its category's code in `FAILURES` (2 config, usage errors included; 3 data; 4
numeric, a fit or sweep worker process that dies included) and leaves no
`--out`, except that a failing gradcheck keeps its `gradcheck.json` and a sweep
whose augmentation report fails keeps `results.csv`, `results.txt` and
`failures.txt`. Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, dataio, persist
from .dataio import FeatureSequence, SyntheticSpec
from .fusion import check_layer_order, resolve_layer_set
from .model import TrainConfig, gradient_check, train
from .sweep import (
    CodebookCache,
    SweepGrid,
    _needs,
    augmentation_report,
    check_augmentation,
    evaluate,
    fit_workers,
    gains_to_csv,
    load_dataset,
    prepare_items,
    rows_to_csv,
    rows_to_text,
    run_sweep,
    train_hash,
)

GRADCHECK_THRESHOLD = 1e-3
FIT_PLACEMENT = (
    "The codebook fits run side by side in forked worker processes, as many as the usable cores divided by "
    "the BLAS threads that OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS pins, and in this process "
    "when BLAS is unpinned (`sweep` uses --workers instead). Set OPENBLAS_NUM_THREADS=1 to fit on every core. "
    "The outputs never depend on where the fits ran. A fit worker process that dies exits 4."
)


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class NumericError(Exception):
    pass


# every failure `main` reports, by exception type: (types, category, exit code)
FAILURES = (
    ((ConfigError,), "config", 2),
    ((DataError, dataio.FeatureFileError, OSError, ValueError), "data", 3),
    ((NumericError, FloatingPointError, BrokenExecutor), "numeric", 4),
)


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error; subcommand parsers inherit this class."""

    def error(self, message):
        raise ConfigError(message)


# --- config plumbing ----------------------------------------------------------


def _load_json_config(path) -> dict:
    try:
        return dataio.read_json(dict, path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # not JSON, or not an object
        raise ConfigError(str(exc)) from exc


def _override(doc: dict, args, names) -> None:
    """Flags that were given replace the config's values."""
    for name in names:
        if getattr(args, name) is not None:
            doc[name] = getattr(args, name)


def _read_config(cls, doc: dict):
    try:
        return dataio.from_json(cls, doc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_run(run) -> None:
    """The rules of a train run's `k`, `codebook_seed` and `aug`, in its config and in its checkpoint's meta.json."""
    if run.k is not None and run.k < 1:
        raise ValueError("k must be >= 1")
    if run.codebook_seed < 0:
        raise ValueError("codebook_seed must be >= 0")
    check_augmentation(run.aug, "aug: ")


@dataclass
class TrainJob:
    """The `disq train` config document; flags override its scalars."""

    layer_set: str = "all"
    k: int | None = 256  # None = continuous features
    aug: str = "none"
    codebook_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    __post_init__ = _check_run


@dataclass
class CodebookIndex:
    """The `index.json` of a `disq codebooks` directory: what its books were fitted for."""

    k: int
    seed: int
    layers: tuple[int, ...]
    opensmile: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        check_layer_order(self.layers, "layers: ")


@dataclass
class CheckpointMeta:
    """A checkpoint's `meta.json` but its `format`, which `persist` owns.

    `train` stays a plain object that must hold an integer seed: a `TrainConfig` would default it to 0.
    """

    layer_set: str
    layers: tuple[int, ...]
    k: int | None
    aug: str
    codebook_seed: int
    train: dict
    train_hash: str
    best_epoch: int
    dev_macro_f1: float

    def __post_init__(self):
        _check_run(self)
        check_layer_order(self.layers, "layers: ")
        if "seed" not in self.train:
            raise ValueError("train.seed: missing required field")
        dataio.from_json(int, self.train["seed"], "train.seed")


# --- run metadata -----------------------------------------------------------------


def _config_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _write_metadata(out: Path, command: str, argv, config_payload, seeds, started: float) -> None:
    out.mkdir(parents=True, exist_ok=True)  # a run may have written nothing, e.g. tokenize of an empty split
    outputs = []  # every file's relative path but run_metadata.json, at any depth
    for root, _, files in os.walk(out):
        rel = os.path.relpath(root, out)
        outputs += [name if rel == "." else os.path.join(rel, name) for name in files if name != "run_metadata.json"]
    outputs.sort()
    doc = {
        "command": command,
        "argv": list(argv),
        "config_digest": _config_digest(config_payload),
        "seeds": list(seeds),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "disq": __version__,
        },
        "wall_time_s": round(time.time() - started, 3),
        "outputs": outputs,
    }
    dataio.write_json(doc, out / "run_metadata.json")


# --- shared data helpers ---------------------------------------------------------


def _layer_picker(entries: dict[str, str]):
    """A `load_dataset` layer picker: the union of the layer sets in `entries`.

    It resolves them on the manifests' layer count, before any feature file
    is read. A set the dataset cannot hold is a config error, its message
    prefixed by the set's key in `entries`.
    """

    def pick(layer_count: int) -> list[int]:
        layers = set()
        for where, entry in entries.items():
            try:
                layers.update(resolve_layer_set(entry, layer_count)[1])
            except ValueError as exc:
                raise ConfigError(f"{where}{exc}") from exc
        return sorted(layers)

    return pick


# --- subcommands ------------------------------------------------------------------


def cmd_gen(args, out: Path) -> tuple:
    doc = _load_json_config(args.spec)
    _override(doc, args, ("seed", "n_per_class"))
    spec = _read_config(SyntheticSpec, doc)
    try:
        dataio.generate_synthetic(spec, out)
    except ValueError as exc:  # e.g. no room for the class directions in feature_dim dims
        raise ConfigError(f"{args.spec}: {exc}") from exc
    return spec.to_json(), [spec.seed], f"dataset written to {out}"


def cmd_codebooks(args, out: Path) -> tuple:
    if args.k < 1:
        raise ConfigError("--k: must be >= 1")
    if args.seed < 0:
        raise ConfigError("--seed: must be >= 0")
    ds = load_dataset(args.dataset, ("train",), _layer_picker({"": args.layers}), args.opensmile)

    index = CodebookIndex(args.k, args.seed, tuple(ds.layers), args.opensmile)
    cache = CodebookCache()
    needs = _needs(ds.layers, args.k, "all" if args.opensmile else "none", args.seed)
    cache.fill(ds, needs, workers=fit_workers())
    out.mkdir(parents=True, exist_ok=True)
    for need in needs:
        extra = {"train_frames": sum(len(t) for t in cache.tokens(ds, "train", need) if t is not None)}
        persist.save_codebook(cache.codebook(ds, need), out / _stem(need), extra=extra)
    dataio.write_json(asdict(index), out / "index.json")
    return asdict(index), [args.seed], f"codebooks written to {out}"


def _stem(need: tuple) -> str:
    """The file stem of a need's codebook: layer_XX or osm_<category>."""
    kind, name = need[:2]
    return f"layer_{name:02d}" if kind == "layer" else f"osm_{name}"


def _hold_codebooks(cache: CodebookCache, ds, load, book_dir: Path, needs) -> None:
    """Give `cache` the codebook of each need saved in `book_dir`, read by `load`, the persist reader of its format."""
    for need in needs:
        base = book_dir / _stem(need)
        cb = load(base)
        try:
            cache.hold(ds, {need: cb})
        except ValueError as exc:  # the sidecar holds a book's stream_id, k and seed, the centroid file its width
            raise DataError(f"{base.with_suffix('.json') if str(exc).startswith('holds') else base}: {exc}") from exc


def cmd_tokenize(args, out: Path) -> tuple:
    book_dir = Path(args.codebooks)
    index = dataio.read_json(CodebookIndex, book_dir / "index.json")
    ds = load_dataset(args.dataset, (args.split,), index.layers, index.opensmile)
    cache, seed = CodebookCache(), index.seed
    needs = _needs(index.layers, index.k, "all" if index.opensmile else "none", seed)
    _hold_codebooks(cache, ds, persist.load_codebook, book_dir, needs)

    utts = ds.utterances[args.split]

    def write(utt, stem, tokens, recon):
        utt_dir = out / "tokens" / utt.utt_id
        utt_dir.mkdir(parents=True, exist_ok=True)
        (utt_dir / f"{stem}.tokens.json").write_text(json.dumps(tokens, sort_keys=True) + "\n")
        dataio.write_feature_file(FeatureSequence(recon), utt_dir / f"{stem}.recon.dsqf")

    # the recon files hold float32(C)[idx], the frames prepare_items builds; a layer's go in
    # layer_XX files, the categories' side by side in one opensmile file
    books = [cache.codebook(ds, need) for need in needs]
    streams = [(n, cb, cb.centroids.astype(np.float32), cache.tokens(ds, args.split, n)) for n, cb in zip(needs, books)]
    for i, utt in enumerate(utts):
        osm_doc, osm_recon = {}, []
        for need, cb, c32, tokens in streams:
            idx = tokens[i]
            if need[0] == "layer":
                write(utt, _stem(need), {"stream_id": cb.stream_id, "k": cb.k, "indices": idx.tolist()}, c32[idx])
            elif idx is not None:
                osm_doc[need[1]] = {"k": cb.k, "indices": idx.tolist()}
                osm_recon.append(c32[idx])
        if osm_recon:
            write(utt, "opensmile", osm_doc, np.concatenate(osm_recon, axis=1))
    return {"split": args.split, "k": index.k}, [seed], f"tokens written to {out}"


def _train_job(args) -> TrainJob:
    """The train config with flags applied."""
    doc = _load_json_config(args.config) if args.config else {}
    _override(doc, args, ("layer_set", "k", "aug"))
    if args.continuous:
        doc["k"] = None
    if isinstance(doc.setdefault("train", {}), dict):
        _override(doc["train"], args, ("seed", "epochs"))
    return _read_config(TrainJob, doc)


def cmd_train(args, out: Path) -> tuple:
    job = _train_job(args)
    ds = load_dataset(args.dataset, ("train", "dev"), _layer_picker({"layer_set: ": job.layer_set}), job.aug != "none")

    cache = CodebookCache()
    train_items, dev_items = (
        prepare_items(ds, split, ds.layers, job.k, cache, job.codebook_seed, job.aug) for split in ("train", "dev")
    )
    result = train(train_items, dev_items, job.train)

    meta = CheckpointMeta(
        layer_set=job.layer_set,
        layers=ds.layers,
        k=job.k,
        aug=job.aug,
        codebook_seed=job.codebook_seed,
        train=asdict(job.train),
        train_hash=ds.train_hash,
        best_epoch=result.best_epoch,
        dev_macro_f1=result.history[result.best_epoch].dev_macro_f1,
    )
    persist.save_checkpoint(out / "checkpoint", result.params, asdict(meta))
    if job.k is not None:  # the exact codebooks the streams were made with, for eval
        book_dir = out / "checkpoint" / "codebooks"
        book_dir.mkdir(exist_ok=True)
        for need in _needs(ds.layers, job.k, job.aug, job.codebook_seed):
            persist.save_exact_codebook(cache.codebook(ds, need), book_dir / _stem(need))
    history = [[h.train_loss, h.dev_macro_f1] for h in result.history]
    (out / "history.json").write_text(json.dumps(history) + "\n")
    best = f"best epoch {result.best_epoch}, dev macro F1 {meta.dev_macro_f1:.4f}"
    return asdict(meta), [job.train.seed], f"checkpoint written to {out / 'checkpoint'} ({best})"


def cmd_eval(args, out: Path) -> tuple:
    params, doc = persist.load_checkpoint(args.checkpoint)
    meta_path = Path(args.checkpoint) / "meta.json"
    try:
        meta = dataio.from_json(CheckpointMeta, {k: v for k, v in doc.items() if k != "format"})
    except ValueError as exc:
        raise DataError(f"{meta_path}: {exc}") from exc
    if meta.train_hash != train_hash(args.dataset):  # before any feature file is read
        train_manifest = dataio.manifest_path(args.dataset, "train")
        raise DataError(f"{meta_path}: trained on a different dataset than {train_manifest} (train manifest hash mismatch)")
    ds = load_dataset(args.dataset, (args.split,), meta.layers, meta.aug != "none")

    cache = CodebookCache()
    if meta.k is not None:  # a quantized checkpoint holds the books `train` fitted, and eval fits none
        needs = _needs(meta.layers, meta.k, meta.aug, meta.codebook_seed)
        _hold_codebooks(cache, ds, persist.load_exact_codebook, Path(args.checkpoint) / "codebooks", needs)
    items = prepare_items(ds, args.split, meta.layers, meta.k, cache, meta.codebook_seed, meta.aug)
    row = evaluate(params, items, meta.layers, meta.layer_set, meta.k, meta.train["seed"], meta.aug)

    metrics_doc = {
        "split": args.split,
        "macro_f1": row.macro_f1,
        "per_class_f1": [float(v) for v in row.per_class_f1],
        "mean_alpha": {str(layer): v for layer, v in sorted(row.mean_alpha.items())},
    }
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_json(metrics_doc, out / "metrics.json")
    (out / "row.csv").write_text(rows_to_csv([row]))
    return metrics_doc, [meta.train["seed"]], f"{args.split} macro F1 = {row.macro_f1:.4f} (metrics in {out})"


def cmd_sweep(args, out: Path) -> tuple:
    grid = _read_config(SweepGrid, _load_json_config(args.grid))
    if args.workers < 1:
        raise ConfigError("--workers: must be >= 1")
    if args.workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigError("--workers: more than 1 needs the fork start method, which this platform lacks")
    layer_sets = {f"layer_sets[{i}]: ": entry for i, entry in enumerate(grid.layer_sets)}
    opensmile = any(aug != "none" for aug in grid.augmentations)
    ds = load_dataset(args.dataset, layers=_layer_picker(layer_sets), opensmile=opensmile)
    try:
        result = run_sweep(grid, ds, workers=args.workers)
    except BrokenExecutor as exc:  # a worker process died
        raise NumericError(f"sweep worker process died ({exc})") from exc
    if not result.rows:
        raise NumericError(f"every sweep cell failed ({len(result.failures)} runs); first: {result.failures[0]}")

    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(rows_to_csv(result.rows))
    (out / "results.txt").write_text(rows_to_text(result.rows))
    if result.failures:
        (out / "failures.txt").write_text("".join(f"{f}\n" for f in result.failures))
        print(f"warning: {len(result.failures)} cell runs failed (see failures.txt)", file=sys.stderr)
    if any(r.aug != "none" for r in result.rows):  # fails if a baseline cell failed on every seed or scored 0
        gains = augmentation_report(result.rows, ds.layer_count)
        (out / "aug_report.csv").write_text(gains_to_csv(gains))
    return asdict(grid), list(grid.seeds), f"sweep results written to {out} ({len(result.rows)} rows)"


def cmd_gradcheck(args, out: Path) -> tuple:
    if args.seed < 0:
        raise ConfigError("--seed: must be >= 0")
    err = gradient_check(seed=args.seed)
    report = {"seed": args.seed, "max_rel_err": err, "threshold": GRADCHECK_THRESHOLD}
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_json(report, out / "gradcheck.json")  # kept when the check fails
    if not err < GRADCHECK_THRESHOLD:
        raise NumericError(f"gradient check failed: {err:.6e} >= {GRADCHECK_THRESHOLD:g}")
    message = f"gradcheck seed={args.seed} max_rel_err={err:.6e} threshold={GRADCHECK_THRESHOLD:g}"
    return {"seed": args.seed}, [args.seed], message


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="disq",
        description="Discrete-token classification pipeline: synthetic data, codebooks, fusion training, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset from a spec JSON")
    p.add_argument("--spec", required=True, help="path to a synthetic spec JSON")
    p.add_argument("--out", help="output directory (default: $DISQ_RUN_DIR/gen or ./runs/gen)")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument("--n-per-class", type=int, help="override the spec's utterances per class")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "codebooks",
        help="train per-layer k-means codebooks on the train split",
        description="Train per-layer k-means codebooks (and with --opensmile the 7 category codebooks) on the "
        "train split. " + FIT_PLACEMENT,
    )
    p.add_argument("--dataset", required=True, help="dataset directory (with manifest_train.json)")
    p.add_argument("--layers", default="all", help="layer set name or comma-separated indices")
    p.add_argument("--k", type=int, default=256, help="codebook size (default 256)")
    p.add_argument("--seed", type=int, default=0, help="codebook training seed (default 0)")
    p.add_argument("--opensmile", action="store_true", help="also fit the 7 category codebooks")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_codebooks)

    p = sub.add_parser("tokenize", help="dump token indices and reconstructions for one split")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--split", default="train", choices=dataio.SPLITS, help="split to tokenize")
    p.add_argument("--codebooks", required=True, help="codebook directory from `disq codebooks`")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser(
        "train",
        help="train the fusion + pooling + classifier head",
        description="Train the fusion + pooling + classifier head, on streams quantized with codebooks fitted "
        "on the train split unless --continuous. " + FIT_PLACEMENT,
    )
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--config", help="train config JSON (flags override its scalars)")
    p.add_argument("--layer-set", help="layer set name or comma-separated indices")
    p.add_argument("--k", type=int, help="codebook size")
    p.add_argument("--continuous", action="store_true", help="bypass quantization (raw features)")
    p.add_argument("--aug", help="paralinguistic augmentation: none, a category name, or all")
    p.add_argument("--seed", type=int, help="training seed override")
    p.add_argument("--epochs", type=int, help="epoch count override")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory from `disq train`")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--split", default="test", choices=dataio.SPLITS, help="split to evaluate")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "sweep",
        help="run an experiment grid and render CSV + text tables",
        description="Run an experiment grid and render CSV + text tables. With --workers N > 1, the codebook "
        "fits and then the (cell, seed) runs go to up to N forked worker processes, which share this "
        "process's pages copy-on-write; the outputs are byte-identical for any --workers. --workers > 1 "
        "needs the fork start method and exits 2 without it; a worker process that dies exits 4.",
    )
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--grid", required=True, help="sweep grid JSON")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1: run in this process)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0, help="random seed for the check (default 0)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    started = time.time()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        out = Path(args.out or Path(os.environ.get("DISQ_RUN_DIR", "runs")) / args.command)
        taken = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
        if taken is not None:  # refused before the command does any work
            raise DataError(f"--out: {taken} exists and is not a directory")
        config_payload, seeds, message = args.func(args, out)
        _write_metadata(out, args.command, argv, config_payload, seeds, started)
        print(message)
        return 0
    except Exception as exc:
        for types, category, code in FAILURES:
            if isinstance(exc, types):
                print(f"error: {category}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
