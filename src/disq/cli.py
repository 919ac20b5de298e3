"""Single entry point exposing the pipeline as reproducible subcommands.

Every command reads its inputs, writes all artifacts under one output
directory (never touching inputs), and finishes by writing run metadata.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure; failures
print one machine-readable line `error: <category>: <message>` to stderr.
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
from .fusion import resolve_layer_set
from .model import TrainConfig, gradient_check, train
from .quantize import OPENSMILE_CATEGORIES
from .sweep import (
    CodebookCache,
    SweepGrid,
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
)

GRADCHECK_THRESHOLD = 1e-3
FIT_PLACEMENT = (
    "The codebook fits run side by side in forked worker processes, as many as the usable cores divided by "
    "the BLAS threads that OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS pins, and in this process "
    "when BLAS is unpinned (`sweep` uses --workers instead). Set OPENBLAS_NUM_THREADS=1 to fit on every core. "
    "The outputs never depend on where the fits ran."
)
# what `eval` reads from a checkpoint's meta.json
CHECKPOINT_META_FIELDS = ("layer_set", "layers", "k", "aug", "codebook_seed", "train", "train_hash")


class ConfigError(Exception):
    exit_code = 2


class DataError(Exception):
    exit_code = 3


class NumericError(Exception):
    exit_code = 4


# --- config plumbing ----------------------------------------------------------


def _load_json_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return doc


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


@dataclass
class TrainJob:
    """The `disq train` config document; flags override its scalars."""

    layer_set: str = "all"
    k: int | None = 256  # None = continuous features
    aug: str = "none"
    codebook_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        check_augmentation(self.aug)


# --- run directory and metadata -------------------------------------------------


def _out_dir(args, command: str) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        out = Path(os.environ.get("DISQ_RUN_DIR", "runs")) / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _write_metadata(out: Path, command: str, argv, config_payload, seeds, started: float) -> None:
    outputs = sorted(
        str(p.relative_to(out)) for p in out.rglob("*") if p.is_file() and p.name != "run_metadata.json"
    )
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
    (out / "run_metadata.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# --- shared data helpers ---------------------------------------------------------


def _require_fields(doc: dict, path, names) -> None:
    missing = [name for name in names if name not in doc]
    if missing:
        raise DataError(f"{path}: missing {', '.join(missing)}")


def _load_dataset(dataset_dir, splits=dataio.SPLITS, layers=None, opensmile=True):
    try:
        return load_dataset(dataset_dir, splits, layers, opensmile)
    except (FileNotFoundError, dataio.FeatureFileError, ValueError, json.JSONDecodeError) as exc:
        raise DataError(f"dataset {dataset_dir}: {exc}") from exc


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


def cmd_gen(args, argv) -> int:
    started = time.time()
    doc = _load_json_config(args.spec)
    _override(doc, args, ("seed", "n_per_class"))
    spec = _read_config(SyntheticSpec, doc)
    out = _out_dir(args, "gen")
    try:
        dataio.generate_synthetic(spec, out)
    except ValueError as exc:  # e.g. no room for the class directions in feature_dim dims
        raise ConfigError(f"{args.spec}: {exc}") from exc
    except OSError as exc:
        raise DataError(str(exc)) from exc
    _write_metadata(out, "gen", argv, spec.to_json(), [spec.seed], started)
    print(f"dataset written to {out}")
    return 0


def cmd_codebooks(args, argv) -> int:
    started = time.time()
    if args.k < 1:
        raise ConfigError("--k: must be >= 1")
    out = _out_dir(args, "codebooks")
    ds = _load_dataset(args.dataset, ("train",), _layer_picker({"": args.layers}), args.opensmile)

    index = {"k": args.k, "seed": args.seed, "layers": list(ds.layers), "opensmile": bool(args.opensmile)}
    cache = CodebookCache()
    needs = [("layer", layer, args.k, args.seed) for layer in ds.layers]
    cache.fill(ds, needs + ([("osm", args.seed)] if args.opensmile else []), workers=fit_workers())
    train_utts = ds.utterances["train"]
    layer_frames = sum(u.n_frames for u in train_utts)
    osm_frames = sum(u.opensmile.n_frames for u in train_utts if u.opensmile is not None)
    try:
        for layer in ds.layers:
            cb = cache.layer_codebook(ds, layer, args.k, args.seed)
            persist.save_codebook(cb, out / f"layer_{layer:02d}", extra={"train_frames": layer_frames})
        if args.opensmile:
            for name, cb in cache.osm_codebooks(ds, args.seed).items():
                persist.save_codebook(cb, out / f"osm_{name}", extra={"train_frames": osm_frames})
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    (out / "index.json").write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
    _write_metadata(out, "codebooks", argv, index, [args.seed], started)
    print(f"codebooks written to {out}")
    return 0


def _hold_codebooks(cache: CodebookCache, ds, load, book_dir: Path, layers, k, seed, opensmile: bool):
    """Give `cache` the codebooks saved in `book_dir`, each checked against the run and `ds`.

    `load` is the persist reader of the directory's format. Returns the layer
    books and the opensmile books (None unless `opensmile`).
    """

    def book(stem: str, stream_id: str, k: int, dim: int):
        base = book_dir / stem
        try:
            cb = load(base)
        except (OSError, ValueError, dataio.FeatureFileError) as exc:  # a parse error does not name the file
            raise DataError(str(exc) if str(base) in str(exc) else f"{base}: {exc}") from exc
        want = {"stream_id": stream_id, "k": k, "seed": seed}
        got = {name: getattr(cb, name) for name in want}
        if got != want:
            raise DataError(f"{base.with_suffix('.json')}: holds {got}, the run asks for {want}")
        if cb.dim != dim:
            raise DataError(f"{base}: centroids have {cb.dim} columns, the stream {dim}")
        return cb

    layer_books = {l: book(f"layer_{l:02d}", f"layer:{l}", k, ds.feature_dim) for l in layers}
    osm_books = None
    if opensmile:
        osm_books = {
            c.name: book(f"osm_{c.name}", f"osm:{c.name}", c.k, c.dim) for c in OPENSMILE_CATEGORIES.categories
        }
    cache.hold(ds, seed, layer_books, osm_books)
    return layer_books, osm_books


def cmd_tokenize(args, argv) -> int:
    started = time.time()
    out = _out_dir(args, "tokenize")
    book_dir = Path(args.codebooks)
    index_path = book_dir / "index.json"
    if not index_path.is_file():
        raise DataError(f"{book_dir}: missing index.json")
    try:
        index = json.loads(index_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{index_path}: {exc}") from exc
    _require_fields(index, index_path, ("k", "seed", "layers"))
    opensmile = bool(index.get("opensmile"))
    ds = _load_dataset(args.dataset, (args.split,), index["layers"], opensmile)
    cache, seed = CodebookCache(), index["seed"]
    layer_books, osm_books = _hold_codebooks(
        cache, ds, persist.load_codebook, book_dir, index["layers"], index["k"], seed, opensmile
    )

    utts = ds.utterances[args.split]
    for utt in utts:
        (out / "tokens" / utt.utt_id).mkdir(parents=True, exist_ok=True)

    def write(utt, stem, tokens, recon):
        utt_dir = out / "tokens" / utt.utt_id
        (utt_dir / f"{stem}.tokens.json").write_text(json.dumps(tokens, sort_keys=True) + "\n")
        dataio.write_feature_file(FeatureSequence(recon), utt_dir / f"{stem}.recon.dsqf")

    # the recon files hold float32(C)[idx], the frames prepare_items builds
    try:
        for layer, cb in layer_books.items():
            c32 = cb.centroids.astype(np.float32)
            for utt, idx in zip(utts, cache.layer_tokens(ds, args.split, layer, cb.k, seed)):
                doc = {"stream_id": cb.stream_id, "k": cb.k, "indices": idx.tolist()}
                write(utt, f"layer_{layer:02d}", doc, c32[idx])
        if osm_books is not None:
            c32 = {name: cb.centroids.astype(np.float32) for name, cb in osm_books.items()}
            for utt, tokens in zip(utts, cache.osm_tokens(ds, args.split, seed)):
                if tokens is not None:
                    doc = {name: {"k": osm_books[name].k, "indices": i.tolist()} for name, i in tokens.items()}
                    write(utt, "opensmile", doc, np.concatenate([c32[n][i] for n, i in tokens.items()], axis=1))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    _write_metadata(out, "tokenize", argv, {"split": args.split, "k": index["k"]}, [seed], started)
    print(f"tokens written to {out}")
    return 0


def _train_job(args) -> TrainJob:
    """The train config with flags applied."""
    doc = _load_json_config(args.config) if args.config else {}
    _override(doc, args, ("layer_set", "k", "aug"))
    if args.continuous:
        doc["k"] = None
    if isinstance(doc.setdefault("train", {}), dict):
        _override(doc["train"], args, ("seed", "epochs"))
    return _read_config(TrainJob, doc)


def cmd_train(args, argv) -> int:
    started = time.time()
    out = _out_dir(args, "train")
    job = _train_job(args)
    ds = _load_dataset(
        args.dataset, ("train", "dev"), _layer_picker({"layer_set: ": job.layer_set}), job.aug != "none"
    )
    name, layers = job.layer_set, ds.layers

    cache = CodebookCache()
    try:
        splits = {
            split: prepare_items(ds, split, layers, job.k, cache, job.codebook_seed, job.aug)
            for split in ("train", "dev")
        }
        result = train(splits["train"], splits["dev"], job.train)
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    meta = {
        "layer_set": name,
        "layers": list(layers),
        "k": job.k,
        "aug": job.aug,
        "codebook_seed": job.codebook_seed,
        "train": vars(job.train).copy(),
        "train_hash": ds.train_hash,
        "best_epoch": result.best_epoch,
        "dev_macro_f1": result.history[result.best_epoch].dev_macro_f1,
    }
    persist.save_checkpoint(out / "checkpoint", result.params, meta)
    if job.k is not None:  # the exact codebooks the streams were made with, for eval
        books = {f"layer_{l:02d}": cache.layer_codebook(ds, l, job.k, job.codebook_seed) for l in layers}
        if job.aug != "none":
            books.update({f"osm_{n}": cb for n, cb in cache.osm_codebooks(ds, job.codebook_seed).items()})
        book_dir = out / "checkpoint" / "codebooks"
        book_dir.mkdir(exist_ok=True)
        for stem, cb in books.items():
            persist.save_exact_codebook(cb, book_dir / stem)
    history = [[h.train_loss, h.dev_macro_f1] for h in result.history]
    (out / "history.json").write_text(json.dumps(history) + "\n")
    _write_metadata(out, "train", argv, meta, [job.train.seed], started)
    print(
        f"checkpoint written to {out / 'checkpoint'} "
        f"(best epoch {result.best_epoch}, dev macro F1 {meta['dev_macro_f1']:.4f})"
    )
    return 0


def cmd_eval(args, argv) -> int:
    started = time.time()
    out = _out_dir(args, "eval")
    if args.split not in dataio.SPLITS:
        raise ConfigError(f"--split: must be one of {dataio.SPLITS}")
    try:
        params, meta = persist.load_checkpoint(args.checkpoint)
    except (FileNotFoundError, json.JSONDecodeError, dataio.FeatureFileError, KeyError) as exc:
        raise DataError(f"checkpoint {args.checkpoint}: {exc}") from exc
    meta_path = Path(args.checkpoint) / "meta.json"
    _require_fields(meta, meta_path, CHECKPOINT_META_FIELDS)
    if not isinstance(meta["train"], dict) or "seed" not in meta["train"]:
        raise DataError(f"{meta_path}: missing train.seed")
    # A continuous checkpoint needs no codebooks, and one saved before `train`
    # kept its codebooks has no codebooks/: eval then fits them as `train` did.
    # It reads the checkpoint's layers of one split, and of the train split
    # when it fits; opensmile files only when the checkpoint is augmented.
    holds = meta["k"] is not None and (Path(args.checkpoint) / "codebooks").is_dir()
    fits = meta["k"] is not None and not holds
    ds = _load_dataset(
        args.dataset, ("train", args.split) if fits else (args.split,), meta["layers"], meta["aug"] != "none"
    )
    if meta["train_hash"] != ds.train_hash:
        raise DataError("checkpoint was trained on a different dataset (train manifest hash mismatch)")

    cache = CodebookCache()
    if holds:
        book_dir = Path(args.checkpoint) / "codebooks"
        _hold_codebooks(
            cache, ds, persist.load_exact_codebook, book_dir, meta["layers"], meta["k"], meta["codebook_seed"],
            meta["aug"] != "none",
        )
    try:
        items = prepare_items(
            ds, args.split, tuple(meta["layers"]), meta["k"], cache, meta["codebook_seed"], meta["aug"]
        )
        row = evaluate(
            params,
            items,
            tuple(meta["layers"]),
            layer_set=meta["layer_set"],
            k=meta["k"],
            seed=meta["train"]["seed"],
            aug=meta["aug"],
        )
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    metrics_doc = {
        "split": args.split,
        "macro_f1": row.macro_f1,
        "per_class_f1": [float(v) for v in row.per_class_f1],
        "mean_alpha": {str(layer): v for layer, v in sorted(row.mean_alpha.items())},
    }
    (out / "metrics.json").write_text(json.dumps(metrics_doc, indent=1, sort_keys=True) + "\n")
    (out / "row.csv").write_text(rows_to_csv([row]))
    _write_metadata(out, "eval", argv, metrics_doc, [meta["train"]["seed"]], started)
    print(f"{args.split} macro F1 = {row.macro_f1:.4f} (metrics in {out})")
    return 0


def cmd_sweep(args, argv) -> int:
    started = time.time()
    out = _out_dir(args, "sweep")
    grid = _read_config(SweepGrid, _load_json_config(args.grid))
    if args.workers < 1:
        raise ConfigError("--workers: must be >= 1")
    if args.workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigError("--workers: more than 1 needs the fork start method, which this platform lacks")
    layer_sets = {f"layer_sets[{i}]: ": entry for i, entry in enumerate(grid.layer_sets)}
    opensmile = any(aug != "none" for aug in grid.augmentations)
    ds = _load_dataset(args.dataset, layers=_layer_picker(layer_sets), opensmile=opensmile)
    try:
        result = run_sweep(grid, ds, workers=args.workers)
    except BrokenExecutor as exc:  # a worker process died
        raise NumericError(f"sweep worker process died ({exc})") from exc
    if not result.rows:
        for failure in result.failures:
            print(f"failed cell: {failure}", file=sys.stderr)
        raise NumericError("every sweep cell failed")

    (out / "results.csv").write_text(rows_to_csv(result.rows))
    (out / "results.txt").write_text(rows_to_text(result.rows))
    if any(r.aug != "none" for r in result.rows):
        gains = augmentation_report(result.rows, ds.layer_count)
        (out / "aug_report.csv").write_text(gains_to_csv(gains))
    if result.failures:
        lines = [
            f"{f.layer_set} K={f.k} aug={f.aug} seed={f.seed}: {f.error}" for f in result.failures
        ]
        (out / "failures.txt").write_text("\n".join(lines) + "\n")
        print(f"warning: {len(result.failures)} cell runs failed (see failures.txt)", file=sys.stderr)
    _write_metadata(out, "sweep", argv, asdict(grid), list(grid.seeds), started)
    print(f"sweep results written to {out} ({len(result.rows)} rows)")
    return 0


def cmd_gradcheck(args, argv) -> int:
    started = time.time()
    out = _out_dir(args, "gradcheck")
    err = gradient_check(seed=args.seed)
    report = {"seed": args.seed, "max_rel_err": err, "threshold": GRADCHECK_THRESHOLD}
    (out / "gradcheck.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    _write_metadata(out, "gradcheck", argv, {"seed": args.seed}, [args.seed], started)
    print(f"gradcheck seed={args.seed} max_rel_err={err:.6e} threshold={GRADCHECK_THRESHOLD:g}")
    if not err < GRADCHECK_THRESHOLD:
        raise NumericError(f"gradient check failed: {err:.6e} >= {GRADCHECK_THRESHOLD:g}")
    return 0


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--split", default="test", help="split to evaluate (train, dev, test)")
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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return DataError.exit_code
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return NumericError.exit_code
    except dataio.FeatureFileError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return DataError.exit_code
    except FileNotFoundError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return DataError.exit_code
    except FloatingPointError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return NumericError.exit_code


if __name__ == "__main__":
    sys.exit(main())
