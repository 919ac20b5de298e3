"""The four benchmark workloads: set-up, timed body and output checks.

Each workload stresses a different part of disq, so that a change to one
module moves one workload and leaves the others alone:

- codebook_fit: quantize (k-means fitting) and nothing of the model;
- train_head:   model (forward/backward/Adam) on inputs prepared in set-up;
- sweep_grid:   sweep's thread pool and shared codebook cache via `disq sweep`;
- cli_infer:    the CLI's tokenize/eval path: many small assignments, file
                writes, codebook and checkpoint loads, and eval's refits.

A body returns its outputs; `check` turns them into a count of operations
attempted and failed, plus a digest that must repeat across repetitions.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Calls that a traced body makes go through module attributes (sweep.X,
# model.X), so that the tracer's wrappers are found at call time.
from disq import cli, dataio, model, persist, sweep
from disq.dataio import FeatureSequence, SyntheticSpec
from disq.fusion import resolve_layer_set
from disq.model import TrainConfig
from disq.quantize import OPENSMILE_CATEGORIES, assign, reconstruct
from disq.reference import reference_spec, reference_train_config
from disq.sweep import CodebookCache, SweepGrid, evaluate, load_dataset, prepare_items

SPLITS = ("train", "dev", "test")
CHECK_ROWS = 64  # rows per codebook compared against brute-force assignment
CHECK_UTTERANCES = 4  # utterances per tokenized split whose files are re-derived


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration; the spec seed is set per run."""

    spec: SyntheticSpec
    fit_cells: tuple  # codebook_fit: (layer set, K, aug) prepared on every split
    fit_max_iters: int  # codebook_fit's Lloyd pass budget
    head_cells: tuple  # train_head: (layer set, K or None, aug)
    head_train: TrainConfig
    sweep_grid: dict  # grid JSON for sweep_grid
    sweep_workers: int
    cli_layers: str
    cli_k: int
    cli_epochs: int
    setup_reps: int


# Reference-shaped data (24 layers x 32 dims, the reference informativeness
# profile) at a third of the reference utterance count, so that every
# workload repeats its body several times within one run.
REFERENCE = Scale(
    spec=replace(reference_spec(), n_per_class=20),
    fit_cells=(("sparse", 256, "prosody"), ("last_only", 1000, "none")),
    fit_max_iters=12,
    head_cells=(("all", None, "none"), ("sparse", 64, "prosody")),
    head_train=replace(reference_train_config(0), epochs=20),
    sweep_grid={
        "ks": [64],
        "layer_sets": ["last_only", "sparse"],
        "augmentations": ["none", "prosody"],
        "seeds": [0, 1],
        "include_continuous": True,
        "codebook_seed": 0,
        "train": {"batch_size": 16, "epochs": 10, "hidden": 128, "learning_rate": 0.001},
    },
    sweep_workers=2,
    cli_layers="sparse",
    cli_k=256,
    cli_epochs=10,
    setup_reps=3,
)

# The tests' tiny_spec shape: 4 layers x 12 dims, 14 utterances per class.
TINY = Scale(
    spec=SyntheticSpec(
        n_per_class=14,
        layer_count=4,
        feature_dim=12,
        t_range=(10, 16),
        layer_informativeness=(0.1, 0.3, 0.6, 1.0),
        paralinguistic_gain=2.0,
        noise_sigma=0.8,
        seed=42,
    ),
    fit_cells=(("0,2", 32, "prosody"), ("3", 128, "none")),
    fit_max_iters=12,
    head_cells=(("0,1,2,3", None, "none"), ("0,2", 16, "prosody")),
    head_train=TrainConfig(epochs=2, batch_size=8, hidden=32, learning_rate=1e-3, seed=0),
    sweep_grid={
        "ks": [16],
        "layer_sets": ["3", "0,2"],
        "augmentations": ["none", "prosody"],
        "seeds": [0, 1],
        "include_continuous": True,
        "codebook_seed": 0,
        "train": {"batch_size": 8, "epochs": 1, "hidden": 16, "learning_rate": 0.001},
    },
    sweep_workers=2,
    cli_layers="0,2",
    cli_k=16,
    cli_epochs=2,
    setup_reps=1,
)


class SetupError(RuntimeError):
    """Set-up could not produce the workload's inputs."""


@dataclass
class RepCheck:
    ops: int
    failed: int
    digest: str
    quality: dict
    problems: list[str] = field(default_factory=list)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one disq command in-process; returns its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def make_dataset(workdir: Path, spec: SyntheticSpec):
    data = workdir / "data"
    dataio.generate_synthetic(spec, data)
    return load_dataset(data)


# --- codebook_fit -----------------------------------------------------------------


class CodebookFit:
    name = "codebook_fit"
    why = "quantize only: a cold cache fits 14 k-means codebooks (K=256 layers, 7 paralinguistic, one K=1000) at a fixed Lloyd pass budget"

    def setup(self, workdir: Path, spec: SyntheticSpec, scale: Scale):
        ds = make_dataset(workdir, spec)
        cells = [(resolve_layer_set(ls, ds.layer_count)[1], k, aug) for ls, k, aug in scale.fit_cells]
        return {"ds": ds, "cells": cells, "max_iters": scale.fit_max_iters}

    def body(self, state, rep_dir: Path):
        cache = CodebookCache(kmeans_max_iters=state["max_iters"])
        for layers, k, aug in state["cells"]:
            for split in SPLITS:
                sweep.prepare_items(state["ds"], split, layers, k, cache, 0, aug)
        return cache

    def check(self, state, cache: CodebookCache) -> RepCheck:
        ds = state["ds"]
        train_utts = ds.utterances["train"]
        books = {}  # stream -> (codebook, its training rows)
        for layers, k, aug in state["cells"]:
            for layer in layers:
                rows = np.concatenate([u.layers[layer].frames for u in train_utts]).astype(np.float64)
                books[f"layer:{layer}@{k}"] = (cache.layer_codebook(ds, layer, k, 0), rows)
            if aug != "none":
                osm = np.concatenate([u.opensmile.frames for u in train_utts]).astype(np.float64)
                osm_books = cache.osm_codebooks(ds, 0)
                for cat, cols in OPENSMILE_CATEGORIES.slices():
                    books[f"osm:{cat.name}"] = (osm_books[cat.name], osm[:, cols])
        failed, problems = 0, []
        rng = np.random.default_rng(0)
        for stream, (cb, rows) in sorted(books.items()):
            x = rows[rng.choice(len(rows), size=min(CHECK_ROWS, len(rows)), replace=False)]
            brute = np.argmin(((x[:, None, :] - cb.centroids[None, :, :]) ** 2).sum(axis=2), axis=1)
            tokens = assign(cb, FeatureSequence(x, stream_id=cb.stream_id))
            recon = reconstruct(cb, tokens).frames
            if not (np.array_equal(tokens.indices, brute) and np.array_equal(recon, cb.centroids[brute])):
                failed += 1
                problems.append(f"{stream}: assign/reconstruct disagree with brute force")
        ordered = [books[s][0] for s in sorted(books)]
        return RepCheck(
            ops=len(books),
            failed=failed,
            digest=_sha(*(cb.centroids.tobytes() for cb in ordered)),
            quality={"mean_final_distortion": float(np.mean([cb.final_distortion for cb in ordered]))},
            problems=problems,
        )


# --- train_head -------------------------------------------------------------------


class TrainHead:
    name = "train_head"
    why = "model only: trains the fusion head on two cells whose frozen inputs were prepared in set-up"

    def setup(self, workdir: Path, spec: SyntheticSpec, scale: Scale):
        ds = make_dataset(workdir, spec)
        cache = CodebookCache()
        cells = []
        for ls, k, aug in scale.head_cells:
            name, layers = resolve_layer_set(ls, ds.layer_count)
            items = {split: prepare_items(ds, split, layers, k, cache, 0, aug) for split in SPLITS}
            cells.append((name, layers, k, aug, items))
        return {"cells": cells, "config": scale.head_train}

    def body(self, state, rep_dir: Path):
        cfg = state["config"]
        out = []
        for name, layers, k, aug, items in state["cells"]:
            result = model.train(items["train"], items["dev"], cfg)
            row = sweep.evaluate(result.params, items["test"], layers, name, k, cfg.seed, aug)
            out.append((result, row))
        return out

    def check(self, state, outputs) -> RepCheck:
        failed, problems, chunks = 0, [], []
        for (name, *_), (result, row) in zip(state["cells"], outputs):
            if not all(np.isfinite(h.train_loss) for h in result.history):
                failed += 1
                problems.append(f"{name}: non-finite training loss")
            chunks += [arr.tobytes() for _, arr in result.params.param_items()]
        return RepCheck(
            ops=len(outputs),
            failed=failed,
            digest=_sha(*chunks),
            quality={"test_macro_f1": float(np.mean([row.macro_f1 for _, row in outputs]))},
            problems=problems,
        )


# --- sweep_grid -------------------------------------------------------------------


class SweepGridWorkload:
    name = "sweep_grid"
    why = "sweep only: `disq sweep --workers 2` shares codebooks between threaded cells, mixing fits and training"

    def setup(self, workdir: Path, spec: SyntheticSpec, scale: Scale):
        ds = make_dataset(workdir, spec)
        grid = workdir / "grid.json"
        grid.write_text(json.dumps(scale.sweep_grid, indent=1, sort_keys=True) + "\n")
        parsed = SweepGrid.from_json(scale.sweep_grid)
        return {
            "data": ds.root,
            "grid": str(grid),
            "seed_runs": len(parsed.cells()) * len(parsed.seeds),
            "workers": scale.sweep_workers,
        }

    def body(self, state, rep_dir: Path):
        out = rep_dir / "sweep"
        argv = ["sweep", "--dataset", state["data"], "--grid", state["grid"]]
        rc, err = _cli(argv + ["--workers", str(state["workers"]), "--out", str(out)])
        return rc, err, out

    def check(self, state, outputs) -> RepCheck:
        rc, err, out = outputs
        ops = state["seed_runs"]
        if rc != 0:
            return RepCheck(ops, ops, "", {}, [f"disq sweep exited {rc}: {err.strip()}"])
        failures = out / "failures.txt"
        failed = len(failures.read_text().splitlines()) if failures.exists() else 0
        table = (out / "results.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(table.decode())))
        f1 = [float(r["macro_f1"]) for r in rows if r["seed"] == "avg"]
        problems = [f"{failed} seed-runs failed"] if failed else []
        return RepCheck(ops, failed, _sha(table), {"test_macro_f1": float(np.mean(f1))}, problems)


# --- cli_infer --------------------------------------------------------------------


class CliInfer:
    name = "cli_infer"
    reference_f1: float | None = None
    why = "cli path: tokenize three splits with saved codebooks (many small assigns, file writes), then eval, which refits 13 codebooks"

    def setup(self, workdir: Path, spec: SyntheticSpec, scale: Scale):
        ds = make_dataset(workdir, spec)
        books, run = workdir / "codebooks", workdir / "train"
        layers, k = scale.cli_layers, str(scale.cli_k)
        for argv in (
            ["codebooks", "--dataset", ds.root, "--layers", layers, "--k", k, "--opensmile", "--out", str(books)],
            ["train", "--dataset", ds.root, "--layer-set", layers, "--k", k, "--aug", "prosody",
             "--epochs", str(scale.cli_epochs), "--out", str(run)],
        ):
            rc, err = _cli(argv)
            if rc != 0:
                raise SetupError(f"disq {argv[0]} exited {rc}: {err.strip()}")
        return {"ds": ds, "codebooks": books, "checkpoint": run / "checkpoint", "books": None}

    def body(self, state, rep_dir: Path):
        data, books = state["ds"].root, str(state["codebooks"])
        codes = {}
        for split in ("dev", "test", "train"):
            argv = ["tokenize", "--dataset", data, "--split", split, "--codebooks", books]
            codes[split] = _cli(argv + ["--out", str(rep_dir / f"tokenize_{split}")])
        argv = ["eval", "--checkpoint", str(state["checkpoint"]), "--dataset", data, "--split", "test"]
        codes["eval"] = _cli(argv + ["--out", str(rep_dir / "eval")])
        return codes, rep_dir

    def _books(self, state):
        """Saved codebooks by file stem, loaded once per run."""
        if state["books"] is None:
            stems = sorted(p.stem for p in state["codebooks"].glob("*.dsqf"))
            state["books"] = {stem: persist.load_codebook(state["codebooks"] / stem) for stem in stems}
        return state["books"]

    def _tokens_match(self, state, tok_dir: Path) -> bool:
        """Sampled token indices must reproduce the written reconstructions."""
        books = self._books(state)
        for utt in sorted((tok_dir / "tokens").iterdir())[:CHECK_UTTERANCES]:
            for path in sorted(utt.glob("layer_*.tokens.json")):
                stem = path.name.split(".")[0]
                indices = json.loads(path.read_text())["indices"]
                recon = dataio.read_feature_file(utt / f"{stem}.recon.dsqf").frames
                if not np.array_equal(recon, books[stem].centroids[indices].astype(np.float32)):
                    return False
            osm = json.loads((utt / "opensmile.tokens.json").read_text())
            expected = np.concatenate(
                [books[f"osm_{c.name}"].centroids[osm[c.name]["indices"]] for c in OPENSMILE_CATEGORIES.categories],
                axis=1,
            )
            recon = dataio.read_feature_file(utt / "opensmile.recon.dsqf").frames
            if not np.array_equal(recon, expected.astype(np.float32)):
                return False
        return True

    def _reference_f1(self, state) -> float:
        """In-memory evaluation of the reloaded checkpoint.

        Computed once per run: every set-up regenerates the same data, and
        the output digest already requires every repetition to match.
        """
        if self.reference_f1 is None:
            params, meta = persist.load_checkpoint(state["checkpoint"])
            layers = tuple(meta["layers"])
            items = prepare_items(
                state["ds"], "test", layers, meta["k"], CodebookCache(), meta["codebook_seed"], meta["aug"]
            )
            self.reference_f1 = evaluate(params, items, layers).macro_f1
        return self.reference_f1

    def check(self, state, outputs) -> RepCheck:
        codes, rep_dir = outputs
        failed, problems, chunks, quality = 0, [], [], {}
        for command, (rc, err) in codes.items():
            if rc != 0:
                failed += 1
                problems.append(f"{command} exited {rc}: {err.strip()}")
            elif command != "eval":
                tok_dir = rep_dir / f"tokenize_{command}"
                if not self._tokens_match(state, tok_dir):
                    failed += 1
                    problems.append(f"tokenize {command}: tokens do not reproduce the reconstructions")
                files = sorted(p for p in (tok_dir / "tokens").rglob("*") if p.is_file())
                chunks += [str(p.relative_to(tok_dir)).encode() + p.read_bytes() for p in files]
            else:
                metrics = json.loads((rep_dir / "eval" / "metrics.json").read_text())
                quality["test_macro_f1"] = metrics["macro_f1"]
                chunks.append(json.dumps(metrics, sort_keys=True).encode())
                if metrics["macro_f1"] != self._reference_f1(state):
                    failed += 1
                    problems.append("eval macro F1 differs from in-memory predict on the checkpoint")
        return RepCheck(len(codes), failed, _sha(*chunks), quality, problems)


WORKLOADS = {w.name: w for w in (CodebookFit, TrainHead, SweepGridWorkload, CliInfer)}
