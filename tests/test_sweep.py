import csv
import hashlib
import io
import json
import multiprocessing
import os
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from disq import quantize, sweep
from disq.dataio import SPLITS, FeatureSequence, generate_synthetic, manifest_path
from disq.fusion import resample, resolve_layer_set
from disq.model import PreparedUtterance, TrainConfig, _standardized, predict, token_table, train
from disq.quantize import OPENSMILE_CATEGORIES, assign, quantize_opensmile, reconstruct, rvq_encode, rvq_fit
from disq.sweep import (
    CodebookCache,
    CSV_COLUMNS,
    AUGMENTATIONS,
    ResultRow,
    SweepGrid,
    augmentation_report,
    average_rows,
    evaluate,
    fit_workers,
    gains_to_csv,
    load_dataset,
    pool_size,
    prepare_items,
    prepare_rvq_items,
    rows_to_csv,
    rows_to_text,
    run_cell,
    run_sweep,
)

from conftest import tiny_spec, tiny_train_config

OSM_NEEDS = [("osm", c.name, c.k, 0) for c in OPENSMILE_CATEGORIES.categories]  # every category's book, seed 0


def _dir_digest(root) -> dict:
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_evaluate_memorized_train_split(tiny_dataset):
    _, layers = resolve_layer_set("0,1,2,3", 4)
    tr = prepare_items(tiny_dataset, "train", layers, None, cache=None)
    result = train(tr, tr, tiny_train_config(epochs=30, learning_rate=5e-3))
    row = evaluate(result.params, tr, layers, layer_set="all4", seed=0)
    assert row.macro_f1 == 1.0


def test_evaluate_single_utterance_alpha(tiny_dataset):
    _, layers = resolve_layer_set("0,1,2,3", 4)
    items = prepare_items(tiny_dataset, "dev", layers, None, cache=None)
    result = train(
        prepare_items(tiny_dataset, "train", layers, None, cache=None),
        items,
        tiny_train_config(epochs=2),
    )
    row = evaluate(result.params, items[:1], layers)
    _, alphas = predict(result.params, items[:1])
    assert [row.mean_alpha[l] for l in layers] == pytest.approx(alphas[0], rel=1e-12)


def test_evaluate_is_deterministic(tiny_dataset):
    _, layers = resolve_layer_set("0,1,2,3", 4)
    items = prepare_items(tiny_dataset, "test", layers, None, cache=None)
    result = train(
        prepare_items(tiny_dataset, "train", layers, None, cache=None),
        prepare_items(tiny_dataset, "dev", layers, None, cache=None),
        tiny_train_config(epochs=3),
    )
    a = evaluate(result.params, items, layers)
    b = evaluate(result.params, items, layers)
    assert a.macro_f1 == b.macro_f1
    assert np.array_equal(a.per_class_f1, b.per_class_f1)
    assert a.mean_alpha == b.mean_alpha


def test_run_cell_keeps_inputs_and_codebooks_frozen(tiny_dataset, tiny_cache):
    before_files = _dir_digest(tiny_dataset.root)
    row = run_cell(tiny_dataset, "0,1,2,3", 8, 0, tiny_cache, tiny_train_config(epochs=2))
    assert isinstance(row, ResultRow)
    cb = tiny_cache.layer_codebook(tiny_dataset, 3, 8, 0)
    centroids_before = cb.centroids.copy()
    run_cell(tiny_dataset, "3", 8, 0, tiny_cache, tiny_train_config(epochs=2))
    assert np.array_equal(cb.centroids, centroids_before)
    assert _dir_digest(tiny_dataset.root) == before_files


def test_batched_recon_equals_per_utterance_recon(tiny_dataset):
    cache = CodebookCache()
    for split in SPLITS:
        utts = tiny_dataset.utterances[split]
        assert len({u.n_frames for u in utts}) > 1  # unequal lengths: the cut points matter
        for layer in (0, 3):
            cb = cache.codebook(tiny_dataset, ("layer", layer, 8, 0))
            got = cache.tokens(tiny_dataset, split, ("layer", layer, 8, 0))
            assert len(got) == len(utts)
            for g, u in zip(got, utts):
                tokens = assign(cb, u.layers[layer])
                assert np.array_equal(g, tokens.indices)
                want = reconstruct(cb, tokens).frames.astype(np.float32)
                assert cb.centroids.astype(np.float32)[g].tobytes() == want.tobytes()
        books = cache.osm_codebooks(tiny_dataset, 0)
        got = {need[1]: cache.tokens(tiny_dataset, split, need) for need in OSM_NEEDS}
        assert all(len(t) == len(utts) for t in got.values())
        for i, u in enumerate(utts):
            g = {name: t[i] for name, t in got.items()}
            tokens = quantize_opensmile(u.opensmile, books)
            assert list(g) == list(tokens) == list(OPENSMILE_CATEGORIES.names())
            assert all(np.array_equal(g[name], tokens[name].indices) for name in g)
            frames = np.concatenate([books[name].centroids.astype(np.float32)[g[name]] for name in g], axis=1)
            want = np.concatenate([reconstruct(books[n], t).frames for n, t in tokens.items()], axis=1)
            assert frames.shape[1] == 74 and frames.tobytes() == want.astype(np.float32).tobytes()


def test_osm_tokens_reconstruct_no_frames(tiny_dataset, monkeypatch):
    from disq import quantize

    cache = CodebookCache()
    cache.osm_codebooks(tiny_dataset, 0)
    calls = []
    real = quantize.reconstruct
    monkeypatch.setattr(quantize, "reconstruct", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    tokens = [cache.tokens(tiny_dataset, "dev", need) for need in OSM_NEEDS]
    assert all(len(t) == len(tiny_dataset.utterances["dev"]) for t in tokens) and calls == []


def test_an_augmented_cell_fits_only_the_categories_it_uses(tiny_dataset, monkeypatch):
    from disq import quantize

    fitted = []
    real = quantize.kmeans_fit

    def spy(x, k, *args, **kwargs):
        fitted.append(kwargs.get("stream_id"))
        return real(x, k, *args, **kwargs)

    for module in (quantize, sweep):
        monkeypatch.setattr(module, "kmeans_fit", spy)
    monkeypatch.setattr(sweep, "fit_workers", lambda: 1)  # fit in this process, where the spy records
    cache = CodebookCache()
    prepare_items(tiny_dataset, "dev", (1, 3), 8, cache, aug="prosody")
    assert sorted(fitted) == ["layer:1", "layer:3", "osm:prosody"] and cache.misses == 3

    # the "all" block is each category's float32(C)[idx], side by side in table order, resampled
    items = prepare_items(tiny_dataset, "dev", (1, 3), 8, cache, aug="all")
    books = cache.osm_codebooks(tiny_dataset, 0)
    assert cache.misses == 9
    for it, utt in zip(items, tiny_dataset.utterances["dev"]):
        tokens = quantize_opensmile(utt.opensmile, books)
        block = np.concatenate([books[n].centroids.astype(np.float32)[t.indices] for n, t in tokens.items()], axis=1)
        assert block.shape[1] == 74 and it.osm.tobytes() == resample(block, it.shape[1]).tobytes()


def test_cache_keeps_token_indices_not_frames(tiny_dataset):
    cache = CodebookCache()
    for split in SPLITS:
        items = prepare_items(tiny_dataset, split, (1, 3), 8, cache, aug="all")
        tables = [cache.table(tiny_dataset, ("layer", layer, 8, 0)) for layer in (1, 3)]
        for it in items:
            assert it.streams is None and it.tokens.dtype == np.uint8
            assert len(it.tables) == 2 and all(a is b for a, b in zip(it.tables, tables))  # shared, not copied
    entries = [rows for record in cache._books.values() for rows in record.tokens.values()]
    assert len(entries) == 9 * len(SPLITS)  # layers 1 and 3 and the 7 opensmile categories, per split
    for entry in entries:
        for a in entry:
            assert isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype == np.uint8


@pytest.mark.parametrize("k, dtype", [(8, np.uint8), (256, np.uint8), (300, np.uint16)])
def test_token_streams_give_the_bits_of_standardizing_their_frames(tiny_dataset, k, dtype):
    cache = CodebookCache(kmeans_max_iters=3)
    layers = (0, 3)
    items = prepare_items(tiny_dataset, "dev", layers, k, cache, aug="prosody")
    books = [cache.layer_codebook(tiny_dataset, layer, k, 0).centroids for layer in layers]
    for layer, c, table in zip(layers, books, items[0].tables):
        assert table.tobytes() == token_table(c).tobytes()
        assert table.dtype == np.float64 and table.shape == (k, tiny_dataset.feature_dim)
    for it, utt in zip(items, tiny_dataset.utterances["dev"]):
        assert it.tokens.dtype == dtype and it.shape == (2, utt.n_frames, tiny_dataset.feature_dim)
        for row, c, layer in zip(it.tokens, books, layers):
            assert np.array_equal(row, assign(cache.layer_codebook(tiny_dataset, layer, k, 0), utt.layers[layer]).indices)
        frames = np.stack([c.astype(np.float32)[row] for c, row in zip(books, it.tokens)])
        got, want = _standardized(it), _standardized(PreparedUtterance(it.utt_id, frames, it.label, it.osm))
        for name in ("xhat", "s_hat", "osm"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got.xhat.flags.c_contiguous


def test_no_quantized_item_holds_float_layer_frames(tiny_dataset, tiny_cache):
    prepared = [prepare_items(tiny_dataset, "dev", (1, 2), 8, tiny_cache, aug=aug) for aug in ("none", "all")]
    prepared.append(prepare_rvq_items(tiny_dataset, "dev", layer=3, stages=(0, 1), k_per_stage=8, cache=tiny_cache))
    for items in prepared:
        for it in items:
            assert it.streams is None and it.tokens.dtype.kind == "u"
            floats = [f.name for f in fields(it) if getattr(getattr(it, f.name), "dtype", np.dtype(int)).kind == "f"]
            assert floats == ([] if it.osm is None else ["osm"])
    with pytest.raises(ValueError, match="no layer frames"):
        PreparedUtterance("u", np.zeros((1, 2, 3)), 0, tokens=np.zeros((1, 2), np.uint8), tables=(np.zeros((2, 3)),))
    with pytest.raises(ValueError, match="one table per layer"):
        PreparedUtterance("u", None, 0, tokens=np.zeros((2, 2), np.uint8), tables=(np.zeros((2, 3)),))


def test_missing_opensmile_stream_has_no_tokens(tmp_path):
    generate_synthetic(tiny_spec(n_per_class=3, t_range=(40, 48)), tmp_path)
    ds = load_dataset(tmp_path)
    first = ds.utterances["train"][0]
    ds.utterances["train"][0] = replace(first, opensmile=None)
    cache = CodebookCache()
    tokens = cache.tokens(ds, "train", OSM_NEEDS[0])
    assert tokens[0] is None and all(t is not None for t in tokens[1:])
    with pytest.raises(ValueError, match=f"{first.utt_id}: augmentation requested but no opensmile stream"):
        prepare_items(ds, "train", (3,), 4, cache, aug="prosody")


@pytest.mark.parametrize(
    "need, change, message",
    [
        (("layer", 3, 8, 0), {"stream_id": "layer:2"}, "'stream_id': 'layer:2'"),
        (("layer", 3, 8, 0), {"k": 9}, "'k': 9"),
        (("layer", 3, 8, 0), {"seed": 1}, "'seed': 1"),
        (("layer", 3, 8, 0), "narrow", "centroids have 11 columns, the stream 12"),
        (OSM_NEEDS[0], "narrow", "centroids have 5 columns, the stream 6"),  # prosody's 6 columns
    ],
    ids=["stream_id", "k", "seed", "layer_width", "category_width"],
)
def test_hold_rejects_a_book_its_need_would_not_fit(tiny_dataset, tiny_cache, need, change, message):
    book = tiny_cache.codebook(tiny_dataset, need)
    if change == "narrow":
        change = {"centroids": book.centroids[:, :-1]}
    cache = CodebookCache()
    with pytest.raises(ValueError, match=re.escape(message)):
        cache.hold(tiny_dataset, {need: replace(book, **change)})
    assert not cache._books
    cache.hold(tiny_dataset, {need: book})
    assert cache.codebook(tiny_dataset, need) is book and cache.misses == 0


def test_a_failed_fit_is_raised_at_every_lookup_and_fitted_once(tiny_dataset, monkeypatch):
    fits = []
    real = sweep.kmeans_fit

    def spy(*args, **kwargs):
        fits.append(kwargs["stream_id"])
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep, "kmeans_fit", spy)
    need = ("layer", 3, 10**6, 0)  # K above the train split's frame count
    cache = CodebookCache()
    cache.fill(tiny_dataset, [need], SPLITS)
    assert fits == ["layer:3"] and cache.misses == 1
    for lookup in (cache.codebook, cache.table, lambda ds, n: cache.tokens(ds, "dev", n)):
        with pytest.raises(ValueError, match="need at least k=1000000 points"):
            lookup(tiny_dataset, need)
    cache.fill(tiny_dataset, [need], SPLITS)
    assert fits == ["layer:3"] and cache.misses == 1


def test_load_dataset_errors_name_the_dataset(tmp_path):
    generate_synthetic(tiny_spec(n_per_class=3, t_range=(10, 12)), tmp_path)
    with pytest.raises(ValueError, match=re.escape(f"dataset {tmp_path}: layers [4] are not in the dataset's 0..3")):
        load_dataset(tmp_path, layers=(3, 4))
    dev = manifest_path(tmp_path, "dev")
    dev.write_text(json.dumps(dict(json.loads(dev.read_text()), feature_dim=13)))
    with pytest.raises(ValueError, match=re.escape(f"dataset {tmp_path}: manifests disagree")):
        load_dataset(tmp_path, ("train", "dev"))


@pytest.mark.parametrize("max_iters", [2, 100])
def test_a_fit_stores_the_train_tokens_assign_gives(tmp_path, max_iters):
    """The train split's tokens come from the fit's last Lloyd pass and equal `assign` on each utterance."""
    generate_synthetic(tiny_spec(n_per_class=3, t_range=(40, 48)), tmp_path)
    ds = load_dataset(tmp_path)
    train = ds.utterances["train"]
    for i in (0, 5):
        train[i] = replace(train[i], opensmile=None)
    cache = CodebookCache(kmeans_max_iters=max_iters)
    for need in (("layer", 3, 16, 0), OSM_NEEDS[0]):
        book = cache.codebook(ds, need)
        stored = cache._books[(ds.train_hash, need)].tokens["train"]  # filled by the fit, not by `tokens`
        assert cache.tokens(ds, "train", need) is stored
        held = CodebookCache()
        held.hold(ds, {need: book})
        encoded = held.tokens(ds, "train", need)
        for got, want, part in zip(stored, encoded, sweep._stream_frames(ds, "train", need, cache), strict=True):
            if part is None:
                assert got is None and want is None
            else:
                assert got.dtype == want.dtype == np.uint8 and np.array_equal(got, want)
                assert np.array_equal(got, assign(book, FeatureSequence(part)).indices)
    assert [t is None for t in stored] == [u.opensmile is None for u in train]


def test_quantized_items_of_an_empty_split(tmp_path):
    # 3 utterances per class all go to train (80/10/10 largest remainder)
    generate_synthetic(tiny_spec(n_per_class=3, t_range=(40, 48)), tmp_path)
    ds = load_dataset(tmp_path)
    assert not ds.utterances["dev"]
    assert prepare_items(ds, "dev", (0, 3), 4, CodebookCache(), aug="prosody") == []


def test_sweep_single_cell_rows(tiny_dataset):
    grid = SweepGrid(
        ks=(8,), layer_sets=("0,1,2,3",), seeds=(0,), train=tiny_train_config(epochs=2)
    )
    result = run_sweep(grid, tiny_dataset)
    assert len(result.rows) == 2
    seed_row, avg_row = result.rows
    assert seed_row.seed == 0 and avg_row.seed == "avg"
    assert avg_row.macro_f1 == seed_row.macro_f1
    assert np.array_equal(avg_row.per_class_f1, seed_row.per_class_f1)


def test_sweep_average_is_arithmetic_mean(tiny_dataset):
    grid = SweepGrid(
        ks=(8,), layer_sets=("2,3",), seeds=(0, 1, 2), train=tiny_train_config(epochs=2)
    )
    result = run_sweep(grid, tiny_dataset)
    seed_rows = [r for r in result.rows if r.seed != "avg"]
    avg_row = [r for r in result.rows if r.seed == "avg"][0]
    assert avg_row.macro_f1 == pytest.approx(
        np.mean([r.macro_f1 for r in seed_rows]), abs=1e-12
    )
    for layer in avg_row.mean_alpha:
        assert avg_row.mean_alpha[layer] == pytest.approx(
            np.mean([r.mean_alpha[layer] for r in seed_rows]), abs=1e-12
        )


def test_sweep_codebook_cache_hits(tiny_dataset):
    grid = SweepGrid(
        ks=(6,),
        layer_sets=("0,1,2,3", "3"),  # second cell reuses layer 3's codebook
        seeds=(0,),
        train=tiny_train_config(epochs=2),
    )
    result = run_sweep(grid, tiny_dataset)
    assert not result.failures
    assert result.cache.misses == 4  # one fit per layer, none for the second cell


def test_sweep_runs_identically_twice(tiny_dataset):
    grid = SweepGrid(
        ks=(8,),
        layer_sets=("1,3",),
        seeds=(0, 1),
        include_continuous=True,
        train=tiny_train_config(epochs=2),
    )
    a = rows_to_csv(run_sweep(grid, tiny_dataset).rows)
    b = rows_to_csv(run_sweep(grid, tiny_dataset).rows)
    assert a == b


def test_sweep_workers_match_serial(tiny_dataset):
    grid = SweepGrid(
        ks=(8, 10**6),  # K = 10**6 exceeds the train frame count: those cells must fail
        layer_sets=("2,3",),
        seeds=(0, 1),
        augmentations=("none", "prosody"),
        include_continuous=True,
        train=tiny_train_config(epochs=2),
    )

    def outputs(workers):
        result = run_sweep(grid, tiny_dataset, workers=workers)
        assert not multiprocessing.active_children()
        failures = [f"{f.layer_set} K={f.k} aug={f.aug} seed={f.seed}: {f.error}" for f in result.failures]
        report = gains_to_csv(augmentation_report(result.rows, tiny_dataset.layer_count))
        return rows_to_csv(result.rows), rows_to_text(result.rows), report, failures, result.cache.misses

    serial = outputs(1)
    csv_text, _, _, failures, misses = serial
    assert [row[:4] for row in list(csv.reader(io.StringIO(csv_text)))[1:]] == [
        [ls, k, seed, aug]
        for ls, k, aug in (("2,3", "8", "none"), ("2,3", "8", "prosody"), ("2,3", "", "none"))
        for seed in ("0", "1", "avg")
    ]
    assert len(failures) == 4 and all("K=1000000" in line for line in failures)
    assert misses == 5  # layers 2 and 3 at each K, and the opensmile books
    for workers in (2, 3):
        assert outputs(workers) == serial


def test_fill_is_the_same_for_any_worker_count(tiny_dataset):
    ds = tiny_dataset
    needs = [("layer", 0, 8, 0), ("layer", 3, 8, 0), ("layer", 3, 10**6, 0), *OSM_NEEDS, ("layer", 0, 8, 0)]

    def outputs(workers):
        cache = CodebookCache()
        cache.fill(ds, needs, SPLITS, workers)
        assert not multiprocessing.active_children()
        misses = cache.misses
        books = [cache.layer_codebook(ds, layer, 8, 0).centroids.tobytes() for layer in (0, 3)]
        books += [cb.centroids.tobytes() for cb in cache.osm_codebooks(ds, 0).values()]
        tokens = [np.concatenate(cache.tokens(ds, s, need)).tobytes() for s in SPLITS for need in needs[:2] + OSM_NEEDS]
        # the K = 10**6 fit raised (K exceeds the train frame count): only what needs that book fails
        assert len(prepare_items(ds, "dev", (0, 3), 8, cache, aug="prosody")) == len(ds.utterances["dev"])
        errors = []
        for lookup in (
            lambda: cache.layer_codebook(ds, 3, 10**6, 0),
            lambda: cache.tokens(ds, "test", ("layer", 3, 10**6, 0)),
            lambda: prepare_items(ds, "train", (3,), 10**6, cache),
        ):
            with pytest.raises(ValueError) as err:
                lookup()
            errors.append(str(err.value))
        assert cache.misses == misses  # every fit happened in `fill`
        return books, tokens, misses, errors

    serial = outputs(1)
    assert serial[2] == 10 and len(set(serial[3])) == 1  # 3 layer books and 7 category books
    for workers in (2, 3):
        assert outputs(workers) == serial


def test_a_worker_process_never_starts_a_pool(tiny_dataset, monkeypatch):
    grid = SweepGrid(ks=(8,), layer_sets=("3", "0,2"), seeds=(0, 1), train=tiny_train_config(epochs=1))
    serial = rows_to_csv(run_sweep(grid, tiny_dataset).rows)
    parent, real_pool = os.getpid(), sweep.futures.ProcessPoolExecutor

    def pool(*args, **kwargs):
        assert os.getpid() == parent, "a worker process started a pool"
        return real_pool(*args, **kwargs)

    # phase 1 fits nothing, so each phase-2 unit's prepare_items fills its own books at 2 workers
    monkeypatch.setattr(sweep.futures, "ProcessPoolExecutor", pool)  # the forked workers inherit the patches
    monkeypatch.setattr(sweep, "_codebook_needs", lambda grid, layer_count: [])
    monkeypatch.setattr(sweep, "fit_workers", lambda: 2)
    result = run_sweep(grid, tiny_dataset, workers=2)
    assert not result.failures and not multiprocessing.active_children()
    assert rows_to_csv(result.rows) == serial


@pytest.mark.parametrize(
    "env, cores, workers",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),  # pinned to one thread: one worker per core
        ({"OPENBLAS_NUM_THREADS": "1"}, 7, 7),
        ({"MKL_NUM_THREADS": "1"}, 3, 3),
        ({}, 2, 1),  # unpinned: in this process
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "x"}, 2, 1),  # not a pin either
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 5, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 8, 2),  # the largest pin counts
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ],
)
def test_fit_workers_are_usable_cores_over_pinned_blas_threads(monkeypatch, env, cores, workers):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert fit_workers() == workers


def test_fit_workers_without_fork_is_one(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(sweep.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert fit_workers() == 1


@pytest.mark.parametrize(
    "workers, tasks, size", [(1, 12, 1), (2, 12, 2), (3, 2, 2), (10000, 12, 12), (10000, 1, 1), (4, 0, 1)]
)
def test_pool_size_never_exceeds_the_tasks(workers, tasks, size):
    assert pool_size(workers, tasks) == size


def test_sweep_isolates_failing_cells(tiny_dataset):
    grid = SweepGrid(
        ks=(8, 10**6),  # second K exceeds the train frame count and must fail
        layer_sets=("3",),
        seeds=(0,),
        train=tiny_train_config(epochs=2),
    )
    result = run_sweep(grid, tiny_dataset)
    assert len([r for r in result.rows if r.seed != "avg"]) == 1
    assert len(result.failures) == 1
    assert result.failures[0].k == 10**6


def test_continuous_rows_have_blank_k(tiny_dataset):
    grid = SweepGrid(
        ks=(8,),
        layer_sets=("3",),
        seeds=(0,),
        include_continuous=True,
        train=tiny_train_config(epochs=2),
    )
    result = run_sweep(grid, tiny_dataset)
    csv_text = rows_to_csv(result.rows)
    reader = list(csv.reader(io.StringIO(csv_text)))
    assert reader[0] == CSV_COLUMNS
    assert all(len(row) == len(CSV_COLUMNS) for row in reader[1:])
    ks = [row[1] for row in reader[1:]]
    assert "8" in ks and "" in ks


def test_csv_quoting_and_alpha_blanks(tiny_dataset):
    row = ResultRow(
        layer_set="1,3",
        k=8,
        seed=0,
        aug="none",
        macro_f1=0.5,
        per_class_f1=np.linspace(0, 1, 8),
        mean_alpha={1: 0.25, 3: 0.75},
    )
    text = rows_to_csv([row])
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[1][0] == "1,3"
    alpha_cols = parsed[1][13:]
    assert alpha_cols[1] == "0.25" and alpha_cols[3] == "0.75"
    assert alpha_cols[0] == "" and alpha_cols[23] == ""
    assert rows_to_text([row]).count("\n") >= 3


def test_csv_keeps_every_alpha_of_a_26_layer_row():
    def row(mean_alpha):
        return ResultRow("x", 8, 0, "none", 0.5, np.zeros(8), mean_alpha)

    wide = row({0: 0.2, 24: 0.3, 25: 0.5})
    parsed = list(csv.reader(io.StringIO(rows_to_csv([row({1: 1.0}), wide]))))
    assert parsed[0] == CSV_COLUMNS + ["alpha_l24", "alpha_l25"]
    assert all(len(r) == len(parsed[0]) for r in parsed[1:])
    assert parsed[2][13:] == ["0.2"] + [""] * 23 + ["0.3", "0.5"]
    assert parsed[1][13:] == ["", "1"] + [""] * 24
    # up to 24 layers the header is the fixed one
    assert rows_to_csv([row({23: 1.0})]).splitlines()[0] == ",".join(CSV_COLUMNS)


def _avg_row(layer_set, k, aug, f1):
    return ResultRow(
        layer_set=layer_set,
        k=k,
        seed="avg",
        aug=aug,
        macro_f1=f1,
        per_class_f1=np.full(8, f1),
        mean_alpha={},
    )


def test_augmentation_report_gains():
    rows = [
        _avg_row("sparse", 8, "none", 0.30),
        _avg_row("sparse", 8, "prosody", 0.312),
        _avg_row("all", 8, "none", 0.40),
        _avg_row("all", 8, "prosody", 0.40),
    ]
    gains = augmentation_report(rows)
    by_set = {g.layer_set: g for g in gains}
    assert by_set["sparse"].gain_pct == pytest.approx(4.0, rel=1e-12)
    assert by_set["all"].gain_pct == 0.0
    # ordered sparse -> dense
    assert [g.layer_set for g in gains] == ["sparse", "all"]
    assert "gain_pct" in gains_to_csv(gains).splitlines()[0]


def test_augmentation_report_sizes_named_sets_by_the_layer_count():
    first25 = ",".join(str(i) for i in range(25))
    rows = [
        _avg_row(name, 8, aug, f1)
        for name in ("all", first25)
        for aug, f1 in (("none", 0.4), ("prosody", 0.5))
    ]
    assert [g.layer_set for g in augmentation_report(rows)] == ["all", first25]
    assert [g.layer_set for g in augmentation_report(rows, layer_count=26)] == [first25, "all"]


def test_augmentation_report_requires_baseline():
    with pytest.raises(ValueError):
        augmentation_report([_avg_row("sparse", 8, "prosody", 0.5)])


def test_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(ks=(), layer_sets=("all",), seeds=(0,))
    with pytest.raises(ValueError):
        SweepGrid(ks=(8,), layer_sets=("all",), seeds=(0,), augmentations=("bogus",))
    with pytest.raises(ValueError, match=r"train\.seed: must be 0 in a grid, whose seeds set the training seed; got 5"):
        SweepGrid(ks=(8,), layer_sets=("all",), seeds=(0,), train=TrainConfig(seed=5))
    grid = SweepGrid.from_json(
        {"ks": [8], "layer_sets": ["all"], "seeds": [0, 1], "train": {"epochs": 2}}
    )
    assert grid.train.epochs == 2
    assert grid.augmentations == ("none",)
    assert set(AUGMENTATIONS) == {
        "prosody", "spectral", "mfcc", "voice_quality", "formants",
        "auditory_bands", "additional", "all",
    }


@pytest.mark.parametrize("axis", ["ks", "seeds"])
@pytest.mark.parametrize("value", [8.7, 8.0, True, "8"])
def test_grid_rejects_non_integral_ks_and_seeds(axis, value):
    kwargs = {"ks": (8,), "layer_sets": ("all",), "seeds": (0,), axis: (4, value)}
    with pytest.raises(ValueError, match=rf"{axis}\[1\]: expected an integer"):
        SweepGrid(**kwargs)
    grid = SweepGrid(**dict(kwargs, **{axis: [4, np.int64(9)]}))
    assert getattr(grid, axis) == (4, 9) and type(getattr(grid, axis)[1]) is int


def test_prepare_items_aug_variants(tiny_dataset, tiny_cache):
    _, layers = resolve_layer_set("2,3", 4)
    items = prepare_items(tiny_dataset, "dev", layers, 8, tiny_cache, aug="prosody")
    assert items[0].osm.shape[1] == 6
    assert items[0].osm.shape[0] == items[0].tokens.shape[1]
    items_all = prepare_items(tiny_dataset, "dev", layers, 8, tiny_cache, aug="all")
    assert items_all[0].osm.shape[1] == 74
    with pytest.raises(ValueError):
        prepare_items(tiny_dataset, "dev", layers, 8, tiny_cache, aug="bogus")


@pytest.fixture(scope="module")
def deep_dataset(tmp_path_factory):
    """A small 24-layer dataset, deep enough for every named layer set."""
    root = tmp_path_factory.mktemp("deep_dataset")
    spec = tiny_spec(n_per_class=2, layer_count=24, t_range=(3, 6), layer_informativeness=(0.5,) * 24)
    generate_synthetic(spec, root)
    return load_dataset(root)


@pytest.mark.parametrize("layer_set, view", [("all", True), ("last8", True), ("last_only", True), ("sparse", False)])
def test_continuous_items_view_the_loaded_frames(deep_dataset, layer_set, view):
    _, layers = resolve_layer_set(layer_set, 24)
    utts = deep_dataset.utterances["train"]
    items = prepare_items(deep_dataset, "train", layers, None, None)
    for utt, it in zip(utts, items):
        want = np.stack([utt.layers[l].frames for l in layers])
        assert it.streams.dtype == np.float32 and np.array_equal(it.streams.view(np.uint32), want.view(np.uint32))
        assert np.shares_memory(it.streams, utt.block) == view
        with pytest.raises(ValueError, match="read-only"):
            it.streams[0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        utts[0].layers[0].frames[0, 0] = 0.0


def test_average_rows_single():
    row = _avg_row("all", 8, "none", 0.4)
    row.seed = 3
    out = average_rows([row])
    assert out.seed == "avg"
    assert out.macro_f1 == row.macro_f1


def _rvq_reference(ds, layer, n_stages, k, seed):
    train_frames = np.concatenate([u.layers[layer].frames for u in ds.utterances["train"]])
    return rvq_fit(train_frames, n_stages, k, seed)


def test_prepare_rvq_items_stage_streams(tiny_dataset):
    cache = CodebookCache()
    items = prepare_rvq_items(tiny_dataset, "dev", layer=3, stages=(0, 1, 2, 3), k_per_stage=8, cache=cache)
    assert items[0].tokens.shape[0] == len(items[0].tables) == 4
    utt = tiny_dataset.utterances["dev"][0]
    assert items[0].tokens.shape[1] == utt.n_frames
    # later stages add detail: cumulative reconstruction error shrinks
    rvq = _rvq_reference(tiny_dataset, 3, 4, 8, 0)
    x = utt.layers[3].frames.astype(np.float64)
    cumulative = np.zeros_like(x)
    errs = []
    for cb, idx in zip(rvq.stages, items[0].tokens):
        cumulative += cb.centroids.astype(np.float32)[idx]
        errs.append(float(((x - cumulative) ** 2).sum()))
    assert errs == sorted(errs, reverse=True)
    # a stage subset keeps the requested order
    pair = prepare_rvq_items(tiny_dataset, "dev", layer=3, stages=(0, 2), k_per_stage=8, cache=cache)
    assert pair[0].tokens.shape[0] == len(pair[0].tables) == 2
    assert np.array_equal(pair[0].tokens[0], items[0].tokens[0])
    assert pair[0].tables[1].tobytes() == items[0].tables[2].tobytes()
    with pytest.raises(ValueError):
        prepare_rvq_items(tiny_dataset, "dev", layer=3, stages=(1, -1), k_per_stage=8, cache=cache)


def test_rvq_stage_streams_train_like_layers(tiny_dataset):
    cache = CodebookCache()
    tr = prepare_rvq_items(tiny_dataset, "train", layer=3, stages=(0, 1, 2), k_per_stage=8, cache=cache)
    dv = prepare_rvq_items(tiny_dataset, "dev", layer=3, stages=(0, 1, 2), k_per_stage=8, cache=cache)
    result = train(tr, dv, tiny_train_config(epochs=3))
    assert len(result.history) == 3


@pytest.mark.parametrize("split,stages", [("train", None), ("dev", (2, 0)), ("test", (1,))])
def test_batched_rvq_items_equal_per_utterance_encoding(tiny_dataset, split, stages):
    stages = stages or (0, 1, 2)
    items = prepare_rvq_items(tiny_dataset, split, layer=2, stages=stages, k_per_stage=8, cache=CodebookCache(), seed=4)
    rvq = _rvq_reference(tiny_dataset, 2, 3, 8, 4)
    utts = tiny_dataset.utterances[split]
    assert [it.utt_id for it in items] == [u.utt_id for u in utts]
    tables = [token_table(rvq.stages[s].centroids) for s in stages]
    for it, utt in zip(items, utts):
        tokens = rvq_encode(rvq, utt.layers[2])
        expected = np.stack([tokens[s].indices for s in stages])
        assert it.label == utt.label and it.osm is None and it.streams is None
        assert it.tokens.dtype == np.uint8 and np.array_equal(it.tokens, expected)
        assert [t.tobytes() for t in it.tables] == [t.tobytes() for t in tables]


def test_rvq_items_need_a_stage(tiny_dataset):
    with pytest.raises(ValueError):
        prepare_rvq_items(tiny_dataset, "dev", layer=3, stages=(), k_per_stage=8, cache=CodebookCache())


def test_each_rvq_stage_is_fitted_once_per_cache(tiny_dataset, monkeypatch):
    """Every split and every stage selection of one (layer, K, seed) shares its stage books: they are `rvq_fit`'s."""
    fits = []

    def spy(*args, **kwargs):
        fits.append(args)
        return quantize.kmeans_fit(*args, **kwargs)

    monkeypatch.setattr(sweep, "kmeans_fit", spy)
    cache = CodebookCache()
    stages = (0, 1, 2, 3)
    for split in SPLITS:
        prepare_rvq_items(tiny_dataset, split, layer=1, stages=stages, k_per_stage=8, cache=cache, seed=2)
    assert cache.misses == len(fits) == len(stages)
    for split in SPLITS:
        prepare_rvq_items(tiny_dataset, split, layer=1, stages=(0, 1), k_per_stage=8, cache=cache, seed=2)
    assert cache.misses == len(fits) == len(stages)
    assert cache.max_iters == 100  # `rvq_fit`'s, through `kmeans_fit`'s default
    for s, want in enumerate(_rvq_reference(tiny_dataset, 1, 4, 8, 2).stages):
        assert cache.codebook(tiny_dataset, ("rvq", (1, s), 8, 2 + s)).centroids.tobytes() == want.centroids.tobytes()
    assert cache.misses == len(stages)


def test_rvq_train_tokens_come_from_the_stage_fits(tiny_dataset, monkeypatch):
    """On the train split every row is assigned by a stage fit's last Lloyd pass, and by nothing else."""
    callers = []
    nearest = quantize.nearest_centroids

    def spy(x, centroids, rows=None):
        callers.append(sys._getframe(1).f_code.co_name)
        return nearest(x, centroids, rows)

    monkeypatch.setattr(quantize, "nearest_centroids", spy)
    items = prepare_rvq_items(tiny_dataset, "train", layer=3, stages=(0, 1), k_per_stage=8, cache=CodebookCache())
    assert len(items) == len(tiny_dataset.utterances["train"])
    assert callers and set(callers) == {"kmeans_fit"}