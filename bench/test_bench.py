"""Tests of the benchmark itself, on the tests' tiny_spec shape.

    python3 -m pytest -q bench

Every workload runs once untraced and once traced on TINY. The runs must
emit exactly the metrics BENCHMARK.json names, with its units; pass their
own output checks; give the same output digest traced and untraced; and
leave every disq attribute the tracer wrapped as the original object.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_disq()

import compare  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TRACED_CLASSES = ("model.Adam", "sweep.CodebookCache")


def _bindings() -> dict:
    """Every attribute of every loaded disq module and traced class, by identity."""
    import disq

    out = {(m.__name__, k): v for m in tracing.disq_modules() for k, v in vars(m).items()}
    for path in TRACED_CLASSES:
        module, cls = path.split(".")
        out.update({(path, k): v for k, v in vars(getattr(getattr(disq, module), cls)).items()})
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    before = _bindings()
    records = {
        (name, trace): run.run_workload(name, 42, 0, trace, scale=TINY, workroot=tmp_path_factory.mktemp(name))
        for name in WORKLOADS
        for trace in (False, True)
    }
    return records, before, _bindings()


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted_with_its_unit(runs, name):
    records, _, _ = runs
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        metrics = records[name, trace]["result"]["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(isinstance(v["value"], float) for v in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_outputs_pass_checks_and_match_traced(runs, name):
    records, _, _ = runs
    plain, traced = records[name, False], records[name, True]
    for rec in (plain, traced):
        assert rec["result"]["correct"], rec["problems"]
        assert rec["result"]["failed"] == 0 and rec["result"]["attempted"] >= 1
    assert plain["outputs"]["digest"] == traced["outputs"]["digest"]
    assert plain["result"]["metrics"]["success_rate"]["value"] == 1.0


def test_tracer_restores_every_binding(runs):
    _, before, after = runs
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed


def test_traced_counts_locate_the_work(runs):
    records, _, _ = runs

    def layer(name):
        return {k: v["value"] for k, v in records[name, True]["result"]["metrics"].items()}

    # TINY codebook_fit: layers 0,2 + 7 paralinguistic codebooks, then layer 3
    assert layer("codebook_fit")["quantize.kmeans_fit.calls"] == 10
    assert layer("codebook_fit")["model.forward_batch.calls"] == 0
    assert all(v == 0 for k, v in layer("train_head").items() if k.startswith("quantize.") and k.endswith(".calls"))
    assert layer("train_head")["model.samples"] > 0
    # eval refits the checkpoint's 2 layer codebooks and 7 paralinguistic ones
    assert layer("cli_infer")["quantize.kmeans_fit.calls"] == 9
    assert layer("cli_infer")["dataio.write_feature_file.calls"] > 0
    sweep = layer("sweep_grid")
    assert sweep["sweep.run_cell.calls"] == 6
    assert sweep["sweep.codebook_cache.misses"] == 4
    assert 0 < sweep["sweep.worker_busy_ratio"] <= 1


def test_tracer_restores_bindings_when_the_body_raises():
    import disq

    before = _bindings()
    with pytest.raises(RuntimeError), tracing.Tracer():
        assert disq.sweep.kmeans_fit is not before["disq.sweep", "kmeans_fit"]
        raise RuntimeError("body failed")
    after = _bindings()
    assert all(before[key] is after[key] for key in before)


def test_self_time_subtracts_the_union_of_children():
    parent = tracing.Span("sweep.run_cell", 0.0, 10.0, None, 1)
    kids = [
        tracing.Span("model.train", 1.0, 4.0, parent, 2),
        tracing.Span("model.train", 3.0, 6.0, parent, 3),
    ]
    assert tracing._covered(parent, kids) == pytest.approx(5.0)


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, faster, list(zip(base, faster)), "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, slower, list(zip(base, slower)), "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, base, list(zip(base, base)), "lower", 0.1)[0] == "no worse"
    assert compare.verdict(base, noisy, list(zip(base, noisy)), "lower", 0.1)[0] == "unresolved"
