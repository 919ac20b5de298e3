import hashlib
import json
import multiprocessing
import os
import shutil
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import disq.cli as cli
import disq.sweep as sweep
from disq.cli import build_parser, main
from disq.dataio import FeatureSequence, read_feature_file, write_feature_file
from disq.quantize import OPENSMILE_CATEGORIES
from disq.sweep import CodebookCache, load_dataset

from conftest import tiny_spec


def run(argv):
    return main([str(a) for a in argv])


def dir_digest(root, exclude=("run_metadata.json",)):
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in exclude
    }


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """One generated dataset plus configs, shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(tiny_spec().to_json()))
    train_cfg = root / "train.json"
    train_cfg.write_text(
        json.dumps(
            {
                "layer_set": "0,1,2,3",
                "k": 8,
                "aug": "prosody",
                "train": {"epochs": 3, "batch_size": 8, "hidden": 16},
            }
        )
    )
    grid = root / "grid.json"
    grid.write_text(
        json.dumps(
            {
                "ks": [8],
                "layer_sets": ["2,3"],
                "seeds": [0],
                "train": {"epochs": 2, "batch_size": 8, "hidden": 16},
            }
        )
    )
    data = root / "data"
    assert run(["gen", "--spec", spec_path, "--out", data]) == 0
    return root


def test_help_documents_every_flag(capsys):
    parser = build_parser()
    # the top-level help lists all subcommands
    top = parser.format_help()
    for sub in ("gen", "codebooks", "tokenize", "train", "eval", "sweep", "gradcheck"):
        assert sub in top
    expected_flags = {
        "gen": ["--spec", "--out", "--seed", "--n-per-class"],
        "codebooks": ["--dataset", "--layers", "--k", "--seed", "--opensmile", "--out"],
        "tokenize": ["--dataset", "--split", "--codebooks", "--out"],
        "train": [
            "--dataset", "--config", "--layer-set", "--k", "--continuous",
            "--aug", "--seed", "--epochs", "--out",
        ],
        "eval": ["--checkpoint", "--dataset", "--split", "--out"],
        "sweep": ["--dataset", "--grid", "--workers", "--out"],
        "gradcheck": ["--seed", "--out"],
    }
    sub_actions = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    for name, flags in expected_flags.items():
        help_text = sub_actions.choices[name].format_help()
        for flag in flags:
            assert flag in help_text, (name, flag)


def test_gen_is_deterministic(cli_workspace, tmp_path):
    spec = cli_workspace / "spec.json"
    assert run(["gen", "--spec", spec, "--out", tmp_path / "a"]) == 0
    assert run(["gen", "--spec", spec, "--out", tmp_path / "b"]) == 0
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")
    assert dir_digest(tmp_path / "a") == dir_digest(cli_workspace / "data")


def test_gen_flag_overrides(cli_workspace, tmp_path):
    spec = cli_workspace / "spec.json"
    assert run(["gen", "--spec", spec, "--seed", 9, "--out", tmp_path / "c"]) == 0
    assert dir_digest(tmp_path / "c") != dir_digest(cli_workspace / "data")


def test_gen_rejects_a_spec_it_cannot_place(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tiny_spec(feature_dim=1).to_json()))
    assert run(["gen", "--spec", spec, "--out", tmp_path / "data"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert "could not place 8 separated vectors in 1 dims" in err


def test_codebooks_tokenize_roundtrip(cli_workspace, tmp_path):
    data = cli_workspace / "data"
    cb = tmp_path / "cb"
    assert run(["codebooks", "--dataset", data, "--layers", "2,3", "--k", 8, "--opensmile", "--out", cb]) == 0
    assert (cb / "layer_02.dsqf").is_file() and (cb / "layer_03.json").is_file()
    assert (cb / "osm_prosody.dsqf").is_file()
    sidecar = json.loads((cb / "layer_03.json").read_text())
    assert sidecar["k"] == 8 and "train_frames" in sidecar

    # the command fits exactly the codebooks train, eval and sweep fit
    ds, cache = load_dataset(data), CodebookCache()
    for layer in (2, 3):
        expected = np.float32(cache.layer_codebook(ds, layer, 8, 0).centroids)
        assert np.array_equal(read_feature_file(cb / f"layer_{layer:02d}.dsqf").frames, expected)
    for name, book in cache.osm_codebooks(ds, 0).items():
        assert np.array_equal(read_feature_file(cb / f"osm_{name}.dsqf").frames, np.float32(book.centroids))
    assert sorted(cache.osm_codebooks(ds, 0)) == sorted(OPENSMILE_CATEGORIES.names())

    tok = tmp_path / "tok"
    assert run(["tokenize", "--dataset", data, "--split", "dev", "--codebooks", cb, "--out", tok]) == 0
    utt_dirs = sorted((tok / "tokens").iterdir())
    assert utt_dirs
    sample = utt_dirs[0]
    doc = json.loads((sample / "layer_03.tokens.json").read_text())
    assert doc["k"] == 8 and all(0 <= i < 8 for i in doc["indices"])
    assert (sample / "layer_03.recon.dsqf").is_file()
    assert (sample / "opensmile.tokens.json").is_file()

    # rerun is byte-identical
    tok2 = tmp_path / "tok2"
    assert run(["tokenize", "--dataset", data, "--split", "dev", "--codebooks", cb, "--out", tok2]) == 0
    assert dir_digest(tok) == dir_digest(tok2)


def test_tokenize_makes_each_utterance_directory_once(cli_workspace, tmp_path, monkeypatch):
    data, cb, tok = cli_workspace / "data", tmp_path / "cb", tmp_path / "tok"
    assert run(["codebooks", "--dataset", data, "--layers", "2,3", "--k", 8, "--opensmile", "--out", cb]) == 0
    made, mkdir = [], os.mkdir

    def counting(path, *args, **kwargs):
        try:
            mkdir(path, *args, **kwargs)
        except FileNotFoundError:  # a parent is missing: pathlib makes it, then tries again
            raise
        except FileExistsError:
            made.append(Path(path))
            raise
        made.append(Path(path))

    monkeypatch.setattr(os, "mkdir", counting)
    assert run(["tokenize", "--dataset", data, "--split", "dev", "--codebooks", cb, "--out", tok]) == 0
    utt_dirs = sorted((tok / "tokens").iterdir())
    assert len(utt_dirs) == len(load_dataset(data, ("dev",)).utterances["dev"])
    assert sorted(made) == sorted([tok, tok, tok / "tokens", *utt_dirs])  # --out again by run_metadata.json


def test_train_eval_roundtrip(cli_workspace, tmp_path):
    data = cli_workspace / "data"
    run_dir = tmp_path / "run"
    assert run(["train", "--dataset", data, "--config", cli_workspace / "train.json", "--out", run_dir]) == 0
    meta = json.loads((run_dir / "checkpoint" / "meta.json").read_text())
    assert meta["aug"] == "prosody" and meta["k"] == 8
    assert (run_dir / "history.json").is_file()

    ev = tmp_path / "ev"
    assert run(["eval", "--checkpoint", run_dir / "checkpoint", "--dataset", data, "--split", "test", "--out", ev]) == 0
    metrics = json.loads((ev / "metrics.json").read_text())
    assert 0.0 <= metrics["macro_f1"] <= 1.0
    assert len(metrics["per_class_f1"]) == 8
    csv_text = (ev / "row.csv").read_text()
    assert csv_text.splitlines()[0].startswith("layer_set,K,seed,aug,macro_f1")

    # evaluating the same checkpoint twice gives identical outputs
    ev2 = tmp_path / "ev2"
    assert run(["eval", "--checkpoint", run_dir / "checkpoint", "--dataset", data, "--split", "test", "--out", ev2]) == 0
    assert dir_digest(ev) == dir_digest(ev2)


def test_train_flag_overrides_and_continuous(cli_workspace, tmp_path):
    data = cli_workspace / "data"
    out = tmp_path / "cont"
    assert run([
        "train", "--dataset", data, "--layer-set", "3", "--continuous",
        "--epochs", 2, "--seed", 1, "--out", out,
    ]) == 0
    meta = json.loads((out / "checkpoint" / "meta.json").read_text())
    assert meta["k"] is None
    assert meta["train"]["seed"] == 1 and meta["train"]["epochs"] == 2


@pytest.mark.parametrize("layer_count", [4, 26])
def test_depth_relative_layer_sets_follow_the_dataset(tmp_path, capsys, layer_count):
    spec = tiny_spec(
        n_per_class=6,
        layer_count=layer_count,
        layer_informativeness=tuple(np.linspace(0.1, 1.0, layer_count)),
    )
    (tmp_path / "spec.json").write_text(json.dumps(spec.to_json()))
    data = tmp_path / "data"
    assert run(["gen", "--spec", tmp_path / "spec.json", "--out", data]) == 0
    top = layer_count - 1
    expected = {"all": list(range(layer_count)), "last_only": [top], "last8": list(range(top - 7, top + 1))}
    for name, layers in expected.items():
        out = tmp_path / name
        code = run(["train", "--dataset", data, "--layer-set", name, "--continuous", "--epochs", 1, "--out", out])
        if layers[0] < 0:  # fewer than eight layers
            assert code == 2 and "outside 0..3" in capsys.readouterr().err
            continue
        assert code == 0
        assert json.loads((out / "checkpoint" / "meta.json").read_text())["layers"] == layers
    # fixed-index sets still need their layers
    code = run(["train", "--dataset", data, "--layer-set", "sparse", "--continuous", "--epochs", 1, "--out", tmp_path / "sp"])
    assert code == (2 if layer_count < 24 else 0)


@pytest.fixture(scope="module")
def artifacts(cli_workspace):
    """A codebook directory and a checkpoint made from the shared dataset."""
    data, root = cli_workspace / "data", cli_workspace / "artifacts"
    assert run(["codebooks", "--dataset", data, "--layers", "3", "--k", 8, "--out", root / "cb"]) == 0
    assert run(["train", "--dataset", data, "--layer-set", "3", "--k", 8, "--epochs", 1, "--out", root / "tr"]) == 0
    return root


def test_manifest_that_is_not_an_object_exits_3(cli_workspace, artifacts, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(cli_workspace / "data", data)
    doc = json.loads((data / "manifest_dev.json").read_text())
    (data / "manifest_dev.json").write_text(json.dumps([doc]))
    argv = ["tokenize", "--dataset", data, "--split", "dev", "--codebooks", artifacts / "cb", "--out", tmp_path / "t"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "manifest_dev.json: expected object, got array" in err and "config" not in err


def test_eval_rejects_wrong_dataset(cli_workspace, tmp_path, capsys):
    data = cli_workspace / "data"
    other = tmp_path / "other_data"
    spec = tiny_spec(seed=77)
    (tmp_path / "spec2.json").write_text(json.dumps(spec.to_json()))
    assert run(["gen", "--spec", tmp_path / "spec2.json", "--out", other]) == 0
    run_dir = tmp_path / "run"
    assert run(["train", "--dataset", data, "--layer-set", "3", "--k", 8, "--epochs", 2, "--out", run_dir]) == 0
    code = run(["eval", "--checkpoint", run_dir / "checkpoint", "--dataset", other, "--split", "test", "--out", tmp_path / "ev"])
    assert code == 3
    err = capsys.readouterr().err
    assert str(run_dir / "checkpoint" / "meta.json") in err and str(other / "manifest_train.json") in err


def test_metadata_lists_every_output_file_but_run_metadata(tmp_path):
    out = tmp_path / "out"
    for rel in ("b.txt", "a/run_metadata.json", "a/z.csv", "a/b/c/deep.json", "a-b/x", "run_metadata.json"):
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        (out / rel).write_text(rel)
    (out / "empty").mkdir()
    cli._write_metadata(out, "test", [], {}, [0], 0.0)
    outputs = json.loads((out / "run_metadata.json").read_text())["outputs"]
    assert outputs == ["a-b/x", "a/b/c/deep.json", "a/z.csv", "b.txt"]
    assert outputs == sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file() and p.name != "run_metadata.json")


def test_sweep_outputs(cli_workspace, tmp_path):
    data = cli_workspace / "data"
    out = tmp_path / "sw"
    assert run(["sweep", "--dataset", data, "--grid", cli_workspace / "grid.json", "--out", out]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 1 seed row + 1 averaged row
    assert (out / "results.txt").is_file()
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["command"] == "sweep"
    assert "results.csv" in meta["outputs"]
    assert meta["versions"]["disq"]

    out2 = tmp_path / "sw2"
    assert run(["sweep", "--dataset", data, "--grid", cli_workspace / "grid.json", "--out", out2]) == 0
    assert dir_digest(out) == dir_digest(out2)


def test_sweep_exits_4_when_a_worker_process_dies(cli_workspace, tmp_path, capsys, monkeypatch):
    grid = tmp_path / "grid.json"  # one cell x two seeds: at most two worker processes start
    grid.write_text(json.dumps({"ks": [8], "layer_sets": ["3"], "seeds": [0, 1], "train": {"epochs": 1}}))
    real_train = sweep.train

    def train_or_die(train_items, dev_items, config):
        if config.seed == 1:
            os._exit(1)
        return real_train(train_items, dev_items, config)

    monkeypatch.setattr(sweep, "train", train_or_die)  # the forked workers inherit the patch
    out = tmp_path / "sw"
    assert run(["sweep", "--dataset", cli_workspace / "data", "--grid", grid, "--workers", 2, "--out", out]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: numeric: sweep worker process died")
    assert not (out / "results.csv").exists()
    assert not multiprocessing.active_children()


def test_codebooks_checks_k_before_reading_any_feature_file(cli_workspace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("disq.dataio.read_feature_file", lambda *a, **kw: pytest.fail("a feature file was read"))
    assert run(["codebooks", "--dataset", cli_workspace / "data", "--k", 0, "--out", tmp_path / "cb"]) == 2
    assert capsys.readouterr().err == "error: config: --k: must be >= 1\n"


def test_codebooks_and_train_outputs_do_not_depend_on_where_fits_ran(cli_workspace, tmp_path, monkeypatch):
    data = cli_workspace / "data"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    outputs = []
    for threads in (None, "1"):  # unpinned: in this process; pinned to one thread: three workers
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert sweep.fit_workers() == (1 if threads is None else 3)
        out = tmp_path / f"threads{threads}"
        argv = ["--dataset", data, "--k", 8]
        assert run(["codebooks", *argv, "--layers", "0,1,2,3", "--opensmile", "--out", out / "cb"]) == 0
        assert run(["train", *argv, "--layer-set", "1,3", "--aug", "prosody", "--epochs", 1, "--out", out / "tr"]) == 0
        assert not multiprocessing.active_children()
        outputs.append(dir_digest(out))
    assert outputs[0] == outputs[1]


def test_sweep_workers_need_fork(cli_workspace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: pytest.fail("the sweep started"))
    argv = ["sweep", "--dataset", cli_workspace / "data", "--grid", cli_workspace / "grid.json"]
    assert run(argv + ["--workers", 2, "--out", tmp_path / "sw"]) == 2
    assert capsys.readouterr().err.startswith("error: config: --workers: more than 1 needs the fork start method")


@pytest.mark.parametrize("layer_sets, bad", [(["2,3", "0,9"], 1), (["sparse"], 0)])
def test_sweep_rejects_layer_sets_the_dataset_lacks(
    cli_workspace, tmp_path, capsys, monkeypatch, layer_sets, bad
):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"ks": [8], "layer_sets": layer_sets, "seeds": [0], "train": {"epochs": 1}}))
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: pytest.fail("the sweep started"))
    assert run(["sweep", "--dataset", cli_workspace / "data", "--grid", grid, "--out", tmp_path / "sw"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: layer_sets[{bad}]:") and "outside 0..3" in err


def test_gradcheck_command(tmp_path, capsys):
    assert run(["gradcheck", "--seed", 0, "--out", tmp_path / "gc"]) == 0
    printed = capsys.readouterr().out
    assert "max_rel_err" in printed
    report = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())
    assert report["max_rel_err"] < 1e-3


def test_exit_codes(cli_workspace, tmp_path, capsys):
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text('{"n_per_class": 0}')
    assert run(["gen", "--spec", bad_spec, "--out", tmp_path / "x"]) == 2
    assert "error: config:" in capsys.readouterr().err

    assert run(["train", "--dataset", tmp_path / "missing", "--layer-set", "3", "--out", tmp_path / "y"]) == 3
    assert "error: data:" in capsys.readouterr().err

    bad_grid = tmp_path / "bad_grid.json"
    bad_grid.write_text('{"ks": [8], "layer_sets": ["2,3"], "seeds": [0], "augmentations": ["bogus"]}')
    assert run(["sweep", "--dataset", cli_workspace / "data", "--grid", bad_grid, "--out", tmp_path / "z"]) == 2

    # k larger than the train frame count is a data error
    assert run(["codebooks", "--dataset", cli_workspace / "data", "--layers", "3", "--k", 10**6, "--out", tmp_path / "w"]) == 3

    # a grid without the "none" baseline is a config error
    no_baseline = tmp_path / "no_baseline.json"
    no_baseline.write_text('{"ks": [8], "layer_sets": ["3"], "seeds": [0], "augmentations": ["prosody"]}')
    assert run(["sweep", "--dataset", cli_workspace / "data", "--grid", no_baseline, "--out", tmp_path / "v"]) == 2


FAILURE_TABLE = [
    (cli.ConfigError, 2, "config"),
    (cli.DataError, 3, "data"),
    (cli.dataio.FeatureFileError, 3, "data"),
    (OSError, 3, "data"),
    (FileExistsError, 3, "data"),
    (ValueError, 3, "data"),
    (cli.NumericError, 4, "numeric"),
    (FloatingPointError, 4, "numeric"),
    (BrokenProcessPool, 4, "numeric"),
]


@pytest.mark.parametrize("exc_type, code, category", FAILURE_TABLE)
def test_every_failure_exits_through_one_table(tmp_path, capsys, monkeypatch, exc_type, code, category):
    def fail(args, argv):
        raise exc_type("planted")

    monkeypatch.setattr(cli, "cmd_gradcheck", fail)
    assert run(["gradcheck", "--out", tmp_path / "gc"]) == code
    assert capsys.readouterr().err == f"error: {category}: planted\n"


def test_an_exception_outside_the_table_keeps_its_traceback(tmp_path, monkeypatch):
    def fail(args, argv):
        raise TypeError("a bug")

    monkeypatch.setattr(cli, "cmd_gradcheck", fail)
    with pytest.raises(TypeError, match="a bug"):
        run(["gradcheck", "--out", tmp_path / "gc"])


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="fit workers need fork")
@pytest.mark.parametrize("command, args", [("codebooks", ["--layers", "2,3"]), ("train", ["--layer-set", "2,3"])])
def test_a_dead_fit_worker_exits_4(cli_workspace, tmp_path, capsys, monkeypatch, command, args):
    parent = os.getpid()

    def fit_or_die(*a, **kw):
        if os.getpid() != parent:
            os._exit(1)
        pytest.fail("a fit ran in this process")

    for module in (cli, sweep):  # two fit workers, whatever the environment pins
        monkeypatch.setattr(module, "fit_workers", lambda: 2)
    monkeypatch.setattr(sweep, "kmeans_fit", fit_or_die)  # the forked workers inherit the patch
    argv = [command, "--dataset", cli_workspace / "data", *args, "--k", 8, "--out", tmp_path / "out"]
    assert run(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: numeric:")
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_an_out_that_names_a_file_exits_3(tmp_path, capsys, monkeypatch, sub):
    monkeypatch.setattr(cli, "cmd_gradcheck", lambda args, out: pytest.fail("the command ran"))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run(["gradcheck", "--out", taken / sub]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: data:") and str(taken) in err[0]


@pytest.mark.parametrize(
    "command, code",
    [("gen", 2), ("codebooks", 3), ("tokenize", 3), ("train", 3), ("eval", 3), ("sweep", 2), ("gradcheck", 2)],
)
def test_a_failed_command_leaves_no_out(cli_workspace, artifacts, tmp_path, capsys, command, code):
    spec, grid, missing = tmp_path / "spec.json", tmp_path / "grid.json", tmp_path / "missing"
    spec.write_text(json.dumps(tiny_spec(feature_dim=2).to_json()))  # no room for 8 class directions
    grid.write_text(json.dumps({"ks": [8], "layer_sets": ["9"], "seeds": [0]}))  # the dataset has 4 layers
    args = {
        "gen": ["--spec", spec],
        "codebooks": ["--dataset", missing],
        "tokenize": ["--dataset", missing, "--codebooks", artifacts / "cb"],
        "train": ["--dataset", missing],
        "eval": ["--dataset", missing, "--checkpoint", artifacts / "tr" / "checkpoint"],
        "sweep": ["--dataset", cli_workspace / "data", "--grid", grid],
        "gradcheck": ["--seed", -1],
    }[command]
    out = tmp_path / "out"
    assert run([command, *args, "--out", out]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


def test_a_sweep_whose_every_cell_fails_prints_one_line(cli_workspace, tmp_path, capsys):
    grid = tmp_path / "grid.json"  # more clusters than the train split has frames
    grid.write_text(json.dumps({"ks": [100000], "layer_sets": ["3"], "seeds": [0, 1], "train": {"epochs": 1}}))
    out = tmp_path / "sw"
    assert run(["sweep", "--dataset", cli_workspace / "data", "--grid", grid, "--out", out]) == 4
    err = capsys.readouterr().err.splitlines()
    first = "3 K=100000 aug=none seed=0: ValueError: need at least k=100000 points"
    assert len(err) == 1 and err[0].startswith(f"error: numeric: every sweep cell failed (2 runs); first: {first}"), err
    assert not out.exists()


def test_a_failing_gradcheck_keeps_its_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "gradient_check", lambda seed: 1.0)
    out = tmp_path / "gc"
    assert run(["gradcheck", "--out", out]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: numeric: gradient check failed: 1.000000e+00 >= 0.001\n"
    assert json.loads((out / "gradcheck.json").read_text())["max_rel_err"] == 1.0
    assert sorted(p.name for p in out.iterdir()) == ["gradcheck.json"]  # no run_metadata.json


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--checkpoint", "ckpt", "--dataset", "data", "--split", "bogus"], "argument --split: invalid choice"),
        (["train", "--layer-set", "3"], "the following arguments are required: --dataset"),
        (["codebooks", "--dataset", "data", "--k", "notint"], "argument --k: invalid int value: 'notint'"),
        (["bogus"], "invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_errors_are_config_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run(argv + (["--out", out] if argv else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config:") and message in err[0], err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["--help"])
    assert exit_info.value.code == 0
    assert "gradcheck" in capsys.readouterr().out


def test_a_report_without_its_baseline_keeps_the_failure_list(cli_workspace, tmp_path, capsys, monkeypatch):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"ks": [8], "layer_sets": ["3"], "seeds": [0], "augmentations": ["none", "prosody"],
                                "train": {"epochs": 1}}))
    real_run_cell = sweep.run_cell

    def baseline_fails(ds, layer_set, k, seed, cache, train_config, aug="none", codebook_seed=0):
        if aug == "none":
            return sweep.CellFailure(k, layer_set, aug, seed, "ValueError: planted")
        return real_run_cell(ds, layer_set, k, seed, cache, train_config, aug, codebook_seed)

    monkeypatch.setattr(sweep, "run_cell", baseline_fails)
    out = tmp_path / "sw"
    assert run(["sweep", "--dataset", cli_workspace / "data", "--grid", grid, "--out", out]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: data: missing augmentation baseline for ('3', 8)"
    assert (out / "failures.txt").read_text() == "3 K=8 aug=none seed=0: ValueError: planted\n"
    assert (out / "results.csv").is_file() and not (out / "aug_report.csv").exists()


def test_tokenize_rejects_codebooks_the_dataset_cannot_use(cli_workspace, tmp_path, capsys):
    data = cli_workspace / "data"
    cb = tmp_path / "cb"
    assert run(["codebooks", "--dataset", data, "--layers", "3", "--k", 8, "--out", cb]) == 0

    # layer-5 codebooks against the 4-layer dataset
    wide = tmp_path / "wide"
    shutil.copytree(cb, wide)
    for suffix in (".dsqf", ".json"):
        (wide / f"layer_03{suffix}").rename(wide / f"layer_05{suffix}")
    index = json.loads((cb / "index.json").read_text())
    (wide / "index.json").write_text(json.dumps(dict(index, layers=[5])))
    assert run(["tokenize", "--dataset", data, "--codebooks", wide, "--out", tmp_path / "t1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and "[5]" in err

    # an index without its layer list
    partial = tmp_path / "partial"
    shutil.copytree(cb, partial)
    (partial / "index.json").write_text(json.dumps({k: v for k, v in index.items() if k != "layers"}))
    assert run(["tokenize", "--dataset", data, "--codebooks", partial, "--out", tmp_path / "t2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and "layers" in err


def test_paralinguistic_fits_need_opensmile_streams(cli_workspace, tmp_path, capsys):
    data = tmp_path / "no_osm"
    shutil.copytree(cli_workspace / "data", data)
    manifest = json.loads((data / "manifest_train.json").read_text())
    for rec in manifest["records"]:
        rec["opensmile"] = None
    (data / "manifest_train.json").write_text(json.dumps(manifest))

    message = "error: data: no opensmile streams in the train split"
    argv = ["codebooks", "--dataset", data, "--layers", "3", "--k", 8, "--opensmile", "--out", tmp_path / "cb"]
    assert run(argv) == 3
    assert message in capsys.readouterr().err
    argv = ["train", "--dataset", data, "--layer-set", "3", "--k", 8, "--aug", "prosody", "--out", tmp_path / "tr"]
    assert run(argv) == 3
    assert message in capsys.readouterr().err


def test_run_dir_env_var(cli_workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("DISQ_RUN_DIR", str(tmp_path / "runroot"))
    monkeypatch.chdir(tmp_path)
    assert run(["gradcheck", "--seed", 1]) == 0
    assert (tmp_path / "runroot" / "gradcheck" / "gradcheck.json").is_file()


@pytest.mark.parametrize("split", ["train", "test"])
def test_batched_tokenize_equals_per_utterance_encoding(cli_workspace, tmp_path, split):
    from disq import dataio, persist
    from disq.dataio import FeatureSequence
    from disq.quantize import assign, quantize_opensmile, reconstruct

    data, cb = cli_workspace / "data", tmp_path / "cb"
    assert run(["codebooks", "--dataset", data, "--layers", "1,3", "--k", 8, "--opensmile", "--out", cb]) == 0
    tok = tmp_path / "tok"
    assert run(["tokenize", "--dataset", data, "--split", split, "--codebooks", cb, "--out", tok]) == 0

    layer_books = {layer: persist.load_codebook(cb / f"layer_{layer:02d}") for layer in (1, 3)}
    osm_books = {c.name: persist.load_codebook(cb / f"osm_{c.name}") for c in OPENSMILE_CATEGORIES.categories}
    manifest = dataio.load_split(data, split)
    oracle = tmp_path / "oracle.dsqf"
    for rec in manifest.records:
        utt = dataio.load_utterance(manifest, rec)
        utt_dir = tok / "tokens" / rec.utt_id
        for layer, book in layer_books.items():
            tokens = assign(book, utt.layers[layer])
            doc = {"stream_id": book.stream_id, "k": book.k, "indices": tokens.indices.tolist()}
            assert (utt_dir / f"layer_{layer:02d}.tokens.json").read_text() == json.dumps(doc, sort_keys=True) + "\n"
            dataio.write_feature_file(reconstruct(book, tokens), oracle)
            assert (utt_dir / f"layer_{layer:02d}.recon.dsqf").read_bytes() == oracle.read_bytes()
        tokens = quantize_opensmile(utt.opensmile, osm_books)
        doc = {name: {"k": seq.k, "indices": seq.indices.tolist()} for name, seq in tokens.items()}
        assert (utt_dir / "opensmile.tokens.json").read_text() == json.dumps(doc, sort_keys=True) + "\n"
        recon = np.concatenate([osm_books[n].centroids.astype(np.float32)[t.indices] for n, t in tokens.items()], axis=1)
        dataio.write_feature_file(FeatureSequence(recon), oracle)
        assert (utt_dir / "opensmile.recon.dsqf").read_bytes() == oracle.read_bytes()
    assert sorted(p.name for p in (tok / "tokens").iterdir()) == sorted(r.utt_id for r in manifest.records)


def test_tokenize_an_empty_split(tmp_path):
    data = tmp_path / "data"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tiny_spec(n_per_class=4).to_json()))
    assert run(["gen", "--spec", spec, "--out", data]) == 0
    assert json.loads((data / "manifest_test.json").read_text())["records"] == []
    cb = tmp_path / "cb"
    assert run(["codebooks", "--dataset", data, "--layers", "3", "--k", 4, "--out", cb]) == 0
    assert run(["tokenize", "--dataset", data, "--split", "test", "--codebooks", cb, "--out", tmp_path / "tok"]) == 0
    assert not (tmp_path / "tok" / "tokens").exists()


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc.pop("feature_dim"), "feature_dim: missing required field"),
        (lambda doc: doc["records"][1].update(label=2.7), "records[1].label: expected integer"),
        (lambda doc: doc["records"][0].update(label=True), "records[0].label: expected integer"),
        (lambda doc: doc.update(layers=4), "layers: unknown field"),
        (lambda doc: doc["records"][0].update(layers="l.dsqf"), "records[0].layers: expected array"),
        (
            lambda doc: doc["records"][1]["layers"].__setitem__(2, 7),
            "records[1].layers[2]: expected string, got integer",
        ),
        (lambda doc: doc.update(version=2), "version: expected 1, got 2"),
        (lambda doc: doc["records"][1].update(label=-1), "records[1].label: -1 is not in 0..7"),
        (lambda doc: doc["records"][0].update(label=9), "records[0].label: 9 is not in 0..7"),
        (lambda doc: doc["records"][2]["layers"].pop(), "records[2].layers: 3 layer paths, expected 4"),
    ],
    ids=[
        "no_feature_dim", "float_label", "bool_label", "unknown_field", "string_layers", "int_layer_path",
        "version_2", "negative_label", "label_9", "three_layer_paths",
    ],
)
def test_malformed_manifest_exits_3_naming_the_field(cli_workspace, artifacts, tmp_path, capsys, edit, field):
    data = tmp_path / "data"
    shutil.copytree(cli_workspace / "data", data)
    doc = json.loads((data / "manifest_dev.json").read_text())
    edit(doc)
    (data / "manifest_dev.json").write_text(json.dumps(doc))
    argv = ["tokenize", "--dataset", data, "--split", "dev", "--codebooks", artifacts / "cb", "--out", tmp_path / "t"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and f"manifest_dev.json: {field}" in err


@pytest.mark.parametrize(
    "artifact, doc_name, field",
    [
        ("cb", "layer_03.json", "stream_id"),
        ("tr", "checkpoint/meta.json", "train_hash"),
        ("tr", "checkpoint/meta.json", "layers"),
        ("tr", "checkpoint/meta.json", "train.seed"),
    ],
)
def test_damaged_artifact_exits_3_naming_file_and_field(
    cli_workspace, artifacts, tmp_path, capsys, artifact, doc_name, field
):
    damaged = tmp_path / artifact
    shutil.copytree(artifacts / artifact, damaged)
    doc = json.loads((damaged / doc_name).read_text())
    owner, _, key = field.rpartition(".")
    del (doc[owner] if owner else doc)[key]
    (damaged / doc_name).write_text(json.dumps(doc))
    data, out = cli_workspace / "data", tmp_path / "out"
    if artifact == "cb":
        argv = ["tokenize", "--dataset", data, "--codebooks", damaged, "--out", out]
    else:
        argv = ["eval", "--checkpoint", damaged / "checkpoint", "--dataset", data, "--out", out]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and f"{damaged / doc_name}: {field}: missing required field" in err


def test_stored_documents_keep_their_key_sets(cli_workspace, artifacts):
    """The keys of each JSON document disq writes and reads back: renaming a schema field changes a file format."""

    def keys(path):
        return sorted(json.loads(path.read_text()))

    manifest = json.loads((cli_workspace / "data" / "manifest_dev.json").read_text())
    assert sorted(manifest) == ["feature_dim", "layer_count", "records", "split", "version"]
    assert {tuple(sorted(rec)) for rec in manifest["records"]} == {("label", "layers", "opensmile", "utt_id")}
    assert keys(artifacts / "cb" / "index.json") == ["k", "layers", "opensmile", "seed"]
    book = ["final_distortion", "iterations_run", "k", "seed", "stream_id"]
    assert keys(artifacts / "cb" / "layer_03.json") == sorted(book + ["train_frames"])
    assert keys(artifacts / "tr" / "checkpoint" / "codebooks" / "layer_03.json") == book  # an exact book's
    meta = json.loads((artifacts / "tr" / "checkpoint" / "meta.json").read_text())
    assert sorted(meta) == [
        "aug", "best_epoch", "codebook_seed", "dev_macro_f1", "format", "k", "layer_set", "layers", "train", "train_hash",
    ]
    assert sorted(meta["train"]) == [
        "adam_eps", "batch_size", "beta1", "beta2", "clip_norm", "epochs", "hidden", "learning_rate", "seed",
    ]


def _drop(key):
    return lambda doc: doc.pop(key)


@pytest.mark.parametrize(
    "artifact, doc_name, edit, field",
    [
        ("cb", "index.json", lambda doc: doc.update(k="8"), "k: expected integer, got string"),
        ("cb", "index.json", lambda doc: doc.update(opensmile=1), "opensmile: expected boolean, got integer"),
        ("cb", "index.json", lambda doc: doc.update(K=8), "K: unknown field"),
        ("cb", "index.json", _drop("seed"), "seed: missing required field"),
        ("cb", "layer_03.json", lambda doc: doc.update(final_distortion="0.5"), "final_distortion: expected number"),
        ("cb", "layer_03.json", lambda doc: doc.update(train_frames=1.5), "train_frames: expected integer"),
        ("cb", "layer_03.json", lambda doc: doc.update(dead_codes=0), "dead_codes: unknown field"),
        ("tr", "checkpoint/codebooks/layer_03.json", lambda doc: doc.update(seed=0.0), "seed: expected integer"),
        ("tr", "checkpoint/codebooks/layer_03.json", _drop("iterations_run"), "iterations_run: missing required field"),
        ("tr", "checkpoint/meta.json", lambda doc: doc.update(layers=["3"]), "layers[0]: expected integer"),
        ("tr", "checkpoint/meta.json", lambda doc: doc.update(k="8"), "k: expected integer, got string"),
        ("tr", "checkpoint/meta.json", lambda doc: doc.update(train=[0]), "train: expected object, got array"),
        ("tr", "checkpoint/meta.json", lambda doc: doc["train"].update(seed="0"), "train.seed: expected integer"),
        ("tr", "checkpoint/meta.json", lambda doc: doc.update(epochs=3), "epochs: unknown field"),
        # value rules: a meta.json keeps the train config's, an index.json's layers are a layer set
        ("tr", "checkpoint/meta.json", lambda doc: doc.update(layers=[3, 1, 0, 2]), "layers: layer indices must be"),
        ("tr", "checkpoint/meta.json", lambda doc: doc.update(layers=[1, 1, 2, 3]), "layers: layer indices must be"),
        ("tr", "checkpoint/meta.json", lambda doc: doc.update(layers=[]), "layers: layer set is empty"),
        ("tr", "checkpoint/meta.json", lambda doc: doc.update(aug="bogus"), "aug: unknown augmentation 'bogus'"),
        ("tr", "checkpoint/meta.json", lambda doc: doc.update(k=0), "k must be >= 1"),
        ("tr", "checkpoint/meta.json", lambda doc: doc.update(codebook_seed=-1), "codebook_seed must be >= 0"),
        ("cb", "index.json", lambda doc: doc.update(layers=[]), "layers: layer set is empty"),
        ("cb", "index.json", lambda doc: doc.update(layers=[1, 1]), "layers: layer indices must be"),
        ("cb", "index.json", lambda doc: doc.update(k=0), "k must be >= 1"),
        ("cb", "index.json", lambda doc: doc.update(seed=-1), "seed must be >= 0"),
    ],
    ids=[
        "index_k", "index_opensmile", "index_unknown", "index_missing",
        "sidecar_distortion", "sidecar_train_frames", "sidecar_unknown",
        "exact_sidecar_seed", "exact_sidecar_missing",
        "meta_layers", "meta_k", "meta_train", "meta_train_seed", "meta_unknown",
        "meta_layers_unordered", "meta_layers_repeated", "meta_layers_empty", "meta_aug", "meta_k_0",
        "meta_codebook_seed", "index_layers_empty", "index_layers_repeated", "index_k_0", "index_seed",
    ],
)
def test_stored_document_with_a_wrong_field_exits_3_naming_file_and_field(
    cli_workspace, artifacts, tmp_path, capsys, artifact, doc_name, edit, field
):
    damaged = tmp_path / artifact
    shutil.copytree(artifacts / artifact, damaged)
    doc = json.loads((damaged / doc_name).read_text())
    edit(doc)
    (damaged / doc_name).write_text(json.dumps(doc))
    data, out = cli_workspace / "data", tmp_path / "out"
    if artifact == "cb":
        argv = ["tokenize", "--dataset", data, "--codebooks", damaged, "--out", out]
    else:
        argv = ["eval", "--checkpoint", damaged / "checkpoint", "--dataset", data, "--out", out]
    assert run(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: data:") and f"{damaged / doc_name}: {field}" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("book_dir", ["missing", "a_file", "empty"])
def test_tokenize_without_an_index_exits_3_naming_it(cli_workspace, tmp_path, capsys, book_dir):
    path = tmp_path / book_dir
    if book_dir == "a_file":
        path.write_text("{}")
    elif book_dir == "empty":
        path.mkdir()
    argv = ["tokenize", "--dataset", cli_workspace / "data", "--codebooks", path, "--out", tmp_path / "t"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and str(path / "index.json") in err


@pytest.mark.parametrize("split", ["dev", "train"])
def test_a_split_that_lists_an_utterance_twice_exits_3(cli_workspace, artifacts, tmp_path, capsys, split):
    data = tmp_path / "data"
    shutil.copytree(cli_workspace / "data", data)
    doc = json.loads((data / f"manifest_{split}.json").read_text())
    utt_id = doc["records"][0]["utt_id"]
    doc["records"][1]["utt_id"] = utt_id  # its own files, another utterance's id
    (data / f"manifest_{split}.json").write_text(json.dumps(doc))
    message = f"{data / f'manifest_{split}.json'}: utt_id {utt_id!r} is listed twice"
    if split == "dev":
        argv = ["tokenize", "--dataset", data, "--split", "dev", "--codebooks", artifacts / "cb", "--out", tmp_path / "t"]
        assert run(argv) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t" / "tokens").exists()
        argv = ["eval", "--checkpoint", artifacts / "tr" / "checkpoint", "--dataset", data, "--split", "dev"]
    else:
        argv = ["train", "--dataset", data, "--layer-set", "3", "--k", 8, "--epochs", 1]
    assert run(argv + ["--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and message in err


@pytest.mark.parametrize("layer", [9, -1])
def test_eval_rejects_checkpoint_layers_the_dataset_lacks(cli_workspace, artifacts, tmp_path, capsys, layer):
    damaged = tmp_path / "tr"
    shutil.copytree(artifacts / "tr", damaged)
    meta_path = damaged / "checkpoint" / "meta.json"
    meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "layers": [layer]}))
    argv = ["eval", "--checkpoint", damaged / "checkpoint", "--dataset", cli_workspace / "data", "--out", tmp_path / "out"]
    assert run(argv) == 3
    assert f"layers [{layer}] are not in the dataset's 0..3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def aug_run(cli_workspace):
    """A quantized checkpoint with the paralinguistic branch (layers 0-3, K=8, prosody)."""
    run_dir = cli_workspace / "aug_run"
    assert run(["train", "--dataset", cli_workspace / "data", "--config", cli_workspace / "train.json", "--out", run_dir]) == 0
    return run_dir / "checkpoint"


def test_checkpoint_codebooks_are_the_ones_train_fitted(cli_workspace, aug_run, artifacts):
    ds, cache = load_dataset(cli_workspace / "data"), CodebookCache()
    expected = {f"layer_{l:02d}": cache.layer_codebook(ds, l, 8, 0) for l in range(4)}
    expected["osm_prosody"] = cache.osm_codebooks(ds, 0)["prosody"]  # only the category its aug uses
    book_dir = aug_run / "codebooks"
    assert sorted(p.name for p in book_dir.iterdir()) == sorted(
        f"{stem}{suffix}" for stem in expected for suffix in (".json", ".npy")
    )
    for stem, cb in expected.items():
        saved = np.load(book_dir / f"{stem}.npy", allow_pickle=False)
        assert saved.dtype == np.float64 and saved.tobytes() == cb.centroids.tobytes()
        sidecar = json.loads((book_dir / f"{stem}.json").read_text())
        assert (sidecar["stream_id"], sidecar["k"], sidecar["seed"]) == (cb.stream_id, cb.k, 0)
    # without the paralinguistic branch only the layer books are kept
    assert sorted(p.name for p in (artifacts / "tr" / "checkpoint" / "codebooks").iterdir()) == [
        "layer_03.json",
        "layer_03.npy",
    ]


def test_eval_fits_no_codebook(cli_workspace, aug_run, tmp_path, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("eval fitted a codebook")

    monkeypatch.setattr("disq.sweep.kmeans_fit", no_fit)
    assert run(["eval", "--checkpoint", aug_run, "--dataset", cli_workspace / "data", "--out", tmp_path / "ev"]) == 0


@pytest.fixture(scope="module")
def continuous_run(cli_workspace):
    """A continuous checkpoint (layers 2-3)."""
    run_dir = cli_workspace / "continuous_run"
    argv = ["train", "--dataset", cli_workspace / "data", "--layer-set", "2,3", "--continuous", "--epochs", 2]
    assert run(argv + ["--out", run_dir]) == 0
    return run_dir / "checkpoint"


@pytest.mark.parametrize("which", ["quantized", "augmented", "continuous"])
def test_eval_on_dev_gives_the_dev_macro_f1_train_recorded(cli_workspace, artifacts, request, tmp_path, which):
    ckpt = {
        "quantized": lambda: artifacts / "tr" / "checkpoint",
        "augmented": lambda: request.getfixturevalue("aug_run"),
        "continuous": lambda: request.getfixturevalue("continuous_run"),
    }[which]()
    argv = ["eval", "--checkpoint", ckpt, "--dataset", cli_workspace / "data", "--split", "dev", "--out", tmp_path / "ev"]
    assert run(argv) == 0
    metrics = json.loads((tmp_path / "ev" / "metrics.json").read_text())
    assert metrics["macro_f1"] == json.loads((ckpt / "meta.json").read_text())["dev_macro_f1"]


@pytest.mark.parametrize("fmt", [None, 1])
def test_checkpoint_of_another_format_exits_3_naming_meta_json(cli_workspace, artifacts, tmp_path, capsys, fmt):
    damaged = tmp_path / "checkpoint"
    shutil.copytree(artifacts / "tr" / "checkpoint", damaged)
    meta = json.loads((damaged / "meta.json").read_text())
    del meta["format"]
    (damaged / "meta.json").write_text(json.dumps(meta if fmt is None else dict(meta, format=fmt)))
    assert run(["eval", "--checkpoint", damaged, "--dataset", cli_workspace / "data", "--out", tmp_path / "ev"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and f"{damaged / 'meta.json'}: checkpoint format {fmt}, not 2" in err


def _edit_sidecar(**changes):
    def edit(base):
        doc = json.loads(base.with_suffix(".json").read_text())
        doc.update(changes)
        base.with_suffix(".json").write_text(json.dumps(doc))

    return edit


def _edit_centroids(change):
    def edit(base):
        path = base.with_suffix(".npy")
        np.save(path, change(np.load(path, allow_pickle=False)), allow_pickle=False)

    return edit


def _remove_book(base):
    base.with_suffix(".json").unlink()
    base.with_suffix(".npy").unlink()


def _nan_row(centroids):
    centroids[-1, 0] = np.nan
    return centroids


def _empty_npy(base):
    Path(f"{base}.npy").write_bytes(b"")


def _edit_tensor(change):  # a parameter tensor's name has a dot, so with_suffix would cut it
    def edit(base):
        path = Path(f"{base}.npy")
        np.save(path, change(np.load(path, allow_pickle=False)), allow_pickle=False)

    return edit


@pytest.mark.parametrize(
    "stem, edit",
    [
        pytest.param("codebooks/layer_02", _edit_sidecar(k=9), id="wrong_k"),
        pytest.param("codebooks/layer_02", _edit_sidecar(seed=1), id="wrong_seed"),
        pytest.param("codebooks/osm_prosody", _edit_sidecar(stream_id="osm:spectral"), id="wrong_stream_id"),
        pytest.param("codebooks/osm_prosody", _remove_book, id="missing"),  # a book eval needs
        pytest.param("codebooks/layer_00", _edit_centroids(_nan_row), id="nan_centroid"),
        pytest.param("codebooks/layer_01", _edit_centroids(lambda c: c[:, :-1]), id="narrow_centroids"),
        pytest.param("codebooks/layer_02", _empty_npy, id="empty_centroids"),
        pytest.param("params/head.w1", _empty_npy, id="empty_tensor"),
        # the paralinguistic tensors load all together or not at all
        pytest.param("params/fusion.mod_gain_osm", lambda base: Path(f"{base}.npy").unlink(), id="modality_gap"),
        # each tensor's shape follows from the sizes the checkpoint implies
        pytest.param("params/head.w1", _edit_tensor(lambda w: w[:, :-1]), id="narrow_tensor"),
        pytest.param("params/fusion.attn_w", _edit_tensor(lambda w: w[:1]), id="short_tensor"),
    ],
)
def test_damaged_checkpoint_codebook_exits_3_naming_the_file(cli_workspace, aug_run, tmp_path, capsys, stem, edit):
    """A damaged or missing book or parameter tensor of the checkpoint."""
    damaged = tmp_path / "checkpoint"
    shutil.copytree(aug_run, damaged)
    edit(damaged / stem)
    assert run(["eval", "--checkpoint", damaged, "--dataset", cli_workspace / "data", "--out", tmp_path / "ev"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and str(damaged / stem) in err


def test_eval_and_tokenize_read_only_the_feature_files_they_use(cli_workspace, tmp_path, monkeypatch, capsys):
    from disq import dataio

    data = cli_workspace / "data"
    read = []
    real_read = dataio.read_feature_file

    def spy(path, *args, **kwargs):
        read.append(Path(path))
        return real_read(path, *args, **kwargs)

    def files(split, layers, opensmile=True):
        manifest = dataio.load_split(data, split)
        return {
            manifest.root / rel
            for rec in manifest.records
            for rel in [rec.layers[l] for l in layers] + ([rec.opensmile] if opensmile else [])
        }

    def reads(argv):
        read.clear()
        assert run(argv) == 0
        return {p for p in read if p.is_relative_to(data)}

    monkeypatch.setattr("disq.dataio.read_feature_file", spy)
    # codebooks, train and sweep read only their layer set's files (sweep: the union of its sets),
    # and opensmile files only when they fit or use opensmile books
    cb, cb_layers = tmp_path / "cb", tmp_path / "cb_layers"
    assert reads(["codebooks", "--dataset", data, "--layers", "1,3", "--k", 8, "--opensmile", "--out", cb]) == files(
        "train", (1, 3)
    )
    assert reads(["codebooks", "--dataset", data, "--layers", "1,3", "--k", 8, "--out", cb_layers]) == files(
        "train", (1, 3), opensmile=False
    )
    train_argv = ["train", "--dataset", data, "--layer-set", "1,3", "--k", 8, "--epochs", 1]
    assert reads(train_argv + ["--aug", "prosody", "--out", tmp_path / "run"]) == files("train", (1, 3)) | files(
        "dev", (1, 3)
    )
    assert reads(train_argv + ["--aug", "none", "--out", tmp_path / "run_none"]) == files(
        "train", (1, 3), opensmile=False
    ) | files("dev", (1, 3), opensmile=False)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"ks": [8], "layer_sets": ["1,3"], "seeds": [0], "train": {"epochs": 1}}))
    sweep_argv = ["sweep", "--dataset", data, "--grid", grid, "--out", tmp_path / "sw"]
    every_layer_file = set().union(*(files(split, (1, 3), opensmile=False) for split in ("train", "dev", "test")))
    assert reads(sweep_argv) == every_layer_file
    # a sweep over several layer sets reads their union
    grid.write_text(json.dumps({"ks": [8], "layer_sets": ["3", "1"], "seeds": [0], "train": {"epochs": 1}}))
    assert reads(sweep_argv[:-1] + [tmp_path / "sw2"]) == every_layer_file
    # and one augmented cell makes it read opensmile
    grid.write_text(
        json.dumps(
            {"ks": [8], "layer_sets": ["1,3"], "seeds": [0], "augmentations": ["none", "prosody"], "train": {"epochs": 1}}
        )
    )
    assert reads(sweep_argv[:-1] + [tmp_path / "sw3"]) == files("train", (1, 3)) | files("dev", (1, 3)) | files(
        "test", (1, 3)
    )

    ckpt, bookless = tmp_path / "run" / "checkpoint", tmp_path / "bookless"
    shutil.copytree(ckpt, bookless)
    shutil.rmtree(bookless / "codebooks")
    eval_argv = ["eval", "--dataset", data, "--split", "dev"]
    assert reads(eval_argv + ["--checkpoint", ckpt, "--out", tmp_path / "ev"]) == files("dev", (1, 3))
    # a quantized checkpoint without its codebooks exits 3 naming the first book it lacks
    capsys.readouterr()
    assert run(eval_argv + ["--checkpoint", bookless, "--out", tmp_path / "ev_bookless"]) == 3
    assert str(bookless / "codebooks" / "layer_01") in capsys.readouterr().err
    none_ckpt = tmp_path / "run_none" / "checkpoint"
    assert reads(eval_argv + ["--checkpoint", none_ckpt, "--out", tmp_path / "ev_none"]) == files(
        "dev", (1, 3), opensmile=False
    )
    tok_argv = ["tokenize", "--dataset", data, "--split", "test", "--out", tmp_path / "tok"]
    assert reads(tok_argv + ["--codebooks", cb]) == files("test", (1, 3))
    tok_argv[-1] = tmp_path / "tok_layers"
    assert reads(tok_argv + ["--codebooks", cb_layers]) == files("test", (1, 3), opensmile=False)


def test_tokenize_rejects_a_book_the_index_does_not_name(cli_workspace, tmp_path, capsys):
    data = cli_workspace / "data"
    for seed in (0, 1):
        argv = ["codebooks", "--dataset", data, "--layers", "2,3", "--k", 8, "--seed", seed, "--out", tmp_path / f"cb{seed}"]
        assert run(argv) == 0
    for suffix in (".dsqf", ".json"):  # a seed-1 book copied into the seed-0 set
        shutil.copy(tmp_path / "cb1" / f"layer_03{suffix}", tmp_path / "cb0" / f"layer_03{suffix}")
    argv = ["tokenize", "--dataset", data, "--split", "dev", "--codebooks", tmp_path / "cb0", "--out", tmp_path / "tok"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and f"{tmp_path / 'cb0' / 'layer_03.json'}: holds" in err
    assert "'seed': 1" in err


def test_tokenize_writes_the_frames_prepare_items_builds(cli_workspace, tmp_path):
    from disq import persist
    from disq.fusion import resample
    from disq.model import token_table
    from disq.sweep import prepare_items

    data, cb, tok = cli_workspace / "data", tmp_path / "cb", tmp_path / "tok"
    assert run(["codebooks", "--dataset", data, "--layers", "1,3", "--k", 8, "--opensmile", "--out", cb]) == 0
    assert run(["tokenize", "--dataset", data, "--split", "dev", "--codebooks", cb, "--out", tok]) == 0

    ds, cache = load_dataset(data, ("dev",), (1, 3)), CodebookCache()
    layer_books = {layer: persist.load_codebook(cb / f"layer_{layer:02d}") for layer in (1, 3)}
    books = {("layer", layer, 8, 0): book for layer, book in layer_books.items()}
    for c in OPENSMILE_CATEGORIES.categories:
        books["osm", c.name, c.k, 0] = persist.load_codebook(cb / f"osm_{c.name}")
    cache.hold(ds, books)
    items = prepare_items(ds, "dev", (1, 3), 8, cache, 0, "all")
    assert items
    for item in items:
        utt_dir = tok / "tokens" / item.utt_id
        for j, layer in enumerate((1, 3)):
            written = json.loads((utt_dir / f"layer_{layer:02d}.tokens.json").read_text())["indices"]
            assert written == item.tokens[j].tolist()
            payload = (utt_dir / f"layer_{layer:02d}.recon.dsqf").read_bytes()[16:]  # after the DSQF header
            assert payload == layer_books[layer].centroids.astype("<f4")[item.tokens[j]].tobytes()
            assert item.tables[j].tobytes() == token_table(layer_books[layer].centroids).tobytes()
        osm = read_feature_file(utt_dir / "opensmile.recon.dsqf").frames
        assert resample(osm, item.tokens.shape[1]).tobytes() == item.osm.tobytes()


def test_eval_builds_the_tokens_train_built(cli_workspace, tmp_path, monkeypatch):
    prepared = {}

    def spy(ds, split, *args):
        prepared.setdefault(split, []).append(items := sweep.prepare_items(ds, split, *args))
        return items

    monkeypatch.setattr(cli, "prepare_items", spy)
    data, run_dir = cli_workspace / "data", tmp_path / "tr"
    assert run(["train", "--dataset", data, "--config", cli_workspace / "train.json", "--out", run_dir]) == 0
    argv = ["eval", "--checkpoint", run_dir / "checkpoint", "--dataset", data, "--split", "dev", "--out", tmp_path / "ev"]
    assert run(argv) == 0
    (trained, held) = prepared["dev"]  # eval's cache holds the checkpoint's books and fits none
    assert len(trained) == len(held) > 0
    for a, b in zip(trained, held):
        assert a.utt_id == b.utt_id and a.tokens.dtype == b.tokens.dtype == np.uint8
        assert a.tokens.tobytes() == b.tokens.tobytes() and a.osm.tobytes() == b.osm.tobytes()
        assert [t.tobytes() for t in a.tables] == [t.tobytes() for t in b.tables]


def test_eval_and_tokenize_parse_only_the_manifest_of_their_split(
    cli_workspace, artifacts, tmp_path, monkeypatch, capsys
):
    from disq import dataio

    data, ckpt = cli_workspace / "data", artifacts / "tr" / "checkpoint"
    parsed = []
    real_load = dataio.load_manifest

    def spy(path):
        parsed.append(Path(path).name)
        return real_load(path)

    monkeypatch.setattr("disq.dataio.load_manifest", spy)
    assert run(["eval", "--checkpoint", ckpt, "--dataset", data, "--split", "dev", "--out", tmp_path / "ev"]) == 0
    assert parsed == ["manifest_dev.json"]
    parsed.clear()
    argv = ["tokenize", "--dataset", data, "--split", "test", "--codebooks", artifacts / "cb", "--out", tmp_path / "tok"]
    assert run(argv) == 0
    assert parsed == ["manifest_test.json"]

    # the train manifest is hashed, not parsed, and still binds the checkpoint to its data
    other = tmp_path / "other"
    shutil.copytree(data, other)
    train_doc = json.loads((other / "manifest_train.json").read_text())
    (other / "manifest_train.json").write_text(json.dumps(train_doc))
    parsed.clear()
    assert run(["eval", "--checkpoint", ckpt, "--dataset", other, "--split", "dev", "--out", tmp_path / "ev2"]) == 3
    assert "train manifest hash mismatch" in capsys.readouterr().err
    assert parsed == []


def test_manifests_that_disagree_exit_3(cli_workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(cli_workspace / "data", data)
    doc = json.loads((data / "manifest_dev.json").read_text())
    (data / "manifest_dev.json").write_text(json.dumps(dict(doc, feature_dim=13)))
    argv = ["train", "--dataset", data, "--layer-set", "3", "--k", 8, "--epochs", 1, "--out", tmp_path / "tr"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and "manifests disagree" in err and "dev: 4 x 13" in err


def test_layer_files_of_different_lengths_exit_3_naming_the_file(cli_workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(cli_workspace / "data", data)
    rec = json.loads((data / "manifest_train.json").read_text())["records"][0]
    first, bad = data / rec["layers"][0], data / rec["layers"][2]
    t = read_feature_file(first).n_frames
    write_feature_file(FeatureSequence(np.zeros((t + 1, 12), dtype=np.float32)), bad)
    argv = ["train", "--dataset", data, "--layer-set", "0,1,2,3", "--continuous", "--epochs", 1, "--out", tmp_path / "tr"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:")
    assert f"{rec['utt_id']}: {bad} has {t + 1} frames, but {first} has {t}" in err
