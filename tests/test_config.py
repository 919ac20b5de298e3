"""Config documents: one JSON reader, value rules owned by the dataclasses."""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from disq.cli import TrainJob, main
from disq.dataio import SyntheticSpec, from_json
from disq.model import TrainConfig
from disq.reference import reference_spec
from disq.sweep import SweepGrid

from conftest import tiny_spec

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

SPEC = json.loads(json.dumps(tiny_spec().to_json()))
TRAIN = {"layer_set": "3", "k": 8, "train": {"epochs": 1, "batch_size": 8, "hidden": 4}}
GRID = {"ks": [8], "layer_sets": ["3"], "seeds": [0], "train": {"epochs": 1, "batch_size": 8, "hidden": 4}}

# (command, valid document, keys replaced in it, text the error must contain)
REJECTED = [
    ("gen", SPEC, {"n_per_clas": 3}, "n_per_clas: unknown field"),
    ("gen", SPEC, {"layer_count": True}, "layer_count: expected integer, got boolean"),
    ("gen", SPEC, {"noise_sigma": "0.8"}, "noise_sigma: expected number, got string"),
    ("gen", SPEC, {"t_range": [10, 12, 16]}, "t_range: expected 2 elements, got 3"),
    ("gen", SPEC, {"t_range": [10]}, "t_range: expected 2 elements, got 1"),
    ("gen", SPEC, {"layer_informativeness": [0.1, 0.3, "0.6", 1.0]}, "layer_informativeness[2]: expected number"),
    ("gen", {k: v for k, v in SPEC.items() if k != "seed"}, {}, "seed: missing required field"),
    ("gen", SPEC, {"feature_dim": 0}, "feature_dim must be >= 1"),
    ("train", TRAIN, {"layerset": "3"}, "layerset: unknown field"),
    ("train", TRAIN, {"train": {"epoch": 2}}, "train.epoch: unknown field"),
    ("train", TRAIN, {"k": True}, "k: expected integer, got boolean"),
    ("train", TRAIN, {"train": {"hidden": False}}, "train.hidden: expected integer, got boolean"),
    ("train", TRAIN, {"train": {"learning_rate": "0.01"}}, "train.learning_rate: expected number, got string"),
    ("train", TRAIN, {"train": []}, "train: expected object, got array"),
    ("train", TRAIN, {"aug": "pros"}, "unknown augmentation 'pros'"),
    ("train", TRAIN, {"train": {"beta1": 1.0}}, "train: beta1 must be in [0, 1)"),
    ("sweep", GRID, {"augmentation": ["prosody"]}, "augmentation: unknown field"),
    ("sweep", GRID, {"train": {"beta": 0.5}}, "train.beta: unknown field"),
    ("sweep", GRID, {"codebook_seed": False}, "codebook_seed: expected integer, got boolean"),
    ("sweep", GRID, {"train": {"clip_norm": "5"}}, "train.clip_norm: expected number, got string"),
    ("sweep", GRID, {"ks": [8.7]}, "ks[0]: expected integer, got number"),
    ("sweep", GRID, {"include_continuous": "false"}, "include_continuous: expected boolean, got string"),
    ("sweep", GRID, {"seeds": 0}, "seeds: expected array, got integer"),
    ("sweep", GRID, {"train": {"beta2": 2.0}}, "train: beta2 must be in [0, 1)"),
    ("sweep", GRID, {"ks": [8, True]}, "ks[1]: expected integer, got boolean"),
    ("sweep", GRID, {"layer_sets": ["3", 3]}, "layer_sets[1]: expected string, got integer"),
    ("sweep", GRID, {"ks": [8, 16, 8]}, "ks[2]: 8 is listed twice"),
    ("sweep", GRID, {"layer_sets": ["3", "3"]}, "layer_sets[1]: '3' is listed twice"),
    ("sweep", GRID, {"seeds": [0, 0]}, "seeds[1]: 0 is listed twice"),
    ("sweep", GRID, {"augmentations": ["none", "prosody", "prosody"]}, "augmentations[2]: 'prosody' is listed twice"),
    ("sweep", GRID, {"augmentations": ["prosody"]}, 'augmentations: must list "none"'),
    ("sweep", GRID, {"seeds": [0, -1]}, "seeds[1]: must be >= 0, got -1"),
    ("sweep", GRID, {"codebook_seed": -1}, "codebook_seed must be >= 0"),
    ("sweep", GRID, {"train": {"seed": -1}}, "train: seed must be >= 0"),
    ("train", TRAIN, {"codebook_seed": -1}, "codebook_seed must be >= 0"),
    ("train", TRAIN, {"train": {"seed": -1}}, "train: seed must be >= 0"),
    ("gen", SPEC, {"seed": -1}, "seed must be >= 0"),
    ("sweep", GRID, {"ks": [0]}, "ks[0]: must be >= 1"),
    ("sweep", GRID, {"train": {"seed": 5}}, "train.seed: must be 0 in a grid"),
]


@pytest.mark.parametrize("command,valid,changes,message", REJECTED)
def test_cli_rejects_bad_config_fields(tiny_dataset, tmp_path, capsys, command, valid, changes, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**valid, **changes}))
    flag = {"gen": "--spec", "train": "--config", "sweep": "--grid"}[command]
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    if command != "gen":
        argv += ["--dataset", tiny_dataset.root]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and message in err, err


@pytest.mark.parametrize("command,valid", [("gen", SPEC), ("train", TRAIN), ("sweep", GRID)])
def test_cli_rejects_a_config_that_is_not_an_object(tiny_dataset, tmp_path, capsys, command, valid):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([valid]))
    flag = {"gen": "--spec", "train": "--config", "sweep": "--grid"}[command]
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    if command != "gen":
        argv += ["--dataset", tiny_dataset.root]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize(
    "command, seed, message",
    [
        ("train", "-1", "train: seed must be >= 0"),
        ("codebooks", "-2", "--seed: must be >= 0"),
        ("gen", "-1", "seed must be >= 0"),
        ("gradcheck", "-1", "--seed: must be >= 0"),
    ],
)
def test_cli_rejects_negative_seed_flags(tiny_dataset, tmp_path, monkeypatch, capsys, command, seed, message):
    monkeypatch.setattr("disq.dataio.read_feature_file", lambda *a, **kw: pytest.fail("a feature file was read"))
    monkeypatch.setattr("disq.cli.gradient_check", lambda *a, **kw: pytest.fail("the gradient check ran"))
    out = tmp_path / "out"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    argv = [command, "--seed", seed, "--out", str(out)]
    if command != "gradcheck":
        argv += ["--spec", str(spec)] if command == "gen" else ["--dataset", str(tiny_dataset.root)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.endswith(f"{message}\n") and err.count("\n") == 1, err
    assert not out.exists()


def test_a_grid_without_a_baseline_is_rejected_before_any_feature_file_is_read(tiny_dataset, tmp_path, monkeypatch):
    monkeypatch.setattr("disq.dataio.read_feature_file", lambda *a, **kw: pytest.fail("a feature file was read"))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({**GRID, "augmentations": ["prosody", "mfcc"]}))
    assert main(["sweep", "--grid", str(path), "--dataset", str(tiny_dataset.root), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match='must list "none"'):
        SweepGrid(ks=(8,), layer_sets=("3",), seeds=(0,), augmentations=("prosody",))


@pytest.mark.parametrize(
    "kwargs",
    [{"beta1": 1.0}, {"beta1": -0.1}, {"beta2": 1.0}, {"clip_norm": 0}, {"clip_norm": -1.0}, {"adam_eps": 0}],
)
def test_train_config_owns_the_optimizer_ranges(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        TrainConfig(**kwargs)


def test_synthetic_spec_owns_its_sizes():
    with pytest.raises(ValueError, match="feature_dim"):
        tiny_spec(feature_dim=0)
    with pytest.raises(ValueError, match="layer_count"):
        tiny_spec(layer_count=0, layer_informativeness=())


def test_grid_from_json_applies_the_train_rules():
    with pytest.raises(ValueError, match="beta2"):
        SweepGrid.from_json({**GRID, "train": {"beta2": 2.0}})


def test_reader_types():
    spec = from_json(SyntheticSpec, {**SPEC, "noise_sigma": 1, "t_range": [10, 16]})
    assert type(spec.noise_sigma) is float and spec.t_range == (10, 16)
    assert from_json(TrainJob, {"k": None}).k is None
    assert from_json(TrainJob, {}) == TrainJob()
    assert from_json(TrainJob, {"train": {"learning_rate": 0}}).train.learning_rate == 0.0
    grid = from_json(SweepGrid, {**GRID, "ks": [8, 16], "layer_sets": ["3", "1,3"]})
    assert grid.ks == (8, 16) and grid.layer_sets == ("3", "1,3") and grid.train.hidden == 4
    with pytest.raises(ValueError, match="config: expected object, got array"):
        from_json(SweepGrid, [GRID])
    with pytest.raises(ValueError, match=r"ks\[1\]: expected integer, got null"):
        from_json(SweepGrid, {**GRID, "ks": [8, None]})


def _legacy_spec(doc):
    """The field-by-field construction the reader replaced, for valid documents."""
    return SyntheticSpec(
        n_per_class=int(doc["n_per_class"]),
        layer_count=int(doc["layer_count"]),
        feature_dim=int(doc["feature_dim"]),
        t_range=tuple(doc["t_range"]),
        layer_informativeness=tuple(doc["layer_informativeness"]),
        paralinguistic_gain=float(doc["paralinguistic_gain"]),
        noise_sigma=float(doc["noise_sigma"]),
        seed=int(doc["seed"]),
        n_classes=int(doc.get("n_classes", 8)),
    )


def _legacy_grid(doc):
    """The CLI's former grid parsing, which made float fields of the train block floats."""
    floats = ("learning_rate", "beta1", "beta2", "adam_eps", "clip_norm")
    train = {k: float(v) if k in floats else v for k, v in doc.get("train", {}).items()}
    return SweepGrid(
        ks=tuple(doc["ks"]),
        layer_sets=tuple(doc["layer_sets"]),
        seeds=tuple(doc["seeds"]),
        augmentations=tuple(doc.get("augmentations", ["none"])),
        include_continuous=bool(doc.get("include_continuous", False)),
        codebook_seed=int(doc.get("codebook_seed", 0)),
        train=TrainConfig(**train),
    )


def _canonical(obj) -> str:
    return json.dumps(asdict(obj), sort_keys=True)


def _bench_grids():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import REFERENCE, TINY
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [REFERENCE.sweep_grid, TINY.sweep_grid]


def test_valid_configs_parse_to_the_same_values():
    shipped = json.loads((CONFIG_DIR / "reference_synthetic.json").read_text())
    for doc in (shipped, SPEC):
        assert _canonical(SyntheticSpec.from_json(doc)) == _canonical(_legacy_spec(doc))
    grids = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("grid_*.json"))]
    assert len(grids) == 3
    test_grids = [
        GRID,
        {"ks": [8], "layer_sets": ["2,3"], "seeds": [0], "train": {"epochs": 2, "batch_size": 8, "hidden": 16}},
        {"ks": [8], "layer_sets": ["all"], "seeds": [0, 1], "train": {"epochs": 2}},
    ]
    for doc in grids + test_grids + _bench_grids():
        assert _canonical(SweepGrid.from_json(doc)) == _canonical(_legacy_grid(doc))
    small = {"batch_size": 8, "hidden": 16}
    train_docs = [
        (
            {"layer_set": "0,1,2,3", "k": 8, "aug": "prosody", "train": {"epochs": 3, **small}},
            TrainJob("0,1,2,3", 8, "prosody", 0, TrainConfig(epochs=3, **small)),
        ),
        (
            {"layer_set": "2,3", "k": 8, "train": {"epochs": 2, **small}},
            TrainJob("2,3", 8, "none", 0, TrainConfig(epochs=2, **small)),
        ),
        (TRAIN, TrainJob("3", 8, train=TrainConfig(epochs=1, batch_size=8, hidden=4))),
    ]
    for doc, expected in train_docs:
        assert _canonical(from_json(TrainJob, doc)) == _canonical(expected)


def test_reference_spec_dumps_to_the_shipped_config():
    shipped = json.loads((CONFIG_DIR / "reference_synthetic.json").read_text())
    assert json.dumps(reference_spec().to_json(), sort_keys=True) == json.dumps(shipped, sort_keys=True)
