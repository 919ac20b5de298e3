"""Fusion state and the frozen-input helpers around it.

Named layer sets and their resolution, the trainable fusion parameters
(per-layer norms, attention scorer, modality normalizer) with their
temperature parameterization, and the resampling that aligns the
paralinguistic stream to a layer's frame count. The fusion math itself runs
batched in `model.forward_batch` and `model.backward_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Named sets counted from the top of the stack follow the dataset's depth:
# `all` on a 26-layer dataset is layers 0..25. `sparse` and `ten` name fixed
# layers of a 24-layer stack.
_DEPTH_SETS = {
    "all": lambda n: range(n),
    "all_but_last": lambda n: range(n - 1),
    "last_only": lambda n: range(n - 1, n),
    "last8": lambda n: range(n - 8, n),
}
_FIXED_SETS = {
    "sparse": (1, 3, 7, 12, 18, 23),
    "ten": (0, 1, 2, 4, 6, 9, 12, 16, 20, 23),
}


def _named_layer_set(name: str, layer_count: int) -> tuple[int, ...]:
    """The layers a named set covers on a `layer_count`-layer stack (KeyError if unknown)."""
    if name in _DEPTH_SETS:
        return tuple(_DEPTH_SETS[name](layer_count))
    return _FIXED_SETS[name]


# Every named layer set, as it reads on the reference 24-layer stack.
LAYER_SETS: dict[str, tuple[int, ...]] = {
    name: _named_layer_set(name, 24)
    for name in ("all", "all_but_last", "last_only", "sparse", "last8", "ten")
}

TEMPERATURE_FLOOR = 0.1
LAYER_NORM_EPS = 1e-5


def check_layer_order(layers, where: str = "") -> None:
    """A layer set lists at least one layer, in strictly increasing order; an error is prefixed by `where`."""
    if not layers:
        raise ValueError(f"{where}layer set is empty")
    if any(b <= a for a, b in zip(layers, layers[1:])):
        raise ValueError(f"{where}layer indices must be strictly increasing, got {layers}")


def resolve_layer_set(entry, layer_count: int) -> tuple[str, tuple[int, ...]]:
    """Accept a named set, a comma string like "1,3,7", or an index sequence.

    Named sets resolve against `layer_count` (see `_named_layer_set`); every
    set must lie within 0..layer_count - 1.
    """
    if isinstance(entry, str):
        if entry in LAYER_SETS:
            name, layers = entry, _named_layer_set(entry, layer_count)
        else:
            try:
                layers = tuple(int(tok) for tok in entry.split(","))
            except ValueError:
                raise ValueError(f"unknown layer set {entry!r}") from None
            name = entry
    else:
        layers = tuple(int(i) for i in entry)
        name = ",".join(str(i) for i in layers)
    check_layer_order(layers)
    if layers[0] < 0 or layers[-1] >= layer_count:
        raise ValueError(f"layer set {layers} outside 0..{layer_count - 1}")
    return name, layers


def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def temperature_from_raw(raw) -> float:
    """tau = softplus(raw) + floor, positive by construction."""
    return float(softplus(raw) + TEMPERATURE_FLOOR)


def raw_from_temperature(tau: float) -> float:
    """Inverse of temperature_from_raw, for initialization.

    raw = log(expm1(y)) with y = tau - floor; where expm1 overflows (y above
    about 709.78) the same value is y + log1p(-exp(-y)).
    """
    if tau <= TEMPERATURE_FLOOR:
        raise ValueError(f"temperature must exceed the {TEMPERATURE_FLOOR} floor")
    y = tau - TEMPERATURE_FLOOR
    with np.errstate(over="ignore"):
        e = np.expm1(y)
    if np.isfinite(e):
        return float(np.log(e))
    return float(y + np.log1p(-np.exp(-y)))


@dataclass
class FusionParams:
    """Trainable fusion state: per-layer norms, attention scorer, modality normalizer.

    The modality fields are None for token-only models (no paralinguistic
    branch); `osm_dim` is then 0.
    """

    layer_gain: np.ndarray  # (n_layers, dim)
    layer_bias: np.ndarray  # (n_layers, dim)
    attn_w: np.ndarray  # (dim,)
    temperature_raw: np.ndarray  # ()
    mod_gain_fused: np.ndarray | None = None  # (dim,)
    mod_bias_fused: np.ndarray | None = None  # (dim,)
    mod_gain_osm: np.ndarray | None = None  # (osm_dim,)
    mod_bias_osm: np.ndarray | None = None  # (osm_dim,)
    gamma_fused: np.ndarray | None = None  # ()
    gamma_osm: np.ndarray | None = None  # ()

    @property
    def n_layers(self) -> int:
        return self.layer_gain.shape[0]

    @property
    def dim(self) -> int:
        return self.layer_gain.shape[1]

    @property
    def augmented(self) -> bool:
        return self.mod_gain_osm is not None

    @property
    def osm_dim(self) -> int:
        return 0 if self.mod_gain_osm is None else self.mod_gain_osm.shape[0]

    def temperature(self) -> float:
        return temperature_from_raw(self.temperature_raw)


def init_fusion_params(
    rng: np.random.Generator, n_layers: int, dim: int, osm_dim: int | None = None
) -> FusionParams:
    """Neutral start: unit gains, zero biases, tau = 1, small random scorer."""
    kwargs = {}
    if osm_dim is not None:
        kwargs = dict(
            mod_gain_fused=np.ones(dim),
            mod_bias_fused=np.zeros(dim),
            mod_gain_osm=np.ones(osm_dim),
            mod_bias_osm=np.zeros(osm_dim),
            gamma_fused=np.array(1.0),
            gamma_osm=np.array(1.0),
        )
    return FusionParams(
        layer_gain=np.ones((n_layers, dim)),
        layer_bias=np.zeros((n_layers, dim)),
        attn_w=0.01 * rng.standard_normal(dim),
        temperature_raw=np.array(raw_from_temperature(1.0)),
        **kwargs,
    )


def resample(h: np.ndarray, t_tgt: int) -> np.ndarray:
    """Linear interpolation up, uniform index selection down.

    Upsampling places row i at source position i*(T_src-1)/(T_tgt-1), so
    both endpoints are preserved; downsampling takes source row
    floor(i*T_src/T_tgt).
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] < 1:
        raise ValueError(f"need a non-empty T x D matrix, got shape {h.shape}")
    if t_tgt < 1:
        raise ValueError("t_tgt must be >= 1")
    t_src = h.shape[0]
    if t_tgt > t_src:
        pos = np.arange(t_tgt) * (t_src - 1) / (t_tgt - 1)
        lo = np.floor(pos).astype(int)
        hi = np.minimum(lo + 1, t_src - 1)
        frac = (pos - lo)[:, None]
        return (1.0 - frac) * h[lo] + frac * h[hi]
    idx = (np.arange(t_tgt) * t_src) // t_tgt
    return h[idx].copy()
