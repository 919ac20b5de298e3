"""Multi-stream fusion: per-layer normalization, pooled attention, resampling.

All operations here are pure given their parameters; the trainer owns the
batched/backprop versions and is tested against these reference forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Named layer configurations over a 24-layer stack.
LAYER_SETS: dict[str, tuple[int, ...]] = {
    "all": tuple(range(24)),
    "all_but_last": tuple(range(23)),
    "last_only": (23,),
    "sparse": (1, 3, 7, 12, 18, 23),
    "last8": tuple(range(16, 24)),
    "ten": (0, 1, 2, 4, 6, 9, 12, 16, 20, 23),
}

TEMPERATURE_FLOOR = 0.1
LAYER_NORM_EPS = 1e-5


def resolve_layer_set(entry, layer_count: int) -> tuple[str, tuple[int, ...]]:
    """Accept a named set, a comma string like "1,3,7", or an index sequence."""
    if isinstance(entry, str):
        if entry in LAYER_SETS:
            name, layers = entry, LAYER_SETS[entry]
        else:
            try:
                layers = tuple(int(tok) for tok in entry.split(","))
            except ValueError:
                raise ValueError(f"unknown layer set {entry!r}") from None
            name = entry
    else:
        layers = tuple(int(i) for i in entry)
        name = ",".join(str(i) for i in layers)
    if not layers:
        raise ValueError("layer set is empty")
    if any(b <= a for a, b in zip(layers, layers[1:])):
        raise ValueError(f"layer indices must be strictly increasing, got {layers}")
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
    """Inverse of temperature_from_raw, for initialization."""
    if tau <= TEMPERATURE_FLOOR:
        raise ValueError(f"temperature must exceed the {TEMPERATURE_FLOOR} floor")
    return float(np.log(np.expm1(tau - TEMPERATURE_FLOOR)))


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


def layer_norm(h: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-frame standardization over the feature axis, then affine."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] < 1:
        raise ValueError("zero-length frames")
    gain = np.asarray(gain, dtype=np.float64)
    if gain.shape != (h.shape[-1],):
        raise ValueError(f"gain shape {gain.shape} does not match frame dim {h.shape[-1]}")
    mean = h.mean(axis=-1, keepdims=True)
    var = h.var(axis=-1, keepdims=True)
    return gain * (h - mean) / np.sqrt(var + LAYER_NORM_EPS) + np.asarray(bias, dtype=np.float64)


def masked_average_pool(h: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean over the frames where mask is true."""
    h = np.asarray(h, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (h.shape[0],):
        raise ValueError(f"mask shape {mask.shape} does not match T={h.shape[0]}")
    if not mask.any():
        raise ValueError("mask selects no frames")
    return h[mask].mean(axis=0)


def layer_attention(summaries: np.ndarray, w: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax weights over layers from their pooled summaries.

    One logit per layer, w . s_l / temperature; weights are strictly
    positive and sum to 1. A scalar offset on every logit would not change
    them, so the scorer has none.
    """
    summaries = np.asarray(summaries, dtype=np.float64)
    if summaries.ndim != 2 or summaries.shape[0] < 1:
        raise ValueError(f"summaries must be N x D with N >= 1, got {summaries.shape}")
    if not np.isfinite(summaries).all():
        raise ValueError("non-finite summaries")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    logits = summaries @ np.asarray(w, dtype=np.float64) / float(temperature)
    logits -= logits.max()
    e = np.exp(logits)
    return e / e.sum()


def fuse_layers(h_list, alpha: np.ndarray) -> np.ndarray:
    """Weighted sum of equally shaped layer sequences."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if len(h_list) != alpha.shape[0]:
        raise ValueError("one weight per layer required")
    if (alpha < 0).any() or abs(float(alpha.sum()) - 1.0) > 1e-6:
        raise ValueError("alpha must lie on the simplex")
    shapes = {np.asarray(h).shape for h in h_list}
    if len(shapes) != 1:
        raise ValueError(f"layer shapes differ: {sorted(shapes)}")
    out = np.zeros(shapes.pop())
    for a, h in zip(alpha, h_list):
        out += a * np.asarray(h, dtype=np.float64)
    return out


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
        if t_tgt == 1:
            return h[:1].copy()
        pos = np.arange(t_tgt) * (t_src - 1) / (t_tgt - 1)
        lo = np.floor(pos).astype(int)
        hi = np.minimum(lo + 1, t_src - 1)
        frac = (pos - lo)[:, None]
        return (1.0 - frac) * h[lo] + frac * h[hi]
    idx = (np.arange(t_tgt) * t_src) // t_tgt
    return h[idx].copy()


def modality_fuse(h_fused: np.ndarray, h_osm: np.ndarray, params: FusionParams) -> np.ndarray:
    """Align, normalize, scale, and concatenate the two modalities.

    The paralinguistic frames are resampled to the fused frame count, each
    branch is layer-normed and scaled by its gamma, then concatenated along
    the feature axis.
    """
    if not params.augmented:
        raise ValueError("fusion params carry no modality branch")
    h_fused = np.asarray(h_fused, dtype=np.float64)
    h_osm = np.asarray(h_osm, dtype=np.float64)
    if not (np.isfinite(h_fused).all() and np.isfinite(h_osm).all()):
        raise ValueError("non-finite inputs")
    aligned = resample(h_osm, h_fused.shape[0])
    fused_part = float(params.gamma_fused) * layer_norm(
        h_fused, params.mod_gain_fused, params.mod_bias_fused
    )
    osm_part = float(params.gamma_osm) * layer_norm(
        aligned, params.mod_gain_osm, params.mod_bias_osm
    )
    return np.concatenate([fused_part, osm_part], axis=1)
