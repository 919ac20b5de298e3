"""Trainable downstream head: attentive statistics pooling, MLP, weighted CE.

Forward and reverse passes are written by hand over batch tensors and
verified against central finite differences; the quantizers and input
features sit upstream of every trainable parameter and receive no gradient.
All math runs in float64 so the gradient checks hold at tight tolerances.

The input layer norms split in two: the per-frame standardization x̂ and its
frame mean ŝ depend on no parameter, so `train` and `predict` compute them
once per utterance per call. A continuous utterance's frames are read-only
(a view of its loaded block, held once) and are only read, into a float64
copy that is standardized in place; a token stream gathers its x̂ from the
standardized table of its codebook, which is computed once per codebook
before any call (`token_table`). A batch refers to each utterance's own x̂,
held (dim, T_b, n_layers) at its own frame count, and never pads or copies
it; only the opensmile block and the per-frame tensors downstream of the
layer block are padded. The affine y = g·x̂ + b is never formed: the layer summaries are
g·ŝ + b, the fused sequence is a contraction of each utterance's x̂ over
layers, and the gradients of the layer block come from a contraction of
each utterance's x̂ over its frames.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field, fields

import numpy as np

from .dataio import N_CLASSES
from .fusion import (
    LAYER_NORM_EPS,
    FusionParams,
    init_fusion_params,
    sigmoid,
    temperature_from_raw,
)
from .metrics import confusion_matrix, macro_f1

VAR_FLOOR = 1e-8  # keeps the pooling std differentiable at zero variance


@dataclass
class PreparedUtterance:
    """Model-ready utterance: frozen layer streams, as frames or as tokens, plus label.

    A continuous utterance holds its layer frames in `streams`. A quantized
    one holds `tokens`, one index row per layer, and `tables`, per layer
    the `token_table` of its codebook, shared by every utterance quantized
    with that codebook; its frames float32(C)[idx] are never built.
    """

    utt_id: str
    streams: np.ndarray | None  # (n_layers, T, dim) frames; None when tokens
    label: int
    osm: np.ndarray | None = None  # (T, osm_dim), already aligned to T
    tokens: np.ndarray | None = None  # (n_layers, T) unsigned indices into `tables`
    tables: tuple[np.ndarray, ...] | None = None  # per layer (K, dim) float64

    def __post_init__(self):
        if self.tokens is None:
            if self.streams is None or self.tables is not None:
                raise ValueError(f"{self.utt_id}: needs layer frames or tokens with their tables")
        elif self.streams is not None or self.tables is None or len(self.tables) != len(self.tokens):
            raise ValueError(f"{self.utt_id}: tokens need one table per layer and no layer frames")

    @property
    def shape(self) -> tuple[int, int, int]:
        """(n_layers, T, dim) of the layer streams."""
        if self.tokens is None:
            return self.streams.shape
        return (*self.tokens.shape, self.tables[0].shape[1])


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 20
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    hidden: int = 256

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("epochs", "batch_size", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        for name in ("adam_eps", "clip_norm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class HeadParams:
    """Pooling scorer and two-layer tanh MLP; class_weights are data-derived, not trained."""

    pool_v: np.ndarray  # (feat,)
    w1: np.ndarray  # (hidden, 2*feat)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (n_classes, hidden)
    b2: np.ndarray  # (n_classes,)
    class_weights: np.ndarray = field(default_factory=lambda: np.ones(N_CLASSES))

    def __post_init__(self):
        self.class_weights = np.asarray(self.class_weights, dtype=np.float64)
        if (self.class_weights <= 0).any():
            raise ValueError("class_weights must be positive")


@dataclass
class ModelParams:
    fusion: FusionParams
    head: HeadParams

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Trainable tensors by name in field order; class_weights are deliberately absent.

        Unset (None) modality fields of a token-only model are skipped.
        """
        return [
            (f"{prefix}.{f.name}", getattr(part, f.name))
            for prefix, part in (("fusion", self.fusion), ("head", self.head))
            for f in fields(part)
            if f.name != "class_weights" and getattr(part, f.name) is not None
        ]

    def copy(self) -> "ModelParams":
        return deepcopy(self)


def init_head_params(
    rng: np.random.Generator, feat_dim: int, hidden: int, class_weights=None
) -> HeadParams:
    in_dim = 2 * feat_dim
    return HeadParams(
        pool_v=0.01 * rng.standard_normal(feat_dim),
        w1=rng.standard_normal((hidden, in_dim)) / np.sqrt(in_dim),
        b1=np.zeros(hidden),
        w2=rng.standard_normal((N_CLASSES, hidden)) / np.sqrt(hidden),
        b2=np.zeros(N_CLASSES),
        class_weights=np.ones(N_CLASSES) if class_weights is None else class_weights,
    )


def init_model_params(
    rng: np.random.Generator,
    n_layers: int,
    dim: int,
    osm_dim: int | None = None,
    hidden: int = 256,
    class_weights=None,
) -> ModelParams:
    fusion = init_fusion_params(rng, n_layers, dim, osm_dim)
    feat = dim + (osm_dim or 0)
    return ModelParams(fusion, init_head_params(rng, feat, hidden, class_weights=class_weights))


# --- batched forward / backward ---------------------------------------------


@dataclass
class Batch:
    """Standardized inputs x̂ (per-frame layer norm without its affine), one array per utterance, and ŝ.

    Each x̂ keeps its utterance's own frame count T_b, the first T_b valid
    frames of its `mask` row, and is held dim-major so that the layer
    block's contractions over layers (forward) and over frames (backward)
    are each one matmul per utterance. `mask` and the opensmile block are
    padded to the batch's longest utterance.
    """

    x: tuple[np.ndarray, ...]  # per utterance (dim, T_b, n_layers) float64
    s_hat: np.ndarray  # (B, n_layers, dim): mean of x̂ over each utterance's valid frames
    mask: np.ndarray  # (B, T) bool
    labels: np.ndarray  # (B,)
    osm: np.ndarray | None  # (B, T, osm_dim) float64

    @property
    def size(self) -> int:
        return len(self.x)


@dataclass
class _Standardized:
    """One utterance's parameter-free model inputs."""

    utt_id: str
    xhat: np.ndarray  # (dim, T, n_layers)
    s_hat: np.ndarray  # (n_layers, dim)
    label: int
    osm: np.ndarray | None  # (T, osm_dim) x̂


def _standardize(x: np.ndarray, out: np.ndarray | None = None):
    """Per-row (x - mean) / sqrt(var + eps) over the last axis, and 1 / sqrt(var + eps).

    The variance is np.var's own arithmetic on the centred rows x̂ already
    holds, so it has np.var's bits without centring x a second time. Every
    row is reduced on its own, so a row gives the same bits alone or inside
    a larger array. x̂ goes to `out`, which may be x itself.
    """
    mean = x.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x, mean, out=out)
    var = np.square(xhat).sum(axis=-1, keepdims=True) / x.shape[-1]
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    return xhat, inv


def _standardized_copy(a: np.ndarray) -> np.ndarray:
    """The x̂ of a float64 copy of `a`, standardized in that copy; `a` is only read."""
    x = np.array(a, dtype=np.float64, order="C")
    return _standardize(x, out=x)[0]


def token_table(centroids: np.ndarray) -> np.ndarray:
    """The x̂ of each centroid as a frame float32(C)[i] gets it: the rows of float64(float32(C)) standardized.

    `_standardize` reduces each row on its own, so the x̂ of the frames
    float32(C)[idx] is table[idx], bit for bit.
    """
    return _standardized_copy(np.asarray(centroids, dtype=np.float32))


def _standardized(it: PreparedUtterance) -> _Standardized:
    """The float64 x̂ of an utterance's streams (dim-major) and opensmile block, and ŝ.

    A token stream's x̂ is gathered from its table, with the bits and layout
    that standardizing its frames would give.
    """
    # The kept x̂ and ŝ are allocated before the temporaries, so that across the
    # utterances of a call the kept arrays pack together and the temporaries
    # free back to the top of the heap instead of leaving holes between them.
    n_layers, _, dim = it.shape
    dtn, s_hat = np.empty(it.shape[::-1]), np.empty((n_layers, dim))
    if it.tokens is None:
        xhat = _standardized_copy(it.streams)
    else:
        xhat = np.empty(it.shape)
        for n, (table, idx) in enumerate(zip(it.tables, it.tokens)):
            np.take(table, idx, axis=0, out=xhat[n])
    dtn[...] = xhat.transpose(2, 1, 0)
    np.mean(xhat, axis=1, out=s_hat)
    del xhat
    osm = None if it.osm is None else _standardized_copy(it.osm)
    return _Standardized(it.utt_id, dtn, s_hat, it.label, osm)


def _pad(items: list[_Standardized]) -> Batch:
    """Batch already standardized utterances: x̂ by reference, the rest padded to a common frame count."""
    if not items:
        raise ValueError("empty batch")
    dim, _, n_layers = items[0].xhat.shape
    has_osm = items[0].osm is not None
    t_max = max(it.xhat.shape[1] for it in items)
    s_hat = np.empty((len(items), n_layers, dim))
    mask = np.zeros((len(items), t_max), dtype=bool)
    osm = None
    if has_osm:
        osm = np.zeros((len(items), t_max, items[0].osm.shape[1]))
    labels = np.empty(len(items), dtype=np.int64)
    for i, it in enumerate(items):
        if it.xhat.shape[0] != dim or it.xhat.shape[2] != n_layers:
            raise ValueError(f"{it.utt_id}: stream shape mismatch in batch")
        if (it.osm is not None) != has_osm:
            raise ValueError("batch mixes utterances with and without an opensmile branch")
        t = it.xhat.shape[1]
        s_hat[i] = it.s_hat
        mask[i, :t] = True
        if has_osm:
            osm[i, :t] = it.osm
        labels[i] = it.label
    return Batch(tuple(it.xhat for it in items), s_hat, mask, labels, osm)


def collate(items: list[PreparedUtterance]) -> Batch:
    """Standardize each utterance and batch them (see `Batch`).

    Padded opensmile frames stay 0, which is what standardizing a zero frame gives.
    """
    return _pad([_standardized(it) for it in items])


def _affine_backward(dy, xhat):
    """Gradients of gain and bias in y = gain * x̂ + bias, summed over all leading axes."""
    axes = tuple(range(dy.ndim - 1))
    return (dy * xhat).sum(axis=axes), dy.sum(axis=axes)


def _ln_backward(dy, xhat, inv, gain):
    dxh = dy * gain
    dx = inv * (dxh - dxh.mean(axis=-1, keepdims=True) - xhat * (dxh * xhat).mean(axis=-1, keepdims=True))
    return (dx, *_affine_backward(dy, xhat))


def _softmax(u):
    """Softmax over axis 1 (a -inf entry gets weight 0): the layer attention α and the pooling weights."""
    e = np.exp(u - u.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_backward(a, da):
    """The gradient of the softmax's input, from its output `a` and the output's gradient `da`."""
    return a * (da - (a * da).sum(axis=1, keepdims=True))


def forward_batch(params: ModelParams, batch: Batch):
    """Loss plus a cache of every intermediate the reverse pass needs."""
    fp, hp = params.fusion, params.head
    if fp.augmented != (batch.osm is not None):
        raise ValueError("model and batch disagree about the opensmile branch")
    if not batch.mask.any(axis=1).all():
        raise ValueError("utterance with no valid frames")
    n_frames = batch.mask.sum(axis=1)
    if [x.shape[1] for x in batch.x] != n_frames.tolist():
        raise ValueError("an utterance's x̂ frame count differs from its mask row")
    if not np.array_equal(batch.mask, np.arange(batch.mask.shape[1]) < n_frames[:, None]):
        raise ValueError("a mask row's valid frames are not a prefix")

    # layer summaries, the valid-frame means of y = g x̂ + b, and attention weights
    s = fp.layer_gain * batch.s_hat + fp.layer_bias
    tau = temperature_from_raw(fp.temperature_raw)
    u = s @ fp.attn_w / tau
    alpha = _softmax(u)

    # fused sequence f = Σₙ (αₙ gₙ) x̂ₙ + Σₙ αₙ bₙ, one matvec per utterance and dim over
    # its own frames; padded frames carry the bias only and are masked in pooling
    ag = alpha[:, None, :] * fp.layer_gain.T
    f = np.zeros((batch.size, batch.mask.shape[1], fp.dim))
    for j, x in enumerate(batch.x):
        f[j, : x.shape[1]] = (x @ ag[j, :, :, None])[..., 0].T
    f += (alpha @ fp.layer_bias)[:, None, :]

    if fp.augmented:
        f_xhat, f_inv = _standardize(f, out=f)  # f itself is not read again
        fhat_out = fp.mod_gain_fused * f_xhat + fp.mod_bias_fused
        ohat_out = fp.mod_gain_osm * batch.osm + fp.mod_bias_osm
        z = np.concatenate(
            [float(fp.gamma_fused) * fhat_out, float(fp.gamma_osm) * ohat_out], axis=2
        )
    else:
        fhat_out = f_xhat = f_inv = ohat_out = None
        z = f

    # attentive statistics pooling over valid frames
    a_t = _softmax(np.where(batch.mask, z @ hp.pool_v, -np.inf))
    mu = np.einsum("bt,btf->bf", a_t, z)
    q = np.einsum("bt,btf->bf", a_t, z * z)
    var = q - mu * mu
    sd = np.sqrt(np.maximum(var, VAR_FLOOR))
    p = np.concatenate([mu, sd], axis=1)

    # MLP
    z1 = p @ hp.w1.T + hp.b1
    hh = np.tanh(z1)
    logits = hh @ hp.w2.T + hp.b2
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite values in tensor 'logits'")

    # weighted cross-entropy, normalized by the summed weights
    wv = hp.class_weights[batch.labels]
    wsum = float(wv.sum())
    shift = logits - logits.max(axis=1, keepdims=True)
    logp = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    probs = np.exp(logp)
    rows = np.arange(batch.size)
    if wsum > 0:
        loss = float(-(wv * logp[rows, batch.labels]).sum() / wsum)
    else:
        loss = 0.0
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite values in tensor 'loss'")

    cache = dict(
        batch=batch, s=s, tau=tau, u=u, alpha=alpha,
        f_xhat=f_xhat, f_inv=f_inv, fhat_out=fhat_out, ohat_out=ohat_out,
        z=z, a_t=a_t, mu=mu, var=var, sd=sd, p=p,
        hh=hh, logits=logits, probs=probs, wv=wv, wsum=wsum,
    )
    return loss, cache


def backward_batch(params: ModelParams, cache) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients for every trainable tensor."""
    fp, hp = params.fusion, params.head
    batch: Batch = cache["batch"]
    grads: dict[str, np.ndarray] = {}
    rows = np.arange(batch.size)

    # cross-entropy
    if cache["wsum"] > 0:
        dlogits = cache["probs"].copy()
        dlogits[rows, batch.labels] -= 1.0
        dlogits *= cache["wv"][:, None] / cache["wsum"]
    else:
        dlogits = np.zeros_like(cache["logits"])

    # MLP
    hh, p = cache["hh"], cache["p"]
    grads["head.w2"] = dlogits.T @ hh
    grads["head.b2"] = dlogits.sum(axis=0)
    dhh = dlogits @ hp.w2
    dz1 = dhh * (1.0 - hh * hh)
    grads["head.w1"] = dz1.T @ p
    grads["head.b1"] = dz1.sum(axis=0)
    dp = dz1 @ hp.w1

    # attentive statistics pooling
    z, a_t, mu, var, sd = cache["z"], cache["a_t"], cache["mu"], cache["var"], cache["sd"]
    feat = z.shape[2]
    dmu_out, dsd = dp[:, :feat], dp[:, feat:]
    dvar = np.where(var > VAR_FLOOR, dsd * 0.5 / sd, 0.0)
    dq = dvar
    dmu = dmu_out - 2.0 * mu * dvar
    dz = a_t[:, :, None] * (dmu[:, None, :] + 2.0 * z * dq[:, None, :])
    da = np.einsum("btf,bf->bt", z, dmu) + np.einsum("btf,bf->bt", z * z, dq)
    de = _softmax_backward(a_t, da)
    grads["head.pool_v"] = np.einsum("bt,btf->f", de, z)
    dz += de[:, :, None] * hp.pool_v

    # modality normalizer
    if fp.augmented:
        dim = fp.dim
        dzf, dzo = dz[:, :, :dim], dz[:, :, dim:]
        grads["fusion.gamma_fused"] = np.array((dzf * cache["fhat_out"]).sum())
        grads["fusion.gamma_osm"] = np.array((dzo * cache["ohat_out"]).sum())
        df, dgf, dbf = _ln_backward(
            float(fp.gamma_fused) * dzf, cache["f_xhat"], cache["f_inv"], fp.mod_gain_fused
        )
        dgo, dbo = _affine_backward(float(fp.gamma_osm) * dzo, batch.osm)
        grads["fusion.mod_gain_fused"] = dgf
        grads["fusion.mod_bias_fused"] = dbf
        grads["fusion.mod_gain_osm"] = dgo
        grads["fusion.mod_bias_osm"] = dbo
    else:
        df = dz

    # fused sum: one contraction per utterance over its own frames,
    # G[b, d, n] = Σₜ df[b, t, d] x̂_b[d, t, n]; df is 0 on padded frames, where the pooling weight is 0
    alpha = cache["alpha"]
    df_t = np.ascontiguousarray(df.transpose(0, 2, 1))
    g = np.empty((batch.size, fp.dim, fp.n_layers))
    for j, x in enumerate(batch.x):
        g[j] = (df_t[j, :, None, : x.shape[1]] @ x)[:, 0, :]
    df_sum = df.sum(axis=1)
    dalpha = np.einsum("bdn,nd->bn", g, fp.layer_gain) + df_sum @ fp.layer_bias.T

    # attention softmax, temperature, scorer
    s, u, tau = cache["s"], cache["u"], cache["tau"]
    du = _softmax_backward(alpha, dalpha)
    grads["fusion.attn_w"] = np.einsum("bn,bnd->d", du, s) / tau
    ds = du[:, :, None] * (fp.attn_w / tau)
    dtau = -float((du * u).sum()) / tau
    grads["fusion.temperature_raw"] = np.array(dtau * float(sigmoid(fp.temperature_raw)))

    # per-layer norm parameters through dy = αₙ df + ds / cnt on valid frames
    # (inputs are frozen, no dx needed)
    grads["fusion.layer_gain"] = np.einsum("bn,bdn->nd", alpha, g) + (ds * batch.s_hat).sum(axis=0)
    grads["fusion.layer_bias"] = alpha.T @ df_sum + ds.sum(axis=0)
    return grads


def predict(params: ModelParams, items: list[PreparedUtterance], batch_size: int = 64):
    """Argmax class predictions and per-utterance attention weights."""
    x = [_standardized(it) for it in items]
    return _predict_batches(params, _batches(x, batch_size), len(x))


def _batches(items: list[_Standardized], batch_size: int):
    return (_pad(items[start : start + batch_size]) for start in range(0, len(items), batch_size))


def _predict_batches(params: ModelParams, batches, n_items: int):
    preds = np.empty(n_items, dtype=np.int64)
    alphas = np.empty((n_items, params.fusion.n_layers))
    start = 0
    for batch in batches:
        _, cache = forward_batch(params, batch)
        preds[start : start + batch.size] = np.argmax(cache["logits"], axis=1)
        alphas[start : start + batch.size] = cache["alpha"]
        start += batch.size
    return preds, alphas


# --- optimizer and training loop --------------------------------------------


class Adam:
    """Adaptive step with first/second moment scaling and global norm clipping.

    The trainable tensors live in one flat vector: building the optimizer
    rebinds each field of `params` to a view of it, so a step is a few
    whole-vector operations into preallocated buffers. Every operation is
    elementwise and rounds as the per-tensor update `(m / bc1) /
    (sqrt(v / bc2) + eps)` does, so each entry gets the same bits.
    """

    def __init__(self, params: ModelParams, config: TrainConfig):
        self.config = config
        self.t = 0
        items = params.param_items()
        self.names = [name for name, _ in items]
        self.flat = np.concatenate([arr.ravel() for _, arr in items])
        self.views = []  # (part, field name, view of `flat`) in parameter order
        start = 0
        for name, arr in items:
            part, field_name = name.split(".")
            view = self.flat[start : start + arr.size].reshape(arr.shape)
            setattr(getattr(params, part), field_name, view)
            self.views.append((part, field_name, view))
            start += arr.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._g = np.empty_like(self.flat)
        self._tmp = np.empty_like(self.flat)

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        if any(getattr(getattr(params, part), name) is not view for part, name, view in self.views):
            raise ValueError("Adam.step: a parameter is not the view of the flat vector it was bound to")
        cfg = self.config
        # the global norm sums per tensor, in the order of `grads`
        gnorm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        scale = cfg.clip_norm / gnorm if gnorm > cfg.clip_norm else 1.0
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        g, tmp, m, v = self._g, self._tmp, self.m, self.v
        np.concatenate([grads[name].ravel() for name in self.names], out=g)
        g *= scale
        m *= cfg.beta1
        m += np.multiply(g, 1.0 - cfg.beta1, out=tmp)
        v *= cfg.beta2
        np.multiply(g, 1.0 - cfg.beta2, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        tmp += cfg.adam_eps
        step = np.divide(m, bc1, out=g)  # g is spent
        step /= tmp
        self.flat -= np.multiply(step, cfg.learning_rate, out=step)


def class_weights_from_labels(labels) -> np.ndarray:
    """Inverse-frequency weights N / (N_CLASSES * N_c); errors on absent classes."""
    counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=N_CLASSES)
    if (counts == 0).any():
        missing = np.flatnonzero(counts == 0).tolist()
        raise ValueError(f"classes absent from train split: {missing}")
    return counts.sum() / (N_CLASSES * counts.astype(np.float64))


@dataclass
class EpochStats:
    train_loss: float
    dev_macro_f1: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochStats]
    best_epoch: int


def train(
    train_items: list[PreparedUtterance],
    dev_items: list[PreparedUtterance],
    config: TrainConfig,
) -> TrainResult:
    """Deterministic mini-batch training; returns the best-dev-epoch parameters.

    Batches are processed in sorted utterance order within each batch, so
    final parameters depend on batch composition only, not on the order the
    caller stored the utterances. Each train and dev utterance is
    standardized once, and dev is batched once, before the first epoch;
    a batch refers to those x̂ arrays without copying them.
    """
    if not train_items:
        raise ValueError("empty train split")
    if not dev_items:
        raise ValueError("empty dev split")
    # canonical order: batch composition and updates depend only on the item
    # set and the seed, never on the caller's list order
    train_items = sorted(train_items, key=lambda it: it.utt_id)
    labels = [it.label for it in train_items]
    weights = class_weights_from_labels(labels)
    train_x = [_standardized(it) for it in train_items]
    dev_batches = list(_batches([_standardized(it) for it in dev_items], 64))
    dev_labels = np.array([it.label for it in dev_items])

    n_layers, _, dim = train_items[0].shape
    osm_dim = None if train_items[0].osm is None else train_items[0].osm.shape[1]
    rng = np.random.default_rng([config.seed, 11])
    params = init_model_params(rng, n_layers, dim, osm_dim, config.hidden, class_weights=weights)
    opt = Adam(params, config)

    best: ModelParams | None = None
    best_f1 = -1.0
    best_epoch = -1
    history: list[EpochStats] = []
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, 13, epoch]).permutation(len(train_items))
        losses = []
        for start in range(0, len(order), config.batch_size):
            chunk = [train_x[i] for i in order[start : start + config.batch_size]]
            chunk.sort(key=lambda it: it.utt_id)
            loss, cache = forward_batch(params, _pad(chunk))
            grads = backward_batch(params, cache)
            opt.step(params, grads)
            losses.append(loss)
        preds, _ = _predict_batches(params, dev_batches, len(dev_items))
        f1 = macro_f1(confusion_matrix(dev_labels, preds))
        history.append(EpochStats(float(np.mean(losses)), f1))
        if f1 > best_f1:
            best_f1 = f1
            best_epoch = epoch
            best = params.copy()
    assert best is not None
    return TrainResult(best, history, best_epoch)


# --- finite-difference verification ------------------------------------------


def finite_difference_check(params: ModelParams, batch: Batch) -> tuple[float, dict[str, float]]:
    """Max relative error between analytic and central-difference gradients (step 1e-3)."""
    eps = 1e-3
    _, cache = forward_batch(params, batch)
    grads = backward_batch(params, cache)

    def loss_at() -> float:
        loss, _ = forward_batch(params, batch)
        return loss

    worst = 0.0
    per_param: dict[str, float] = {}
    for name, arr in params.param_items():
        g = grads[name]
        flat = arr.reshape(-1) if arr.ndim else arr.reshape(1)
        gflat = g.reshape(-1) if g.ndim else g.reshape(1)
        err = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lo_hi = loss_at()
            flat[i] = orig - eps
            lo_lo = loss_at()
            flat[i] = orig
            fd = (lo_hi - lo_lo) / (2.0 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-6)
            err = max(err, abs(fd - gflat[i]) / denom)
        per_param[name] = err
        worst = max(worst, err)
    return worst, per_param


def gradient_check(seed: int = 0) -> float:
    """Run the full-pipeline check on a small random two-utterance batch.

    Three 8-dim layers, a 6-dim paralinguistic branch (so every parameter
    group receives gradient) and a 16-unit hidden layer; unequal frame
    counts exercise the padding masks.
    """
    n_layers, dim, osm_dim, hidden = 3, 8, 6, 16
    rng = np.random.default_rng([seed, 17])
    items = []
    for i, t in enumerate((5, 7)):
        items.append(
            PreparedUtterance(
                utt_id=f"g{i}",
                streams=rng.standard_normal((n_layers, t, dim)),
                label=int(rng.integers(N_CLASSES)),
                osm=rng.standard_normal((t, osm_dim)),
            )
        )
    params = init_model_params(
        rng, n_layers, dim, osm_dim, hidden, class_weights=rng.uniform(0.5, 2.0, N_CLASSES)
    )
    worst, _ = finite_difference_check(params, collate(items))
    return worst
