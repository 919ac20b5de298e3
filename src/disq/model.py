"""Trainable downstream head: attentive statistics pooling, MLP, weighted CE.

Forward and reverse passes are written by hand over padded batch tensors and
verified against central finite differences; the quantizers and input
features sit upstream of every trainable parameter and receive no gradient.
All math runs in float64 so the gradient checks hold at tight tolerances.

The input layer norms split in two: the per-frame standardization x̂ and its
frame mean ŝ depend on no parameter, so `train` and `predict` compute them
once per utterance per call, and a batch carries x̂, held (B, dim, T,
n_layers), and ŝ. The affine y = g·x̂ + b is never formed: the layer summaries
are g·ŝ + b, the fused sequence is one contraction of x̂ over layers, and the
gradients of the layer block come from one contraction of x̂ over frames.
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
    """Model-ready utterance: frozen stream tensor plus label."""

    utt_id: str
    streams: np.ndarray  # (n_layers, T, dim)
    label: int
    osm: np.ndarray | None = None  # (T, osm_dim), already aligned to T


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


# --- reference single-utterance operations ---------------------------------


def attentive_stats_pool(h: np.ndarray, mask: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Attention-weighted mean and std of the valid frames, concatenated.

    The frame scores are h . v; like the layer scorer, it has no offset,
    which the softmax over frames would cancel.
    """
    h = np.asarray(h, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("all frames masked")
    e = np.where(mask, h @ np.asarray(v, dtype=np.float64), -np.inf)
    e = e - e.max()
    a = np.exp(e)
    a /= a.sum()
    mu = a @ h
    q = a @ (h * h)
    sd = np.sqrt(np.maximum(q - mu * mu, VAR_FLOOR))
    return np.concatenate([mu, sd])


def mlp_forward(x: np.ndarray, head: HeadParams) -> np.ndarray:
    """logits = W2 tanh(W1 x + b1) + b2."""
    x = np.asarray(x, dtype=np.float64)
    return head.w2 @ np.tanh(head.w1 @ x + head.b1) + head.b2


def weighted_ce(logits: np.ndarray, label: int, class_weights: np.ndarray):
    """Per-sample weighted cross-entropy and its gradient wrt logits.

    Batch-level normalization by the summed weights happens in the batch
    loss, not here.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite values in tensor 'logits'")
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range")
    shifted = logits - logits.max()
    logp = shifted - np.log(np.exp(shifted).sum())
    w = float(class_weights[label])
    grad = np.exp(logp)
    grad[label] -= 1.0
    return -w * logp[label], w * grad


# --- batched forward / backward ---------------------------------------------


@dataclass
class Batch:
    """Standardized inputs x̂ (per-frame layer norm without its affine), zero padded, and ŝ.

    x̂ is held dim-major so that the layer block's contractions over layers
    (forward) and over frames (backward) are each one batched matmul.
    """

    x: np.ndarray  # (B, dim, T, n_layers) float64
    s_hat: np.ndarray  # (B, n_layers, dim): mean of x̂ over each utterance's valid frames
    mask: np.ndarray  # (B, T) bool
    labels: np.ndarray  # (B,)
    osm: np.ndarray | None  # (B, T, osm_dim) float64

    @property
    def size(self) -> int:
        return self.x.shape[0]


@dataclass
class _Standardized:
    """One utterance's parameter-free model inputs."""

    utt_id: str
    xhat: np.ndarray  # (dim, T, n_layers)
    s_hat: np.ndarray  # (n_layers, dim)
    label: int
    osm: np.ndarray | None  # (T, osm_dim) x̂


def _standardize(x: np.ndarray):
    """Per-row (x - mean) / sqrt(var + eps) over the last axis, and 1 / sqrt(var + eps).

    Every row is reduced on its own, so a row gives the same bits alone or
    inside a larger array.
    """
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = x - mean
    xhat *= inv
    return xhat, inv


def _standardized(it: PreparedUtterance) -> _Standardized:
    """The float64 x̂ of an utterance's streams (dim-major) and opensmile block, and ŝ."""
    xhat = _standardize(np.ascontiguousarray(it.streams, dtype=np.float64))[0]
    osm = None if it.osm is None else _standardize(np.ascontiguousarray(it.osm, dtype=np.float64))[0]
    dtn = np.ascontiguousarray(xhat.transpose(2, 1, 0))
    return _Standardized(it.utt_id, dtn, xhat.mean(axis=1), it.label, osm)


def _pad(items: list[_Standardized]) -> Batch:
    """Zero-pad already standardized utterances to a common frame count."""
    if not items:
        raise ValueError("empty batch")
    dim, _, n_layers = items[0].xhat.shape
    has_osm = items[0].osm is not None
    t_max = max(it.xhat.shape[1] for it in items)
    x = np.zeros((len(items), dim, t_max, n_layers))
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
        x[i, :, :t] = it.xhat
        s_hat[i] = it.s_hat
        mask[i, :t] = True
        if has_osm:
            osm[i, :t] = it.osm
        labels[i] = it.label
    return Batch(x, s_hat, mask, labels, osm)


def collate(items: list[PreparedUtterance]) -> Batch:
    """Standardize each utterance and pad the batch to a common frame count.

    Padded frames stay 0, which is what standardizing a zero frame gives.
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


def forward_batch(params: ModelParams, batch: Batch):
    """Loss plus a cache of every intermediate the reverse pass needs."""
    fp, hp = params.fusion, params.head
    if fp.augmented != (batch.osm is not None):
        raise ValueError("model and batch disagree about the opensmile branch")
    if not batch.mask.any(axis=1).all():
        raise ValueError("utterance with no valid frames")

    # layer summaries, the valid-frame means of y = g x̂ + b, and attention weights
    s = fp.layer_gain * batch.s_hat + fp.layer_bias
    tau = temperature_from_raw(fp.temperature_raw)
    u = s @ fp.attn_w / tau
    u_shift = u - u.max(axis=1, keepdims=True)
    eu = np.exp(u_shift)
    alpha = eu / eu.sum(axis=1, keepdims=True)

    # fused sequence f = Σₙ (αₙ gₙ) x̂ₙ + Σₙ αₙ bₙ, one matvec per utterance and dim
    ag = alpha[:, None, :] * fp.layer_gain.T
    f = np.matmul(batch.x, ag[..., None])[..., 0].transpose(0, 2, 1).copy()
    f += (alpha @ fp.layer_bias)[:, None, :]

    if fp.augmented:
        f_xhat, f_inv = _standardize(f)
        fhat_out = fp.mod_gain_fused * f_xhat + fp.mod_bias_fused
        ohat_out = fp.mod_gain_osm * batch.osm + fp.mod_bias_osm
        z = np.concatenate(
            [float(fp.gamma_fused) * fhat_out, float(fp.gamma_osm) * ohat_out], axis=2
        )
    else:
        fhat_out = f_xhat = f_inv = ohat_out = None
        z = f

    # attentive statistics pooling over valid frames
    e = np.where(batch.mask, z @ hp.pool_v, -np.inf)
    e_shift = e - e.max(axis=1, keepdims=True)
    ee = np.exp(e_shift)
    a_t = ee / ee.sum(axis=1, keepdims=True)
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
    de = a_t * (da - (a_t * da).sum(axis=1, keepdims=True))
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

    # fused sum: one contraction over frames, G[b, d, n] = Σₜ df[b, t, d] x̂[b, d, t, n];
    # df is 0 on padded frames, where the pooling weight is 0
    alpha = cache["alpha"]
    g = np.matmul(np.ascontiguousarray(df.transpose(0, 2, 1))[:, :, None, :], batch.x)[:, :, 0, :]
    df_sum = df.sum(axis=1)
    dalpha = np.einsum("bdn,nd->bn", g, fp.layer_gain) + df_sum @ fp.layer_bias.T

    # attention softmax, temperature, scorer
    s, u, tau = cache["s"], cache["u"], cache["tau"]
    du = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
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
    return _predict_batches(params, _padded_batches(x, batch_size), len(x))


def _padded_batches(items: list[_Standardized], batch_size: int):
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
    """Adaptive step with first/second moment scaling and global norm clipping."""

    def __init__(self, params: ModelParams, config: TrainConfig):
        self.config = config
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.param_items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.param_items()}

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        cfg = self.config
        gnorm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        scale = cfg.clip_norm / gnorm if gnorm > cfg.clip_norm else 1.0
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        for name, arr in params.param_items():
            g = grads[name] * scale
            self.m[name] = cfg.beta1 * self.m[name] + (1.0 - cfg.beta1) * g
            self.v[name] = cfg.beta2 * self.v[name] + (1.0 - cfg.beta2) * g * g
            step = (self.m[name] / bc1) / (np.sqrt(self.v[name] / bc2) + cfg.adam_eps)
            arr[...] = arr - cfg.learning_rate * step


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
    class_weights: np.ndarray


def train(
    train_items: list[PreparedUtterance],
    dev_items: list[PreparedUtterance],
    config: TrainConfig,
) -> TrainResult:
    """Deterministic mini-batch training; returns the best-dev-epoch parameters.

    Batches are processed in sorted utterance order within each batch, so
    final parameters depend on batch composition only, not on the order the
    caller stored the utterances. Each train and dev utterance is
    standardized once, and dev is padded into batches once, before the
    first epoch.
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
    dev_batches = list(_padded_batches([_standardized(it) for it in dev_items], 64))
    dev_labels = np.array([it.label for it in dev_items])

    n_layers, _, dim = train_items[0].streams.shape
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
    return TrainResult(best, history, best_epoch, weights)


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
