from collections import Counter

import numpy as np
import pytest

import disq.model as model
from disq.dataio import generate_synthetic
from disq.fusion import (
    LAYER_NORM_EPS,
    fuse_layers,
    layer_attention,
    layer_norm,
    masked_average_pool,
    modality_fuse,
    sigmoid,
)
from disq.model import (
    Adam,
    Batch,
    HeadParams,
    PreparedUtterance,
    TrainConfig,
    attentive_stats_pool,
    backward_batch,
    collate,
    class_weights_from_labels,
    finite_difference_check,
    forward_batch,
    gradient_check,
    init_model_params,
    mlp_forward,
    predict,
    train,
    weighted_ce,
)
from disq.sweep import load_dataset, prepare_items
from disq.fusion import resolve_layer_set

from conftest import tiny_spec, tiny_train_config


def random_items(rng, n_items=3, n_layers=3, dim=6, osm_dim=None, t_range=(4, 9)):
    items = []
    for i in range(n_items):
        t = int(rng.integers(*t_range))
        items.append(
            PreparedUtterance(
                utt_id=f"u{i}",
                streams=rng.standard_normal((n_layers, t, dim)),
                label=int(rng.integers(8)),
                osm=rng.standard_normal((t, osm_dim)) if osm_dim else None,
            )
        )
    return items


# --- attentive statistics pooling -----------------------------------------------


def test_pool_single_frame(rng):
    h = rng.standard_normal((1, 5))
    out = attentive_stats_pool(h, np.ones(1, bool), rng.standard_normal(5))
    assert out[:5] == pytest.approx(h[0], rel=1e-12)
    assert out[5:] == pytest.approx(np.full(5, np.sqrt(1e-8)), rel=1e-9)


def test_pool_constant_frames(rng):
    h = np.full((6, 4), 1.5)
    out = attentive_stats_pool(h, np.ones(6, bool), rng.standard_normal(4))
    assert out[:4] == pytest.approx(np.full(4, 1.5), rel=1e-12)
    assert out[4:] == pytest.approx(np.full(4, 1e-4), rel=1e-6)


def test_pool_uniform_scores_match_masked_mean(rng):
    h = rng.standard_normal((9, 5))
    mask = np.array([True, True, False, True, False, True, True, False, True])
    out = attentive_stats_pool(h, mask, np.zeros(5))
    assert out[:5] == pytest.approx(masked_average_pool(h, mask), rel=1e-12)


def test_pool_all_masked(rng):
    with pytest.raises(ValueError):
        attentive_stats_pool(np.zeros((3, 2)), np.zeros(3, bool), np.zeros(2))


# --- MLP and weighted cross-entropy ------------------------------------------------


def zero_head(feat, hidden=4):
    return HeadParams(
        pool_v=np.zeros(feat),
        w1=np.zeros((hidden, 2 * feat)),
        b1=np.zeros(hidden),
        w2=np.zeros((8, hidden)),
        b2=np.arange(8.0),
    )


def test_mlp_zero_weights_gives_bias():
    head = zero_head(3)
    assert mlp_forward(np.ones(6), head) == pytest.approx(np.arange(8.0), rel=1e-12)


def test_mlp_one_hot_path(rng):
    head = zero_head(3, hidden=6)
    head.b2 = np.zeros(8)
    head.w1 = np.eye(6)
    head.w2 = np.zeros((8, 6))
    head.w2[2, 4] = 1.0
    x = rng.standard_normal(6)
    logits = mlp_forward(x, head)
    assert logits[2] == pytest.approx(np.tanh(x[4]), rel=1e-12)
    assert np.count_nonzero(logits) == 1


def test_mlp_matches_independent_evaluation(rng):
    feat, hidden = 5, 7
    head = HeadParams(
        pool_v=np.zeros(feat),
        w1=rng.standard_normal((hidden, 2 * feat)),
        b1=rng.standard_normal(hidden),
        w2=rng.standard_normal((8, hidden)),
        b2=rng.standard_normal(8),
    )
    x = rng.standard_normal(2 * feat)
    # scalar-loop oracle
    z1 = [sum(head.w1[i, j] * x[j] for j in range(2 * feat)) + head.b1[i] for i in range(hidden)]
    hh = [np.tanh(v) for v in z1]
    expected = [
        sum(head.w2[c, i] * hh[i] for i in range(hidden)) + head.b2[c] for c in range(8)
    ]
    assert mlp_forward(x, head) == pytest.approx(np.array(expected), abs=1e-6)


def test_weighted_ce_uniform_logits():
    loss, grad = weighted_ce(np.zeros(8), 3, np.ones(8))
    assert loss == pytest.approx(np.log(8.0), rel=1e-12)
    assert grad == pytest.approx(np.full(8, 1 / 8) - np.eye(8)[3], rel=1e-12)


def test_weighted_ce_confident_logit():
    loss, _ = weighted_ce(np.array([0.0, 200.0, 0.0, 0, 0, 0, 0, 0]), 1, np.ones(8))
    assert loss < 1e-8


def test_weighted_ce_scales_with_weight():
    logits = np.array([1.0, -2.0, 0.5, 0, 0.3, -1, 2, 0])
    w = np.full(8, 2.5)
    loss1, grad1 = weighted_ce(logits, 6, np.ones(8))
    loss2, grad2 = weighted_ce(logits, 6, w)
    assert loss2 == pytest.approx(2.5 * loss1, rel=1e-12)
    assert grad2 == pytest.approx(2.5 * grad1, rel=1e-12)


def test_weighted_ce_gradient_matches_finite_differences(rng):
    logits = rng.standard_normal(8)
    weights = rng.uniform(0.5, 2.0, 8)
    label = 5
    _, grad = weighted_ce(logits, label, weights)
    eps = 1e-4
    for i in range(8):
        bump = np.zeros(8)
        bump[i] = eps
        hi, _ = weighted_ce(logits + bump, label, weights)
        lo, _ = weighted_ce(logits - bump, label, weights)
        fd = (hi - lo) / (2 * eps)
        assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6) < 1e-4


def test_weighted_ce_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        weighted_ce(np.array([np.nan] * 8), 0, np.ones(8))


# --- batched forward vs composed reference operations ------------------------------


@pytest.mark.parametrize("osm_dim", [None, 6])
def test_forward_batch_matches_composed_ops(rng, osm_dim):
    n_layers, dim = 3, 5
    items = random_items(rng, n_items=1, n_layers=n_layers, dim=dim, osm_dim=osm_dim)
    it = items[0]
    params = init_model_params(rng, n_layers, dim, osm_dim, hidden=9)
    batch = collate(items)
    loss, cache = forward_batch(params, batch)

    fp, hp = params.fusion, params.head
    normed = [
        layer_norm(it.streams[l], fp.layer_gain[l], fp.layer_bias[l]) for l in range(n_layers)
    ]
    valid = np.ones(it.streams.shape[1], dtype=bool)
    summaries = np.stack([masked_average_pool(h, valid) for h in normed])
    alpha = layer_attention(summaries, fp.attn_w, fp.temperature())
    fused = fuse_layers(normed, alpha)
    z = modality_fuse(fused, it.osm, fp) if osm_dim else fused
    pooled = attentive_stats_pool(z, valid, hp.pool_v)
    logits = mlp_forward(pooled, hp)
    ref_loss, _ = weighted_ce(logits, it.label, hp.class_weights)
    ref_loss /= hp.class_weights[it.label]

    assert cache["alpha"][0] == pytest.approx(alpha, rel=1e-9)
    assert cache["logits"][0] == pytest.approx(logits, rel=1e-9)
    assert loss == pytest.approx(ref_loss, rel=1e-9)


def test_padded_frames_contribute_nothing(rng):
    n_layers, dim = 2, 4
    items = random_items(rng, n_items=1, n_layers=n_layers, dim=dim, osm_dim=3)
    params = init_model_params(rng, n_layers, dim, 3, hidden=6)
    batch = collate(items)
    loss, cache = forward_batch(params, batch)
    grads = backward_batch(params, cache)

    t = items[0].streams.shape[1]
    padded = Batch(
        x=np.concatenate([batch.x, rng.standard_normal((1, dim, 5, n_layers))], axis=2),
        s_hat=batch.s_hat,
        mask=np.concatenate([batch.mask, np.zeros((1, 5), bool)], axis=1),
        labels=batch.labels,
        osm=np.concatenate([batch.osm, rng.standard_normal((1, 5, 3))], axis=1),
    )
    loss_p, cache_p = forward_batch(params, padded)
    grads_p = backward_batch(params, cache_p)
    assert loss_p == pytest.approx(loss, rel=1e-12)
    for name in grads:
        assert grads_p[name] == pytest.approx(grads[name], rel=1e-9, abs=1e-12), name


def test_zero_class_weights_zero_gradients(rng):
    items = random_items(rng, n_items=2, n_layers=2, dim=4, osm_dim=3)
    params = init_model_params(rng, 2, 4, 3, hidden=5)
    params.head.class_weights = np.zeros(8)  # bypasses the >0 invariant on purpose
    loss, cache = forward_batch(params, collate(items))
    grads = backward_batch(params, cache)
    assert loss == 0.0
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_gamma_osm_gradient_zero_for_zero_osm_branch(rng):
    items = random_items(rng, n_items=2, n_layers=2, dim=4, osm_dim=3)
    for it in items:
        it.osm = np.zeros_like(it.osm)
    params = init_model_params(rng, 2, 4, 3, hidden=5)
    params.fusion.mod_bias_osm = np.zeros(3)
    loss, cache = forward_batch(params, collate(items))
    grads = backward_batch(params, cache)
    assert grads["fusion.gamma_osm"] == pytest.approx(0.0, abs=1e-15)


def test_full_gradient_check_is_tight():
    assert gradient_check(seed=0) < 1e-3


def test_finite_difference_check_covers_every_parameter(rng):
    items = random_items(rng, n_items=2, n_layers=2, dim=4, osm_dim=3)
    params = init_model_params(rng, 2, 4, 3, hidden=5, class_weights=rng.uniform(0.5, 2, 8))
    worst, per_param = finite_difference_check(params, collate(items))
    expected_names = {name for name, _ in params.param_items()}
    assert set(per_param) == expected_names
    assert len(expected_names) == 15  # 10 fusion tensors + 5 head tensors
    assert worst < 1e-3


FUSION_CORE = ["layer_gain", "layer_bias", "attn_w", "temperature_raw"]
MODALITY = ["mod_gain_fused", "mod_bias_fused", "mod_gain_osm", "mod_bias_osm", "gamma_fused", "gamma_osm"]
HEAD = ["pool_v", "w1", "b1", "w2", "b2"]


@pytest.mark.parametrize("osm_dim", [None, 3])
def test_param_items_names_and_order(rng, osm_dim):
    params = init_model_params(rng, 2, 4, osm_dim, hidden=5)
    fusion = FUSION_CORE + (MODALITY if osm_dim else [])
    expected = [f"fusion.{n}" for n in fusion] + [f"head.{n}" for n in HEAD]
    assert [name for name, _ in params.param_items()] == expected
    for name, arr in params.param_items():
        part, field_name = name.split(".")
        assert arr is getattr(getattr(params, part), field_name)


@pytest.mark.parametrize("osm_dim", [None, 3])
def test_copy_shares_no_array(rng, osm_dim):
    params = init_model_params(rng, 2, 4, osm_dim, hidden=5, class_weights=rng.uniform(0.5, 2, 8))
    clone = params.copy()
    for part in ("fusion", "head"):
        for name, arr in vars(getattr(params, part)).items():
            twin = getattr(getattr(clone, part), name)
            if arr is None:
                assert twin is None, name
            else:
                assert not np.shares_memory(arr, twin), name
                assert np.array_equal(arr, twin), name


# --- standardized inputs ------------------------------------------------------------


def reference_standardized_batch(items):
    """Inputs as a batch held them before the hoist: pad the raw streams with
    zeros, then standardize every frame of the padded batch in one go."""
    n_layers, _, dim = items[0].streams.shape
    t_max = max(it.streams.shape[1] for it in items)
    x = np.zeros((len(items), n_layers, t_max, dim))
    osm = None if items[0].osm is None else np.zeros((len(items), t_max, items[0].osm.shape[1]))
    for i, it in enumerate(items):
        t = it.streams.shape[1]
        x[i, :, :t] = it.streams
        if osm is not None:
            osm[i, :t] = it.osm

    def standardize(a):
        mean = a.mean(axis=-1, keepdims=True)
        var = a.var(axis=-1, keepdims=True)
        return (a - mean) * (1.0 / np.sqrt(var + LAYER_NORM_EPS))

    return standardize(x), None if osm is None else standardize(osm)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("osm_dim", [None, 7])
def test_collate_equals_standardizing_the_padded_batch_bitwise(rng, dtype, osm_dim):
    items = random_items(rng, n_items=6, n_layers=3, dim=32, osm_dim=osm_dim, t_range=(2, 12))
    items[0].streams = rng.standard_normal((3, 12, 32))  # the longest: every other item pads
    if osm_dim:
        items[0].osm = rng.standard_normal((12, osm_dim))
    for it in items:
        it.streams = (5.0 * it.streams + 3.0).astype(dtype)
        if osm_dim:
            it.osm = it.osm.astype(dtype)
    assert len({it.streams.shape[1] for it in items}) > 1
    batch = collate(items)
    ref_x, ref_osm = reference_standardized_batch(items)
    ref_x = ref_x.transpose(0, 3, 2, 1)
    assert batch.x.dtype == np.float64
    assert batch.x.shape == ref_x.shape and batch.x.tobytes() == ref_x.tobytes()
    if osm_dim is None:
        assert batch.osm is None
    else:
        assert batch.osm.dtype == np.float64
        assert batch.osm.shape == ref_osm.shape and batch.osm.tobytes() == ref_osm.tobytes()


def count_standardized(monkeypatch) -> list:
    """Patch the per-utterance standardization to record every utterance it sees."""
    seen = []
    real = model._standardized

    def counting(it):
        seen.append(it)
        return real(it)

    monkeypatch.setattr(model, "_standardized", counting)
    return seen


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_standardizes_each_utterance_once_per_call(rng, monkeypatch, epochs):
    train_items = random_items(rng, n_items=20, n_layers=2, dim=5, osm_dim=3)
    for i, it in enumerate(train_items):
        it.label = i % 8
    dev_items = random_items(rng, n_items=7, n_layers=2, dim=5, osm_dim=3)
    seen = count_standardized(monkeypatch)
    train(train_items, dev_items, TrainConfig(epochs=epochs, batch_size=4, hidden=4))
    assert sorted(map(id, seen)) == sorted(map(id, train_items + dev_items))
    seen.clear()
    train(train_items, dev_items, TrainConfig(epochs=epochs, batch_size=4, hidden=4))
    assert len(seen) == len(train_items) + len(dev_items)


def test_predict_standardizes_each_utterance_once_per_call(rng, monkeypatch):
    items = random_items(rng, n_items=10, n_layers=2, dim=5)
    params = init_model_params(rng, 2, 5, None, 4)
    expected = predict(params, items, batch_size=3)
    seen = count_standardized(monkeypatch)
    preds, alphas = predict(params, items, batch_size=3)
    assert sorted(map(id, seen)) == sorted(map(id, items))
    assert np.array_equal(preds, expected[0]) and np.array_equal(alphas, expected[1])


def count_padded(monkeypatch) -> Counter:
    """Patch the batch padding to count how often each utterance id is padded."""
    padded = Counter()
    real = model._pad

    def counting(items):
        padded.update(it.utt_id for it in items)
        return real(items)

    monkeypatch.setattr(model, "_pad", counting)
    return padded


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_pads_dev_once_per_call(rng, monkeypatch, epochs):
    train_items = random_items(rng, n_items=20, n_layers=2, dim=5, osm_dim=3)
    for i, it in enumerate(train_items):
        it.label = i % 8
    dev_items = random_items(rng, n_items=7, n_layers=2, dim=5, osm_dim=3)
    for i, it in enumerate(dev_items):
        it.utt_id = f"d{i}"
    padded = count_padded(monkeypatch)
    train(train_items, dev_items, TrainConfig(epochs=epochs, batch_size=4, hidden=4))
    assert padded == Counter({it.utt_id: 1 for it in dev_items} | {it.utt_id: epochs for it in train_items})


# --- the layer block against the einsum oracle ---------------------------------------


def einsum_forward_backward(params, x, mask, labels, osm):
    """Loss, alpha and gradients as the model computed them before the layer block was
    factored: y = g * x̂ + b and its gradient dy, both (B, n_layers, T, dim), are built
    in full. x and osm are x̂ in that layout (see `reference_standardized_batch`)."""
    fp, hp = params.fusion, params.head
    m = mask.astype(np.float64)
    cnt = m.sum(axis=1)
    y = fp.layer_gain[None, :, None, :] * x + fp.layer_bias[None, :, None, :]
    s = np.einsum("bt,bntd->bnd", m, y) / cnt[:, None, None]
    tau = fp.temperature()
    u = s @ fp.attn_w / tau
    eu = np.exp(u - u.max(axis=1, keepdims=True))
    alpha = eu / eu.sum(axis=1, keepdims=True)
    f = np.einsum("bn,bntd->btd", alpha, y)
    if fp.augmented:
        f_mean = f.mean(axis=-1, keepdims=True)
        f_inv = 1.0 / np.sqrt(f.var(axis=-1, keepdims=True) + LAYER_NORM_EPS)
        f_xhat = (f - f_mean) * f_inv
        fhat_out = fp.mod_gain_fused * f_xhat + fp.mod_bias_fused
        ohat_out = fp.mod_gain_osm * osm + fp.mod_bias_osm
        z = np.concatenate([float(fp.gamma_fused) * fhat_out, float(fp.gamma_osm) * ohat_out], axis=2)
    else:
        z = f
    e = np.where(mask, z @ hp.pool_v, -np.inf)
    ee = np.exp(e - e.max(axis=1, keepdims=True))
    a_t = ee / ee.sum(axis=1, keepdims=True)
    mu = np.einsum("bt,btf->bf", a_t, z)
    var = np.einsum("bt,btf->bf", a_t, z * z) - mu * mu
    sd = np.sqrt(np.maximum(var, model.VAR_FLOOR))
    p = np.concatenate([mu, sd], axis=1)
    hh = np.tanh(p @ hp.w1.T + hp.b1)
    logits = hh @ hp.w2.T + hp.b2
    wv = hp.class_weights[labels]
    shift = logits - logits.max(axis=1, keepdims=True)
    logp = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    rows = np.arange(len(labels))
    loss = float(-(wv * logp[rows, labels]).sum() / wv.sum())

    g = {}
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    dlogits *= wv[:, None] / wv.sum()
    g["head.w2"] = dlogits.T @ hh
    g["head.b2"] = dlogits.sum(axis=0)
    dz1 = (dlogits @ hp.w2) * (1.0 - hh * hh)
    g["head.w1"] = dz1.T @ p
    g["head.b1"] = dz1.sum(axis=0)
    dp = dz1 @ hp.w1
    feat = z.shape[2]
    dvar = np.where(var > model.VAR_FLOOR, dp[:, feat:] * 0.5 / sd, 0.0)
    dmu = dp[:, :feat] - 2.0 * mu * dvar
    dz = a_t[:, :, None] * (dmu[:, None, :] + 2.0 * z * dvar[:, None, :])
    da = np.einsum("btf,bf->bt", z, dmu) + np.einsum("btf,bf->bt", z * z, dvar)
    de = a_t * (da - (a_t * da).sum(axis=1, keepdims=True))
    g["head.pool_v"] = np.einsum("bt,btf->f", de, z)
    dz += de[:, :, None] * hp.pool_v
    if fp.augmented:
        dzf, dzo = dz[:, :, : fp.dim], dz[:, :, fp.dim :]
        g["fusion.gamma_fused"] = np.array((dzf * fhat_out).sum())
        g["fusion.gamma_osm"] = np.array((dzo * ohat_out).sum())
        dyf, dyo = float(fp.gamma_fused) * dzf, float(fp.gamma_osm) * dzo
        g["fusion.mod_gain_fused"] = (dyf * f_xhat).sum(axis=(0, 1))
        g["fusion.mod_bias_fused"] = dyf.sum(axis=(0, 1))
        g["fusion.mod_gain_osm"] = (dyo * osm).sum(axis=(0, 1))
        g["fusion.mod_bias_osm"] = dyo.sum(axis=(0, 1))
        dxh = dyf * fp.mod_gain_fused
        df = f_inv * (
            dxh - dxh.mean(axis=-1, keepdims=True) - f_xhat * (dxh * f_xhat).mean(axis=-1, keepdims=True)
        )
    else:
        df = dz
    dalpha = np.einsum("btd,bntd->bn", df, y)
    dy = np.einsum("bn,btd->bntd", alpha, df)
    du = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    g["fusion.attn_w"] = np.einsum("bn,bnd->d", du, s) / tau
    ds = du[:, :, None] * (fp.attn_w / tau)
    dtau = -float((du * u).sum()) / tau
    g["fusion.temperature_raw"] = np.array(dtau * float(sigmoid(fp.temperature_raw)))
    dy += np.einsum("bt,bnd->bntd", m / cnt[:, None], ds)
    g["fusion.layer_gain"] = np.einsum("bntd,bntd->nd", dy, x)
    g["fusion.layer_bias"] = dy.sum(axis=(0, 2))
    return loss, alpha, g


@pytest.mark.parametrize("osm_dim", [None, 5])
@pytest.mark.parametrize("seed", range(4))
def test_layer_block_matches_the_einsum_oracle(seed, osm_dim):
    rng = np.random.default_rng([seed, 29])
    n_layers, dim = 4, 6
    items = random_items(rng, n_items=5, n_layers=n_layers, dim=dim, osm_dim=osm_dim, t_range=(2, 11))
    assert len({it.streams.shape[1] for it in items}) > 1
    params = init_model_params(rng, n_layers, dim, osm_dim, hidden=7, class_weights=rng.uniform(0.5, 2, 8))
    for _, arr in params.param_items():  # gains and biases away from their 1 / 0 initialization
        arr += 0.5 * rng.standard_normal(arr.shape)
    loss, cache = forward_batch(params, collate(items))
    grads = backward_batch(params, cache)

    x, osm = reference_standardized_batch(items)
    mask = np.arange(x.shape[2]) < np.array([it.streams.shape[1] for it in items])[:, None]
    labels = np.array([it.label for it in items])
    ref_loss, ref_alpha, ref_grads = einsum_forward_backward(params, x, mask, labels, osm)

    assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
    assert np.abs(cache["alpha"] - ref_alpha).max() <= 1e-10 * np.abs(ref_alpha).max()
    assert set(grads) == set(ref_grads) == {name for name, _ in params.param_items()}
    for name, ref in ref_grads.items():
        err = np.abs(grads[name] - ref).max()
        bound = 1e-10 * np.abs(ref).max()
        assert err <= bound, (name, err, bound)


@pytest.mark.parametrize("osm_dim", [None, 5])
@pytest.mark.parametrize("seed", range(4))
def test_every_trainable_tensor_moves_the_loss(seed, osm_dim):
    """A tensor whose gradient is 0 on every batch (say, an offset that a softmax
    cancels) trains on rounding noise alone; none may be a parameter."""
    rng = np.random.default_rng([seed, 31])
    items = random_items(rng, n_items=5, n_layers=4, dim=6, osm_dim=osm_dim, t_range=(2, 11))
    params = init_model_params(rng, 4, 6, osm_dim, hidden=7, class_weights=rng.uniform(0.5, 2, 8))
    _, cache = forward_batch(params, collate(items))
    largest = {name: np.abs(g).max() for name, g in backward_batch(params, cache).items()}
    assert set(largest) == {name for name, _ in params.param_items()}
    for name, value in largest.items():
        assert value > 1e-8 * max(largest.values()), (name, value)


# --- training loop ------------------------------------------------------------------


def separable_items(rng, n=48, n_layers=2, dim=8):
    items = []
    means = rng.standard_normal((8, dim)) * 3.0
    for i in range(n):
        label = i % 8
        t = int(rng.integers(5, 9))
        streams = means[label] + 0.3 * rng.standard_normal((n_layers, t, dim))
        items.append(PreparedUtterance(f"u{i:03d}", streams, label))
    return items


def test_train_zero_learning_rate_is_a_no_op(rng):
    items = separable_items(rng)
    cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=8, hidden=6, seed=0)
    result = train(items, items[:16], cfg)
    fresh = init_model_params(
        np.random.default_rng([0, 11]), 2, 8, None, 6,
        class_weights=class_weights_from_labels([it.label for it in items]),
    )
    for (name, arr), (_, arr2) in zip(result.params.param_items(), fresh.param_items()):
        assert np.array_equal(arr, arr2), name
    devs = [h.dev_macro_f1 for h in result.history]
    assert len(set(devs)) == 1


def test_train_rejects_missing_class(rng):
    items = [it for it in separable_items(rng) if it.label == 0]
    with pytest.raises(ValueError):
        train(items, items, TrainConfig(epochs=1, hidden=4))


def test_train_rejects_empty_splits(rng):
    items = separable_items(rng)
    with pytest.raises(ValueError):
        train([], items, TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train(items, [], TrainConfig(epochs=1))


def test_training_loss_halves_on_separable_data(rng):
    items = separable_items(rng, n=64)
    cfg = TrainConfig(learning_rate=5e-3, epochs=20, batch_size=8, hidden=16, seed=1)
    result = train(items, items[:16], cfg)
    losses = [h.train_loss for h in result.history]
    assert losses[-1] < 0.5 * losses[0]


def test_train_is_deterministic_and_batch_order_invariant(rng):
    items = separable_items(rng, n=32)
    cfg = TrainConfig(epochs=3, batch_size=8, hidden=6, seed=4)
    a = train(list(items), items[:8], cfg)
    b = train(list(reversed(items)), items[:8], cfg)
    for (name, arr_a), (_, arr_b) in zip(a.params.param_items(), b.params.param_items()):
        assert np.array_equal(arr_a, arr_b), name
    assert [h.dev_macro_f1 for h in a.history] == [h.dev_macro_f1 for h in b.history]


def test_train_inputs_stay_frozen(rng):
    items = separable_items(rng, n=32)
    before = [it.streams.copy() for it in items]
    train(items, items[:8], TrainConfig(epochs=2, batch_size=8, hidden=6))
    for it, b in zip(items, before):
        assert np.array_equal(it.streams, b)


def test_adam_step_changes_params(rng):
    items = separable_items(rng, n=16)
    params = init_model_params(rng, 2, 8, None, 4)
    opt = Adam(params, TrainConfig(learning_rate=1e-2, hidden=4))
    loss, cache = forward_batch(params, collate(items[:8]))
    grads = backward_batch(params, cache)
    w1_before = params.head.w1.copy()
    opt.step(params, grads)
    assert not np.array_equal(params.head.w1, w1_before)


def test_attention_concentrates_on_planted_layers(tmp_path):
    spec = tiny_spec(
        layer_count=6,
        layer_informativeness=(0.05, 0.05, 0.05, 0.05, 0.9, 0.9),
        n_per_class=20,
        seed=19,
    )
    generate_synthetic(spec, tmp_path)
    ds = load_dataset(tmp_path)
    _, layers = resolve_layer_set("0,1,2,3,4,5", 6)
    tr = prepare_items(ds, "train", layers, None, cache=None)
    dv = prepare_items(ds, "dev", layers, None, cache=None)
    masses = []
    for seed in (0, 1):
        result = train(tr, dv, tiny_train_config(epochs=40, seed=seed))
        _, alphas = predict(result.params, dv)
        masses.append(alphas.mean(axis=0)[4:].sum())
    assert np.mean(masses) > 0.5


def test_chance_level_without_signal(tmp_path):
    spec = tiny_spec(
        n_per_class=80,
        layer_count=2,
        feature_dim=8,
        t_range=(4, 8),
        layer_informativeness=(0.0, 0.0),
        paralinguistic_gain=0.0,
        noise_sigma=1.0,
        seed=23,
    )
    generate_synthetic(spec, tmp_path)
    ds = load_dataset(tmp_path)
    _, layers = resolve_layer_set("0,1", 2)
    tr = prepare_items(ds, "train", layers, None, cache=None)
    dv = prepare_items(ds, "dev", layers, None, cache=None)
    te = prepare_items(ds, "test", layers, None, cache=None)
    result = train(tr, dv, tiny_train_config(epochs=5, batch_size=16))
    from disq.metrics import confusion_matrix, macro_f1

    preds, _ = predict(result.params, te)
    f1 = macro_f1(confusion_matrix([it.label for it in te], preds))
    assert abs(f1 - 0.125) <= 0.05
