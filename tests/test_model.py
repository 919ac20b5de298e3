from collections import Counter

import numpy as np
import pytest

import disq.model as model
from disq.dataio import generate_synthetic
from disq.fusion import LAYER_NORM_EPS, sigmoid
from disq.model import (
    Adam,
    Batch,
    HeadParams,
    PreparedUtterance,
    TrainConfig,
    backward_batch,
    collate,
    class_weights_from_labels,
    finite_difference_check,
    forward_batch,
    gradient_check,
    init_model_params,
    predict,
    train,
)
from disq.sweep import load_dataset, prepare_items
from disq.fusion import resolve_layer_set

import oracle
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


@pytest.mark.parametrize("shape", [(16, 50, 32), (7,), (3, 1), (4, 9, 1024), (2, 3, 5, 74)])
def test_standardize_has_the_bits_of_np_var(shape):
    x = 3.0 * np.random.default_rng(len(shape)).standard_normal(shape) + 1.0
    xhat, inv = model._standardize(x)
    want_inv = 1.0 / np.sqrt(np.var(x, axis=-1, keepdims=True) + LAYER_NORM_EPS)
    want = (x - x.mean(axis=-1, keepdims=True)) * want_inv
    assert np.array_equal(inv.view(np.uint64), want_inv.view(np.uint64))
    assert np.array_equal(xhat.view(np.uint64), want.view(np.uint64))
    in_place = x.copy()
    assert model._standardize(in_place, out=in_place)[0] is in_place
    assert np.array_equal(in_place.view(np.uint64), want.view(np.uint64))


# --- attentive statistics pooling -----------------------------------------------


def pooled(rng, items, pool_v=None, layer_bias=None):
    """The forward cache of a token-only model over `items`, with the given pooling scorer and biases."""
    n_layers, _, dim = items[0].streams.shape
    params = init_model_params(rng, n_layers, dim, None, hidden=4)
    if pool_v is not None:
        params.head.pool_v = pool_v
    if layer_bias is not None:
        params.fusion.layer_bias = layer_bias
    return forward_batch(params, collate(items))[1]


def test_pool_single_frame(rng):
    cache = pooled(rng, random_items(rng, n_items=1, n_layers=2, dim=5, t_range=(1, 2)), rng.standard_normal(5))
    assert cache["mu"][0] == pytest.approx(cache["z"][0, 0], rel=1e-12)
    assert cache["sd"][0] == pytest.approx(np.full(5, np.sqrt(1e-8)), rel=1e-9)


def test_pool_constant_frames(rng):
    # constant frames standardize to 0, so every fused frame is the common bias 1.5
    items = [PreparedUtterance("u", np.full((2, 6, 4), 3.0), 0)]
    cache = pooled(rng, items, rng.standard_normal(4), np.full((2, 4), 1.5))
    assert cache["mu"][0] == pytest.approx(np.full(4, 1.5), rel=1e-12)
    assert cache["sd"][0] == pytest.approx(np.full(4, 1e-4), rel=1e-6)


def test_pool_uniform_scores_match_masked_mean(rng):
    items = random_items(rng, n_items=3, n_layers=2, dim=5, t_range=(3, 10))
    items[0].streams = rng.standard_normal((2, 12, 5))  # the longest: the others pad
    cache = pooled(rng, items, np.zeros(5))
    for i, it in enumerate(items):
        t = it.streams.shape[1]
        assert cache["mu"][i] == pytest.approx(cache["z"][i, :t].mean(axis=0), rel=1e-12, abs=1e-14)


def test_pool_all_masked(rng):
    params = init_model_params(rng, 2, 4, None, hidden=4)
    batch = collate(random_items(rng, n_items=2, n_layers=2, dim=4))
    batch.mask[1] = False
    with pytest.raises(ValueError, match="no valid frames"):
        forward_batch(params, batch)


# --- MLP and weighted cross-entropy ------------------------------------------------


def zero_head(feat, hidden=4):
    return HeadParams(
        pool_v=np.zeros(feat),
        w1=np.zeros((hidden, 2 * feat)),
        b1=np.zeros(hidden),
        w2=np.zeros((8, hidden)),
        b2=np.arange(8.0),
    )


def head_forward(rng, head, items=None):
    """Params, loss and forward cache of a 2-layer, 3-dim token-only model with `head`."""
    params = init_model_params(rng, 2, 3, None, hidden=head.b1.shape[0])
    params.head = head
    loss, cache = forward_batch(params, collate(items or random_items(rng, n_items=2, n_layers=2, dim=3)))
    return params, loss, cache


def test_mlp_zero_weights_gives_bias(rng):
    _, _, cache = head_forward(rng, zero_head(3))
    assert cache["logits"] == pytest.approx(np.tile(np.arange(8.0), (2, 1)), rel=1e-12)


def test_mlp_one_hot_path(rng):
    head = zero_head(3, hidden=6)
    head.b2 = np.zeros(8)
    head.w1 = np.eye(6)
    head.w2[2, 4] = 1.0
    _, _, cache = head_forward(rng, head)
    assert cache["logits"][:, 2] == pytest.approx(np.tanh(cache["p"][:, 4]), rel=1e-12)
    assert (np.count_nonzero(cache["logits"], axis=1) == 1).all()


def test_mlp_matches_independent_evaluation(rng):
    feat, hidden = 3, 7
    head = HeadParams(
        pool_v=rng.standard_normal(feat),
        w1=rng.standard_normal((hidden, 2 * feat)),
        b1=rng.standard_normal(hidden),
        w2=rng.standard_normal((8, hidden)),
        b2=rng.standard_normal(8),
    )
    _, _, cache = head_forward(rng, head)
    for x, logits in zip(cache["p"], cache["logits"]):
        # scalar-loop oracle
        z1 = [sum(head.w1[i, j] * x[j] for j in range(2 * feat)) + head.b1[i] for i in range(hidden)]
        hh = [np.tanh(v) for v in z1]
        expected = [sum(head.w2[c, i] * hh[i] for i in range(hidden)) + head.b2[c] for c in range(8)]
        assert logits == pytest.approx(np.array(expected), abs=1e-6)


def ce_grad(rng, logits_bias, label, class_weights=None):
    """Loss and logit gradient of one utterance whose logits are `logits_bias`."""
    head = zero_head(3)
    head.b2 = np.asarray(logits_bias, dtype=np.float64)
    if class_weights is not None:
        head.class_weights = np.asarray(class_weights, dtype=np.float64)
    item = random_items(rng, n_items=1, n_layers=2, dim=3)[0]
    item.label = label
    params, loss, cache = head_forward(rng, head, [item])
    return loss, backward_batch(params, cache)["head.b2"]


def test_weighted_ce_uniform_logits(rng):
    loss, grad = ce_grad(rng, np.zeros(8), 3)
    assert loss == pytest.approx(np.log(8.0), rel=1e-12)
    assert grad == pytest.approx(np.full(8, 1 / 8) - np.eye(8)[3], rel=1e-12)


def test_weighted_ce_confident_logit(rng):
    loss, _ = ce_grad(rng, [0.0, 200.0, 0.0, 0, 0, 0, 0, 0], 1)
    assert loss < 1e-8


def test_weighted_ce_scales_with_weight(rng):
    """The batch loss and its gradient are the class-weighted means of the per-utterance ones."""
    items = random_items(rng, n_items=2, n_layers=2, dim=3)
    items[0].label, items[1].label = 6, 2
    head = zero_head(3)
    head.b2 = np.array([1.0, -2.0, 0.5, 0, 0.3, -1, 2, 0])
    weights = np.full(8, 1.0)
    weights[6] = 2.5
    params = init_model_params(rng, 2, 3, None, hidden=4)
    params.head = head
    single = []
    for it in items:
        loss, cache = forward_batch(params, collate([it]))
        single.append((loss, backward_batch(params, cache)["head.b2"]))
    head.class_weights = weights
    loss, cache = forward_batch(params, collate(items))
    grad = backward_batch(params, cache)["head.b2"]
    assert loss == pytest.approx((2.5 * single[0][0] + single[1][0]) / 3.5, rel=1e-12)
    assert grad == pytest.approx((2.5 * single[0][1] + single[1][1]) / 3.5, rel=1e-12)


def test_weighted_ce_gradient_matches_finite_differences(rng):
    logits = rng.standard_normal(8)
    weights = rng.uniform(0.5, 2.0, 8)
    label = 5
    _, grad = ce_grad(rng, logits, label, weights)
    eps = 1e-4
    for i in range(8):
        bump = np.zeros(8)
        bump[i] = eps
        hi, _ = ce_grad(rng, logits + bump, label, weights)
        lo, _ = ce_grad(rng, logits - bump, label, weights)
        fd = (hi - lo) / (2 * eps)
        assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6) < 1e-4


def test_weighted_ce_rejects_non_finite(rng):
    with pytest.raises(FloatingPointError):
        ce_grad(rng, [np.nan] * 8, 0)


# --- batched forward vs the per-utterance oracle ---------------------------------------


@pytest.mark.parametrize("osm_dim", [None, 6])
def test_forward_batch_matches_composed_ops(rng, osm_dim):
    n_layers, dim = 3, 5
    items = random_items(rng, n_items=1, n_layers=n_layers, dim=dim, osm_dim=osm_dim)
    it = items[0]
    params = init_model_params(rng, n_layers, dim, osm_dim, hidden=9)
    batch = collate(items)
    loss, cache = forward_batch(params, batch)

    ref_loss, alpha, logits = oracle.forward(params, it.streams, it.label, it.osm)

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

    # garbage opensmile frames behind five more padded frames; x̂ stays the utterance's own
    padded = Batch(
        x=batch.x,
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
    assert len(batch.x) == len(items)
    for x, ref, it in zip(batch.x, ref_x, items):  # each utterance's x̂ against the oracle's valid frames
        ref = np.ascontiguousarray(ref[:, : it.streams.shape[1]])
        assert x.dtype == np.float64
        assert x.shape == ref.shape and x.tobytes() == ref.tobytes()
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


class PerTensorAdam:
    """The optimizer as it stepped each tensor on its own, before the flat parameter vector."""

    def __init__(self, params, config):
        self.config = config
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.param_items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.param_items()}

    def step(self, params, grads):
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


def test_flat_adam_matches_the_per_tensor_update_bitwise(rng):
    items = random_items(rng, n_items=4, n_layers=3, dim=5, osm_dim=4)
    batch = collate(items)
    cfg = TrainConfig(learning_rate=1e-2, hidden=6)
    flat = init_model_params(rng, 3, 5, 4, hidden=6, class_weights=rng.uniform(0.5, 2, 8))
    ref = flat.copy()
    flat_opt, ref_opt = Adam(flat, cfg), PerTensorAdam(ref, cfg)
    clipped = []
    for step in range(4):
        grads = [backward_batch(p, forward_batch(p, batch)[1]) for p in (flat, ref)]
        if step == 2:  # blow the gradients up past clip_norm
            grads = [{name: 1e3 * g for name, g in gr.items()} for gr in grads]
        clipped.append(np.sqrt(sum(float((g * g).sum()) for g in grads[0].values())) > cfg.clip_norm)
        flat_opt.step(flat, grads[0])
        ref_opt.step(ref, grads[1])
        for (name, a), (_, b) in zip(flat.param_items(), ref.param_items()):
            assert a.tobytes() == b.tobytes(), (step, name)
    assert clipped == [False, False, True, False]
    assert flat_opt.m.tobytes() == np.concatenate([m.ravel() for m in ref_opt.m.values()]).tobytes()
    assert flat_opt.v.tobytes() == np.concatenate([v.ravel() for v in ref_opt.v.values()]).tobytes()


def test_adam_views_and_rebinding(rng):
    params = init_model_params(rng, 2, 4, 3, hidden=5)
    before = [arr.copy() for _, arr in params.param_items()]
    opt = Adam(params, TrainConfig(hidden=5))
    for (name, arr), old in zip(params.param_items(), before):
        assert np.shares_memory(arr, opt.flat) and np.array_equal(arr, old), name
    # `train` keeps its best epoch as a copy, which later steps must not move
    assert not any(np.shares_memory(arr, opt.flat) for _, arr in params.copy().param_items())
    grads = {name: np.ones_like(arr) for name, arr in params.param_items()}
    params.head.w1 = params.head.w1.copy()  # a step would no longer reach this tensor
    with pytest.raises(ValueError, match="view"):
        opt.step(params, grads)


def test_train_batches_refer_to_the_standardized_inputs(rng, monkeypatch):
    """No batch copies x̂: every Batch.x[j] is memory of exactly one utterance's standardized array."""
    train_items = random_items(rng, n_items=20, n_layers=2, dim=5, osm_dim=3)
    for i, it in enumerate(train_items):
        it.label = i % 8
    dev_items = random_items(rng, n_items=7, n_layers=2, dim=5, osm_dim=3)
    made, seen = [], []
    real_standardized, real_forward = model._standardized, model.forward_batch

    def standardized(it):
        out = real_standardized(it)
        made.append(out.xhat)
        return out

    def forward(params, batch):
        for x in batch.x:
            assert sum(np.shares_memory(x, xhat) for xhat in made) == 1
        seen.append(batch.size)
        return real_forward(params, batch)

    monkeypatch.setattr(model, "_standardized", standardized)
    monkeypatch.setattr(model, "forward_batch", forward)
    train(train_items, dev_items, TrainConfig(epochs=2, batch_size=4, hidden=4))
    assert sum(seen) == 2 * (len(train_items) + len(dev_items))


def test_forward_batch_rejects_x_that_disagrees_with_the_mask(rng):
    params = init_model_params(rng, 2, 4, None, hidden=4)
    items = [PreparedUtterance(f"u{t}", rng.standard_normal((2, t, 4)), 0) for t in (4, 8)]
    batch = collate(items)
    batch.x = (batch.x[0][:, :-1], batch.x[1])
    with pytest.raises(ValueError, match="frame count"):
        forward_batch(params, batch)
    batch = collate(items)
    batch.mask[0] = np.roll(batch.mask[0], 1)  # four valid frames still, but not the first four
    with pytest.raises(ValueError, match="prefix"):
        forward_batch(params, batch)


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
