import warnings

import numpy as np
import pytest

from disq.fusion import (
    LAYER_SETS,
    raw_from_temperature,
    resample,
    resolve_layer_set,
    temperature_from_raw,
)
from disq.model import PreparedUtterance, collate, forward_batch, init_model_params

import oracle


def utterance(streams, osm=None):
    return PreparedUtterance("u", np.asarray(streams, dtype=np.float64), 0, osm)


def forward(params, items):
    """The batch of `items` and the cache of its forward pass."""
    batch = collate(items)
    return batch, forward_batch(params, batch)[1]


def test_named_layer_sets():
    assert LAYER_SETS["all"] == tuple(range(24))
    assert LAYER_SETS["all_but_last"] == tuple(range(23))
    assert LAYER_SETS["last_only"] == (23,)
    assert LAYER_SETS["sparse"] == (1, 3, 7, 12, 18, 23)
    assert LAYER_SETS["last8"] == tuple(range(16, 24))
    assert LAYER_SETS["ten"] == (0, 1, 2, 4, 6, 9, 12, 16, 20, 23)
    assert resolve_layer_set("1,3,7", 24) == ("1,3,7", (1, 3, 7))
    assert resolve_layer_set([2, 5], 8) == ("2,5", (2, 5))
    with pytest.raises(ValueError):
        resolve_layer_set("sparse", 12)  # indices exceed layer count
    with pytest.raises(ValueError):
        resolve_layer_set("3,1", 8)  # not increasing
    with pytest.raises(ValueError):
        resolve_layer_set("nonsense", 8)


def test_named_layer_sets_follow_the_layer_count():
    for name, layers in LAYER_SETS.items():
        assert resolve_layer_set(name, 24) == (name, layers)
    assert resolve_layer_set("all", 4) == ("all", (0, 1, 2, 3))
    assert resolve_layer_set("all_but_last", 4) == ("all_but_last", (0, 1, 2))
    assert resolve_layer_set("last_only", 4) == ("last_only", (3,))
    assert resolve_layer_set("all", 26) == ("all", tuple(range(26)))
    assert resolve_layer_set("all_but_last", 26) == ("all_but_last", tuple(range(25)))
    assert resolve_layer_set("last_only", 26) == ("last_only", (25,))
    assert resolve_layer_set("last8", 26) == ("last8", tuple(range(18, 26)))
    assert resolve_layer_set("sparse", 26) == ("sparse", LAYER_SETS["sparse"])
    assert resolve_layer_set("ten", 26) == ("ten", LAYER_SETS["ten"])
    for name in ("last8", "sparse", "ten"):
        with pytest.raises(ValueError, match="outside 0..3"):
            resolve_layer_set(name, 4)
    with pytest.raises(ValueError, match="empty"):
        resolve_layer_set("all_but_last", 1)


# --- layer norm ------------------------------------------------------------------


def test_layer_norm_constant_frame_is_bias(rng):
    """A constant frame standardizes to 0, so each layer's summary is its bias."""
    params = init_model_params(rng, 3, 5, None, hidden=4)
    params.fusion.layer_bias = rng.standard_normal((3, 5))
    batch, cache = forward(params, [utterance(np.full((3, 4, 5), 7.0))])
    assert np.array_equal(batch.x, np.zeros_like(batch.x))
    assert cache["s"][0] == pytest.approx(params.fusion.layer_bias, rel=1e-12)
    fused = cache["alpha"][0] @ params.fusion.layer_bias
    assert cache["z"][0] == pytest.approx(np.tile(fused, (4, 1)), rel=1e-12)


def test_layer_norm_two_point_frame():
    batch = collate([utterance([[[1.0, 3.0]]])])
    assert batch.x[0][:, 0, 0] == pytest.approx([-1.0, 1.0], abs=1e-4)


def test_layer_norm_scale_invariance(rng):
    h = rng.standard_normal((1, 20, 16))
    a = collate([utterance(h)]).x[0]
    b = collate([utterance(5.0 * h)]).x[0]
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-5
    assert np.abs(a - b).max() < 1e-4


def test_layer_norm_standardizes(rng):
    h = rng.standard_normal((2, 50, 32)) * 3.0 + 1.0
    x = collate([utterance(h)]).x[0]  # (dim, T, n_layers)
    assert np.abs(x.mean(axis=0)).max() <= 1e-6
    assert np.abs(x.var(axis=0) - 1.0).max() <= 1e-4


# --- layer summaries: means over the valid frames -------------------------------


def test_masked_average_pool_basics(rng):
    """A layer's summary is the mean of its normed frames (of one frame: that frame); padding adds nothing."""
    params = init_model_params(rng, 2, 3, None, hidden=4)
    params.fusion.layer_gain = rng.uniform(0.5, 2.0, (2, 3))
    params.fusion.layer_bias = rng.standard_normal((2, 3))
    fp = params.fusion
    one = rng.standard_normal((2, 1, 3))
    short = rng.standard_normal((2, 4, 3))
    _, cache = forward(params, [utterance(one), utterance(short), utterance(rng.standard_normal((2, 9, 3)))])
    for i, streams in enumerate((one, short)):
        for n in range(2):
            normed = oracle.layer_norm(streams[n], fp.layer_gain[n], fp.layer_bias[n])
            assert cache["s"][i, n] == pytest.approx(normed.mean(axis=0), rel=1e-12, abs=1e-14)


def test_masked_average_pool_matches_subselection(rng):
    items = [utterance(rng.standard_normal((3, t, 7))) for t in (30, 11, 17)]
    batch = collate(items)
    for i, it in enumerate(items):
        t = it.streams.shape[1]
        assert batch.x[i].shape[1] == t and np.array_equal(batch.mask[i], np.arange(30) < t)  # x̂ holds no padding
        assert batch.s_hat[i] == pytest.approx(batch.x[i].mean(axis=1).T, rel=1e-12, abs=1e-14)


# --- attention over layers -----------------------------------------------------------


def test_attention_identical_summaries_uniform(rng):
    h = rng.standard_normal((5, 3))
    params = init_model_params(rng, 6, 3, None, hidden=4)
    params.fusion.attn_w = np.array([0.3, 0.1, -0.4])
    _, cache = forward(params, [utterance(np.tile(h, (6, 1, 1)))])
    assert cache["alpha"][0] == pytest.approx(np.full(6, 1 / 6))


def test_attention_high_temperature_flattens(rng):
    params = init_model_params(rng, 5, 4, None, hidden=4)
    params.fusion.attn_w = rng.standard_normal(4)
    params.fusion.layer_bias = rng.standard_normal((5, 4))
    params.fusion.temperature_raw = np.array(1000.0)  # softplus(raw) ~ raw: tau ~ 1000
    _, cache = forward(params, [utterance(rng.standard_normal((5, 6, 4)))])
    assert np.abs(cache["alpha"][0] - 0.2).max() < 0.01


def test_attention_matches_independent_softmax(rng):
    # zero gains make the summaries the biases, built so the logits are exactly (2, 1, 0)
    params = init_model_params(rng, 3, 2, None, hidden=4)
    params.fusion.layer_gain = np.zeros((3, 2))
    params.fusion.layer_bias = np.array([[2.0, 5.0], [1.0, 5.0], [0.0, 5.0]])
    params.fusion.attn_w = np.array([1.0, 0.0])
    _, cache = forward(params, [utterance(rng.standard_normal((3, 4, 2)))])
    expected = np.exp([2.0, 1.0, 0.0])
    expected /= expected.sum()
    assert cache["alpha"][0] == pytest.approx([0.6652, 0.2447, 0.0900], abs=1e-4)
    assert cache["alpha"][0] == pytest.approx(expected, rel=1e-12)


def test_attention_simplex_and_shift_invariance(rng):
    params = init_model_params(rng, 7, 6, None, hidden=4)
    params.fusion.attn_w = rng.standard_normal(6)
    params.fusion.layer_bias = rng.standard_normal((7, 6))
    params.fusion.temperature_raw = np.array(raw_from_temperature(0.7))
    items = [utterance(rng.standard_normal((7, t, 6))) for t in (5, 8)]
    _, cache = forward(params, items)
    alpha = cache["alpha"]
    assert alpha.min() > 0
    assert alpha.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)
    # adding one vector c to every layer's summary adds w . c / tau to every logit
    params.fusion.layer_bias = params.fusion.layer_bias + rng.standard_normal(6)
    _, shifted = forward(params, items)
    assert shifted["alpha"] == pytest.approx(alpha, rel=1e-9)


def test_temperature_parameterization():
    raw = raw_from_temperature(1.0)
    assert temperature_from_raw(raw) == pytest.approx(1.0, rel=1e-12)
    assert temperature_from_raw(-50.0) > 0.1 - 1e-12  # floor holds for any raw
    with pytest.raises(ValueError):
        raw_from_temperature(0.05)


def test_raw_from_temperature_past_the_expm1_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        raw = raw_from_temperature(1000.0)
    assert np.isfinite(raw)
    assert temperature_from_raw(raw) == pytest.approx(1000.0, rel=1e-12)
    assert raw_from_temperature(1.0) == float(np.log(np.expm1(0.9)))  # the finite branch keeps its bits


# --- the fused sequence ---------------------------------------------------------


def test_fuse_single_layer_identity(rng):
    params = init_model_params(rng, 1, 3, None, hidden=4)
    params.fusion.layer_gain = rng.uniform(0.5, 2.0, (1, 3))
    params.fusion.layer_bias = rng.standard_normal((1, 3))
    h = rng.standard_normal((1, 6, 3))
    _, cache = forward(params, [utterance(h)])
    assert np.array_equal(cache["alpha"], [[1.0]])
    expected = oracle.layer_norm(h[0], params.fusion.layer_gain[0], params.fusion.layer_bias[0])
    assert cache["z"][0] == pytest.approx(expected, rel=1e-12)


def test_fuse_one_hot_selects_layer(rng):
    # layer 1's summary scores 1000 above the others: its weight is 1 to the last bit
    params = init_model_params(rng, 3, 4, None, hidden=4)
    fp = params.fusion
    fp.attn_w = rng.standard_normal(4)
    fp.layer_bias = np.zeros((3, 4))
    fp.layer_bias[1] = 1000.0 * fp.attn_w / (fp.attn_w @ fp.attn_w) * fp.temperature()
    h = rng.standard_normal((3, 5, 4))
    _, cache = forward(params, [utterance(h)])
    assert np.array_equal(cache["alpha"], [[0.0, 1.0, 0.0]])
    assert cache["z"][0] == pytest.approx(oracle.layer_norm(h[1], fp.layer_gain[1], fp.layer_bias[1]), rel=1e-12)


def test_fuse_matches_elementwise_oracle(rng):
    params = init_model_params(rng, 3, 3, None, hidden=4)
    fp = params.fusion
    fp.layer_gain = rng.uniform(0.5, 2.0, (3, 3))
    fp.layer_bias = rng.standard_normal((3, 3))
    h = rng.standard_normal((3, 4, 3))
    _, cache = forward(params, [utterance(h)])
    alpha = cache["alpha"][0]
    normed = [oracle.layer_norm(h[n], fp.layer_gain[n], fp.layer_bias[n]) for n in range(3)]
    for t in range(4):
        for d in range(3):
            expected = sum(alpha[n] * normed[n][t, d] for n in range(3))
            assert cache["z"][0, t, d] == pytest.approx(expected, rel=1e-12)


def test_fuse_is_linear_per_layer(rng):
    """For fixed weights the fused sequence is affine in each layer's standardized frames."""
    params = init_model_params(rng, 2, 3, None, hidden=4)
    params.fusion.layer_bias = rng.standard_normal((2, 3))
    base = collate([utterance(rng.standard_normal((2, 5, 3)))])
    x, y = rng.standard_normal((2, *base.x[0].shape))
    a, b = 1.7, -0.3

    def fused(xs):
        batch = collate([utterance(rng.standard_normal((2, 5, 3)))])
        batch.x, batch.s_hat = (xs,), base.s_hat  # same summaries, hence the same weights
        return forward_batch(params, batch)[1]["z"]

    lhs = fused(a * x + b * y)
    rhs = a * fused(x) + b * fused(y) - (a + b - 1) * fused(np.zeros_like(x))
    assert lhs == pytest.approx(rhs, abs=1e-12)


# --- resample ----------------------------------------------------------------------


def test_resample_identity():
    h = np.random.default_rng(9).standard_normal((7, 3))
    assert np.array_equal(resample(h, 7), h)


def test_resample_upsample_midpoint():
    out = resample(np.array([[0.0], [10.0]]), 3)
    assert out == pytest.approx(np.array([[0.0], [5.0], [10.0]]))


def test_resample_downsample_floor_rule():
    ramp = np.arange(10.0).reshape(-1, 1)
    out = resample(ramp, 4)
    assert out.ravel().tolist() == [0.0, 2.0, 5.0, 7.0]


def test_resample_preserves_endpoints():
    rng = np.random.default_rng(10)
    h = rng.standard_normal((9, 2))
    for t_tgt in (1, 3, 9, 10, 25):
        out = resample(h, t_tgt)
        assert out[0] == pytest.approx(h[0], rel=1e-12)
        if t_tgt > 9:  # upsampling keeps the final row too
            assert out[-1] == pytest.approx(h[-1], rel=1e-12)
    with pytest.raises(ValueError):
        resample(h, 0)


# --- modality normalizer -------------------------------------------------------------


def test_modality_fuse_zero_gain_ablates_osm(rng):
    params = init_model_params(rng, 2, 4, 74, hidden=4)
    params.fusion.gamma_osm = np.array(0.0)
    _, cache = forward(params, [utterance(rng.standard_normal((2, 6, 4)), rng.standard_normal((6, 74)))])
    assert cache["z"].shape == (1, 6, 78)
    assert np.array_equal(cache["z"][0, :, 4:], np.zeros((6, 74)))


def test_modality_fuse_identity_resample_path(rng):
    params = init_model_params(rng, 2, 4, 74, hidden=4)
    fp = params.fusion
    fp.gamma_fused = np.array(2.0)
    fp.gamma_osm = np.array(0.5)
    fp.mod_bias_osm = rng.standard_normal(74)
    h, h_osm = rng.standard_normal((2, 5, 4)), rng.standard_normal((5, 74))
    _, cache = forward(params, [utterance(h, h_osm)])
    alpha = cache["alpha"][0]
    fused = sum(alpha[n] * oracle.layer_norm(h[n], fp.layer_gain[n], fp.layer_bias[n]) for n in range(2))
    expected = 2.0 * oracle.layer_norm(fused, fp.mod_gain_fused, fp.mod_bias_fused)
    assert cache["z"][0, :, :4] == pytest.approx(expected, rel=1e-9)
    expected = 0.5 * oracle.layer_norm(resample(h_osm, 5), fp.mod_gain_osm, fp.mod_bias_osm)
    assert cache["z"][0, :, 4:] == pytest.approx(expected, rel=1e-12)


def test_modality_fuse_width_for_wavlm_dims(rng):
    params = init_model_params(rng, 1, 1024, 74, hidden=2)
    _, cache = forward(params, [utterance(rng.standard_normal((1, 3, 1024)), rng.standard_normal((3, 74)))])
    assert cache["z"].shape == (1, 3, 1024 + 74)
    assert cache["z"].shape[2] == 1098


def test_modality_fuse_requires_branch(rng):
    h = rng.standard_normal((2, 3, 4))
    with pytest.raises(ValueError, match="opensmile branch"):
        forward(init_model_params(rng, 2, 4, None, hidden=4), [utterance(h, np.zeros((3, 74)))])
    with pytest.raises(ValueError, match="opensmile branch"):
        forward(init_model_params(rng, 2, 4, 74, hidden=4), [utterance(h)])


def test_end_to_end_scale_invariance(rng):
    """Rescaling one input layer moves the fused output by < 1e-4 relative norm."""
    params = init_model_params(rng, 3, 16, None, hidden=4)
    hs = rng.standard_normal((3, 12, 16))
    base = forward(params, [utterance(hs)])[1]["z"]
    scaled = forward(params, [utterance(hs * [[[37.0]], [[1.0]], [[1.0]]])])[1]["z"]
    assert np.linalg.norm(scaled - base) / np.linalg.norm(base) < 1e-4
