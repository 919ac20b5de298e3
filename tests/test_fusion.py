import numpy as np
import pytest

from disq.fusion import (
    LAYER_SETS,
    fuse_layers,
    init_fusion_params,
    layer_attention,
    layer_norm,
    masked_average_pool,
    modality_fuse,
    raw_from_temperature,
    resample,
    resolve_layer_set,
    temperature_from_raw,
)


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


# --- layer_norm ------------------------------------------------------------------


def test_layer_norm_constant_frame_is_bias():
    h = np.full((3, 5), 7.0)
    out = layer_norm(h, np.ones(5), np.full(5, 0.25))
    assert out == pytest.approx(np.full((3, 5), 0.25))


def test_layer_norm_two_point_frame():
    out = layer_norm(np.array([[1.0, 3.0]]), np.ones(2), np.zeros(2))
    assert out == pytest.approx(np.array([[-1.0, 1.0]]), abs=1e-4)


def test_layer_norm_scale_invariance():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((20, 16))
    a = layer_norm(h, np.ones(16), np.zeros(16))
    b = layer_norm(5.0 * h, np.ones(16), np.zeros(16))
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-5
    assert np.abs(a - b).max() < 1e-4


def test_layer_norm_standardizes():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((50, 32)) * 3.0 + 1.0
    out = layer_norm(h, np.ones(32), np.zeros(32))
    assert np.abs(out.mean(axis=-1)).max() <= 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() <= 1e-4


def test_layer_norm_shape_errors():
    with pytest.raises(ValueError):
        layer_norm(np.zeros((2, 3)), np.ones(4), np.zeros(4))
    with pytest.raises(ValueError):
        layer_norm(np.zeros((2, 0)), np.ones(0), np.zeros(0))


# --- masked_average_pool ------------------------------------------------------------


def test_masked_average_pool_basics():
    h = np.full((4, 3), 2.5)
    assert masked_average_pool(h, np.ones(4, bool)) == pytest.approx([2.5, 2.5, 2.5])
    h = np.arange(12.0).reshape(4, 3)
    mask = np.array([False, True, False, False])
    assert masked_average_pool(h, mask) == pytest.approx(h[1])


def test_masked_average_pool_matches_subselection():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((30, 7))
    mask = rng.random(30) < 0.5
    mask[0] = True
    assert masked_average_pool(h, mask) == pytest.approx(h[mask].mean(axis=0), rel=1e-12)


def test_masked_average_pool_all_false():
    with pytest.raises(ValueError):
        masked_average_pool(np.zeros((3, 2)), np.zeros(3, bool))


# --- layer_attention ------------------------------------------------------------------


def test_attention_identical_summaries_uniform():
    s = np.tile(np.array([1.0, -2.0, 0.5]), (6, 1))
    alpha = layer_attention(s, np.array([0.3, 0.1, -0.4]), temperature=1.0)
    assert alpha == pytest.approx(np.full(6, 1 / 6))


def test_attention_high_temperature_flattens():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((5, 4))
    alpha = layer_attention(s, rng.standard_normal(4), temperature=1000.0)
    assert np.abs(alpha - 0.2).max() < 0.01


def test_attention_matches_independent_softmax():
    # summaries and scorer constructed so the logits are exactly (2, 1, 0)
    s = np.array([[2.0, 5.0], [1.0, 5.0], [0.0, 5.0]])
    alpha = layer_attention(s, np.array([1.0, 0.0]), temperature=1.0)
    expected = np.exp([2.0, 1.0, 0.0])
    expected /= expected.sum()
    assert alpha == pytest.approx([0.6652, 0.2447, 0.0900], abs=1e-4)
    assert alpha == pytest.approx(expected, rel=1e-12)


def test_attention_simplex_and_shift_invariance():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((7, 6))
    w = rng.standard_normal(6)
    alpha = layer_attention(s, w, temperature=0.7)
    assert alpha.min() > 0
    assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
    # adding one vector c to every summary adds w . c to every logit
    shifted = layer_attention(s + rng.standard_normal(6), w, temperature=0.7)
    assert np.argmax(shifted) == np.argmax(alpha)  # constant logit shift
    with pytest.raises(ValueError):
        layer_attention(np.array([[np.inf, 0.0]]), np.ones(2), temperature=1.0)


def test_temperature_parameterization():
    raw = raw_from_temperature(1.0)
    assert temperature_from_raw(raw) == pytest.approx(1.0, rel=1e-12)
    assert temperature_from_raw(-50.0) > 0.1 - 1e-12  # floor holds for any raw
    with pytest.raises(ValueError):
        raw_from_temperature(0.05)


# --- fuse_layers -------------------------------------------------------------------


def test_fuse_single_layer_identity():
    h = np.random.default_rng(4).standard_normal((6, 3))
    assert np.array_equal(fuse_layers([h], np.array([1.0])), h)


def test_fuse_one_hot_selects_layer():
    rng = np.random.default_rng(6)
    hs = [rng.standard_normal((5, 4)) for _ in range(3)]
    out = fuse_layers(hs, np.array([0.0, 1.0, 0.0]))
    assert out == pytest.approx(hs[1], rel=1e-12)


def test_fuse_matches_elementwise_oracle():
    rng = np.random.default_rng(7)
    hs = [rng.standard_normal((4, 3)) for _ in range(3)]
    alpha = np.array([0.2, 0.5, 0.3])
    out = fuse_layers(hs, alpha)
    for t in range(4):
        for d in range(3):
            expected = sum(alpha[l] * hs[l][t, d] for l in range(3))
            assert out[t, d] == pytest.approx(expected, rel=1e-12)


def test_fuse_is_linear_per_layer():
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((2, 5, 3))
    other = rng.standard_normal((5, 3))
    alpha = np.array([0.6, 0.4])
    a, b = 1.7, -0.3
    lhs = fuse_layers([a * x + b * y, other], alpha)
    rhs = a * fuse_layers([x, other], alpha) + b * fuse_layers([y, other], alpha) - (a + b - 1) * fuse_layers([np.zeros_like(x), other], alpha)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_fuse_validates():
    h = np.zeros((2, 2))
    with pytest.raises(ValueError):
        fuse_layers([h, h], np.array([0.7, 0.7]))  # off the simplex
    with pytest.raises(ValueError):
        fuse_layers([h, np.zeros((3, 2))], np.array([0.5, 0.5]))


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


# --- modality_fuse -----------------------------------------------------------------


def make_params(rng, n_layers=2, dim=4, osm_dim=74):
    return init_fusion_params(rng, n_layers, dim, osm_dim)


def test_modality_fuse_zero_gain_ablates_osm(rng):
    params = make_params(rng)
    params.gamma_osm = np.array(0.0)
    out = modality_fuse(rng.standard_normal((6, 4)), rng.standard_normal((3, 74)), params)
    assert out.shape == (6, 78)
    assert np.array_equal(out[:, 4:], np.zeros((6, 74)))


def test_modality_fuse_identity_resample_path(rng):
    params = make_params(rng)
    params.gamma_fused = np.array(2.0)
    h_fused = rng.standard_normal((5, 4))
    h_osm = rng.standard_normal((5, 74))
    out = modality_fuse(h_fused, h_osm, params)
    from disq.fusion import layer_norm as ln

    assert out[:, :4] == pytest.approx(2.0 * ln(h_fused, params.mod_gain_fused, params.mod_bias_fused), rel=1e-12)


def test_modality_fuse_width_for_wavlm_dims(rng):
    params = make_params(rng, dim=1024)
    out = modality_fuse(rng.standard_normal((3, 1024)), rng.standard_normal((2, 74)), params)
    assert out.shape == (3, 1024 + 74)
    assert out.shape[1] == 1098


def test_modality_fuse_requires_branch(rng):
    params = init_fusion_params(rng, 2, 4, osm_dim=None)
    with pytest.raises(ValueError):
        modality_fuse(np.zeros((2, 4)), np.zeros((2, 74)), params)


def test_end_to_end_scale_invariance(rng):
    """Rescaling one input layer moves the fused output by < 1e-4 relative norm."""
    n_layers, dim, t = 3, 16, 12
    params = init_fusion_params(rng, n_layers, dim)
    hs = [rng.standard_normal((t, dim)) for _ in range(n_layers)]

    def fused(h_list):
        normed = [
            layer_norm(h, params.layer_gain[i], params.layer_bias[i])
            for i, h in enumerate(h_list)
        ]
        summaries = np.stack([masked_average_pool(h, np.ones(t, bool)) for h in normed])
        alpha = layer_attention(summaries, params.attn_w, params.temperature())
        return fuse_layers(normed, alpha)

    base = fused(hs)
    scaled = fused([hs[0] * 37.0, hs[1], hs[2]])
    assert np.linalg.norm(scaled - base) / np.linalg.norm(base) < 1e-4
