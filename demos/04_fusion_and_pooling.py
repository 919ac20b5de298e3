"""The fusion path, operation by operation.

Layer norm makes attention scale-invariant, pooled summaries turn into
softmax weights over layers, and the paralinguistic branch is resampled,
normalized, and concatenated.
"""

import numpy as np

from disq.fusion import (
    fuse_layers,
    init_fusion_params,
    layer_attention,
    layer_norm,
    masked_average_pool,
    modality_fuse,
    resample,
)
from disq.model import attentive_stats_pool

rng = np.random.default_rng(5)
n_layers, t, dim = 3, 20, 8
params = init_fusion_params(rng, n_layers, dim, osm_dim=74)
layers = [rng.standard_normal((t, dim)) * scale for scale in (1.0, 50.0, 0.02)]

# wildly different layer scales, nearly identical attention weights
normed = [layer_norm(h, params.layer_gain[i], params.layer_bias[i]) for i, h in enumerate(layers)]
mask = np.ones(t, dtype=bool)
summaries = np.stack([masked_average_pool(h, mask) for h in normed])
alpha = layer_attention(summaries, params.attn_w, params.temperature())
print(f"layer scales 1 / 50 / 0.02 -> attention weights {np.round(alpha, 4)}")

fused = fuse_layers(normed, alpha)
print(f"fused sequence: {fused.shape}")

# paralinguistic branch at half the frame rate, resampled up and concatenated
osm = rng.standard_normal((t // 2, 74))
print(f"resample {osm.shape[0]} -> {t} frames: {resample(osm, t).shape}")
combined = modality_fuse(fused, osm, params)
print(f"after modality fusion: {combined.shape} (= {dim} + 74 columns)")

# attentive statistics pooling: weighted mean and spread per feature
pooled = attentive_stats_pool(combined, mask, rng.standard_normal(combined.shape[1]) * 0.1)
print(f"pooled vector: {pooled.shape} (mean || std)")
