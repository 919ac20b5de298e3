"""The fusion path, read off one batched forward pass.

Layer norm makes attention scale-invariant, pooled summaries turn into
softmax weights over layers, and the paralinguistic branch is resampled,
normalized, and concatenated before attentive statistics pooling.
"""

import numpy as np

from disq.fusion import resample
from disq.model import PreparedUtterance, collate, forward_batch, init_model_params

rng = np.random.default_rng(5)
n_layers, t, dim = 3, 20, 8
params = init_model_params(rng, n_layers, dim, osm_dim=74, hidden=16)
params.head.pool_v = 0.1 * rng.standard_normal(dim + 74)
streams = np.stack([rng.standard_normal((t, dim)) * scale for scale in (1.0, 50.0, 0.02)])

# paralinguistic branch at half the frame rate, resampled up to the layers' frame count
osm = rng.standard_normal((t // 2, 74))
aligned = resample(osm, t)
print(f"resample {osm.shape[0]} -> {t} frames: {aligned.shape}")

utterance = PreparedUtterance("demo", streams, label=0, osm=aligned)
_, cache = forward_batch(params, collate([utterance]))

# wildly different layer scales, nearly identical attention weights
print(f"layer scales 1 / 50 / 0.02 -> attention weights {np.round(cache['alpha'][0], 4)}")

# the fused layers, normalized and concatenated with the paralinguistic branch
print(f"after modality fusion: {cache['z'][0].shape} (= {dim} + 74 columns)")

# attentive statistics pooling: weighted mean and spread per feature
print(f"pooled vector: {cache['p'][0].shape} (mean || std)")
