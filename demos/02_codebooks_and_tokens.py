"""k-means codebooks: training, assignment, reconstruction.

Shows the distortion-vs-K tradeoff on a mixture with a known mode count.
"""

import numpy as np

from disq.dataio import FeatureSequence
from disq.quantize import assign, kmeans_fit, reconstruct, reconstruction_mse

rng = np.random.default_rng(3)

# data with 16 well-separated modes
modes = 8.0 * rng.standard_normal((16, 6))
x = modes[rng.integers(16, size=2000)] + 0.4 * rng.standard_normal((2000, 6))

print("K   final distortion   iterations")
for k in (4, 8, 16, 32, 64):
    cb = kmeans_fit(x, k, seed=0)
    print(f"{k:<4d}{cb.final_distortion:<18.4f}{cb.iterations_run}")

# tokens are centroid indices; reconstruction is centroid lookup
cb = kmeans_fit(x, 16, seed=0, stream_id="demo")
seq = FeatureSequence(x[:10], stream_id="demo")
tokens = assign(cb, seq)
recon = reconstruct(cb, tokens)
print(f"tokens for 10 frames: {tokens.indices.tolist()}")
print(f"reconstruction MSE over the full set: "
      f"{reconstruction_mse(x, reconstruct(cb, assign(cb, FeatureSequence(x))).frames):.4f}")
