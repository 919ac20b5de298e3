"""Residual vector quantization: each stage quantizes what the last left over.

Decode quality improves monotonically with the number of stages used, the
property that lets codec-style tokenizers trade bitrate for fidelity.
"""

import numpy as np

from disq.dataio import FeatureSequence
from disq.quantize import reconstruction_mse, rvq_decode, rvq_encode, rvq_fit

rng = np.random.default_rng(11)
centers = 4.0 * rng.standard_normal((32, 10))
x = centers[rng.integers(32, size=3000)] + rng.standard_normal((3000, 10))

rvq = rvq_fit(x, n_stages=8, k_per_stage=16, seed=0)
print("stage   residual energy after training")
for s, energy in enumerate(rvq.residual_energies, start=1):
    print(f"{s:<8d}{energy:.4f}")

tokens = rvq_encode(rvq, FeatureSequence(x))
print("\nstages used   decode MSE")
for s in (0, 1, 2, 4, 8):
    mse = reconstruction_mse(x, rvq_decode(rvq, tokens, n_stages_used=s).frames)
    print(f"{s:<14d}{mse:.4f}")

# per-stage tokens can also feed the attention head as independent streams,
# each with its stage codebook's standardized table: the codec-style
# counterpart of per-layer token streams. Each stage is a book of the
# codebook cache, fitted once for every split that uses it
import tempfile

from disq.dataio import SyntheticSpec, generate_synthetic
from disq.model import TrainConfig, train
from disq.sweep import CodebookCache, load_dataset, prepare_rvq_items

spec = SyntheticSpec(
    n_per_class=12, layer_count=2, feature_dim=10, t_range=(10, 16),
    layer_informativeness=(0.2, 1.0), paralinguistic_gain=0.0,
    noise_sigma=0.5, seed=21,
)
work = tempfile.mkdtemp(prefix="disq_demo3_")
generate_synthetic(spec, work)
ds = load_dataset(work)
cache = CodebookCache()
tr = prepare_rvq_items(ds, "train", layer=1, stages=(0, 1, 2, 3), k_per_stage=12, cache=cache)
dv = prepare_rvq_items(ds, "dev", layer=1, stages=(0, 1, 2, 3), k_per_stage=12, cache=cache)
result = train(tr, dv, TrainConfig(epochs=10, batch_size=8, hidden=24))
print(f"\n4 RVQ stage streams through the attention head: "
      f"dev macro F1 {max(h.dev_macro_f1 for h in result.history):.3f}")
