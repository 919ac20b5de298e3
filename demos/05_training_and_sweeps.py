"""End to end on a small dataset: gradients, training, a sweep, a report.

Generates a 4-layer dataset whose last layer carries most of the class
signal and whose prosody block carries the rest, verifies gradients, then
compares layer sets and prosody augmentation in one sweep.
"""

import tempfile

from disq.dataio import SyntheticSpec, generate_synthetic
from disq.model import TrainConfig, gradient_check
from disq.sweep import SweepGrid, augmentation_report, load_dataset, rows_to_text, run_sweep

print(f"gradient check, max relative error: {gradient_check(seed=0):.2e}\n")

spec = SyntheticSpec(
    n_per_class=24,
    layer_count=4,
    feature_dim=16,
    t_range=(12, 20),
    layer_informativeness=(0.05, 0.1, 0.3, 0.9),
    paralinguistic_gain=2.0,
    noise_sigma=0.8,
    seed=13,
)
work = tempfile.mkdtemp(prefix="disq_demo5_")
generate_synthetic(spec, work)
ds = load_dataset(work)

grid = SweepGrid(
    ks=(16,),
    layer_sets=("3", "0,1,2,3"),
    seeds=(0, 1),
    augmentations=("none", "prosody"),
    train=TrainConfig(epochs=15, batch_size=8, hidden=32),
)
result = run_sweep(grid, ds)
print(rows_to_text(result.rows))
print("prosody augmentation gains (sparser sets benefit more):")
for gain in augmentation_report(result.rows, ds.layer_count):
    print(f"  {gain.layer_set:<8s} {gain.base_f1:.3f} -> {gain.aug_f1:.3f}  ({gain.gain_pct:+.1f}%)")
print(f"\ncodebook fits: {result.cache.misses} (one per layer and one for prosody, each shared by the cells that use it)")
