"""disq: discrete-token sequence classification at desk scale.

Per-stream k-means tokenization, residual vector quantization, attention
fusion over multi-layer features, paralinguistic augmentation, and a
trainable pooling + classifier head with hand-verified gradients.
"""

__version__ = "0.1.0"

from .dataio import (
    FeatureSequence,
    SyntheticSpec,
    UtteranceRecord,
    generate_synthetic,
    read_feature_file,
    write_feature_file,
)
from .fusion import LAYER_SETS, FusionParams, resample
from .metrics import confusion_matrix, macro_f1, per_class_f1
from .model import HeadParams, ModelParams, PreparedUtterance, TrainConfig, gradient_check, train
from .quantize import (
    OPENSMILE_CATEGORIES,
    Codebook,
    RvqCodebook,
    TokenSequence,
    assign,
    kmeans_fit,
    quantize_opensmile,
    reconstruct,
    rvq_decode,
    rvq_encode,
    rvq_fit,
)
from .reference import reference_spec, reference_train_config
from .sweep import ResultRow, SweepGrid, augmentation_report, evaluate, run_sweep
