"""Per-utterance reference forward of the model, for tests.

The math of `model.forward_batch` written out for one unpadded utterance,
step by step: layer norm of each layer, softmax attention over the layers'
frame-mean summaries, their weighted sum, the modality normalizer (the
paralinguistic frames resampled to the fused frame count), attentive
statistics pooling, the MLP and the cross-entropy. It shares no code with the
batched path beyond its constants and `resample`, and checks no input.
"""

import numpy as np

from disq.fusion import LAYER_NORM_EPS, resample
from disq.model import VAR_FLOOR


def layer_norm(h, gain, bias):
    """Per-frame standardization over the feature axis, then affine."""
    mean = h.mean(axis=-1, keepdims=True)
    var = h.var(axis=-1, keepdims=True)
    return gain * (h - mean) / np.sqrt(var + LAYER_NORM_EPS) + bias


def softmax(logits):
    e = np.exp(logits - logits.max())
    return e / e.sum()


def forward(params, streams, label, osm=None):
    """Loss, layer weights α and logits of one utterance.

    `streams` is (n_layers, T, dim) and `osm`, for a model with the
    paralinguistic branch, (T_osm, osm_dim). The loss is the utterance's
    cross-entropy, which is what the class-weighted batch mean reduces to
    for a batch of one.
    """
    fp, hp = params.fusion, params.head
    streams = np.asarray(streams, dtype=np.float64)
    normed = [layer_norm(h, g, b) for h, g, b in zip(streams, fp.layer_gain, fp.layer_bias)]
    alpha = softmax(np.stack([h.mean(axis=0) for h in normed]) @ fp.attn_w / fp.temperature())
    z = sum(a * h for a, h in zip(alpha, normed))
    if fp.augmented:
        aligned = resample(osm, z.shape[0])
        z = np.concatenate(
            [
                float(fp.gamma_fused) * layer_norm(z, fp.mod_gain_fused, fp.mod_bias_fused),
                float(fp.gamma_osm) * layer_norm(aligned, fp.mod_gain_osm, fp.mod_bias_osm),
            ],
            axis=1,
        )
    a = softmax(z @ hp.pool_v)
    mu = a @ z
    sd = np.sqrt(np.maximum(a @ (z * z) - mu * mu, VAR_FLOOR))
    logits = hp.w2 @ np.tanh(hp.w1 @ np.concatenate([mu, sd]) + hp.b1) + hp.b2
    shifted = logits - logits.max()
    loss = np.log(np.exp(shifted).sum()) - shifted[label]
    return float(loss), alpha, logits
