"""Confusion matrices and Macro F1."""

from __future__ import annotations

import numpy as np

from .dataio import N_CLASSES


def confusion_matrix(y_true, y_pred) -> np.ndarray:
    """Count matrix with rows = true class, columns = predicted class."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    if y_true.size == 0:
        raise ValueError("no samples")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if arr.min() < 0 or arr.max() >= N_CLASSES:
            raise ValueError(f"{name} contains labels outside 0..{N_CLASSES - 1}")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def per_class_f1(cm: np.ndarray) -> np.ndarray:
    """Per-class F1 with the zero-denominator convention F1 = 0."""
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {cm.shape}")
    if cm.sum() == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(cm).astype(np.float64)
    denom = cm.sum(axis=1) + cm.sum(axis=0)  # 2 TP + FN + FP
    return np.divide(2.0 * tp, denom, out=np.zeros_like(tp), where=denom > 0)


def macro_f1(cm: np.ndarray) -> float:
    """Unweighted mean of per-class F1 over all classes."""
    return float(per_class_f1(cm).mean())
