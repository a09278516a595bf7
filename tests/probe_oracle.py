"""The linear probe's fit with two logs per loss term, one epoch at a time:
the oracle for `classify.fit_linear_probe`.

The fit takes each masked loss term as log(where(y == 1, p, 1 - p) + eps),
sixteen epochs at a time, multiplies by a C-order copy of err.T, and divides
once in its sigmoid. This module keeps the forms they replaced: y log(p + eps)
+ (1 - y) log(1 - p + eps) each epoch, err.T as the transposed view, and a
sigmoid with one division per branch, with the same epochs, update order and
metadata, so the weights, the bias and the loss history must equal it bit for
bit.
"""

import warnings

import numpy as np

from glre.classify import ProbeConfig, ProbeModel
from glre.datapipe import PATHOLOGIES, labels_to_matrix


def sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def fit_linear_probe(features, labels, config: ProbeConfig | None = None) -> ProbeModel:
    config = config if config is not None else ProbeConfig()
    x = np.asarray(getattr(features, "data", features), dtype=np.float64)
    y, mask = labels_to_matrix(labels, uncertain_policy=config.uncertain_policy)
    counts = mask.sum(axis=0)
    n_pos = (y * mask).sum(axis=0)
    active = (n_pos > 0) & (n_pos < counts)
    skipped = [name for name, on in zip(PATHOLOGIES, active) if not on]
    for name in skipped:
        warnings.warn(f"probe skips {name!r}: labels are single-class or fully masked")
    keep = mask & active
    step = config.learning_rate / np.maximum(counts, 1)

    w = np.zeros((len(PATHOLOGIES), x.shape[1]))
    b = np.zeros(len(PATHOLOGIES))
    history = []
    eps = 1e-12
    for _ in range(config.epochs):
        p = sigmoid(x @ w.T + b)
        err = np.where(keep, p - y, 0.0)
        w -= step[:, None] * (err.T @ x)
        b -= step * err.sum(axis=0)
        ll = np.where(keep, y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps), 0.0)
        losses = -ll.sum(axis=0)[active] / counts[active]
        history.append(float(losses.mean()) if losses.size else 0.0)
    return ProbeModel(
        weights=w, bias=b,
        metadata={
            "epochs": config.epochs,
            "learning_rate": config.learning_rate,
            "uncertain_policy": config.uncertain_policy,
            "skipped": skipped,
            "final_loss": history[-1] if history else None,
            "loss_history": history,
        },
    )
