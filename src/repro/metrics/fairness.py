"""Jain's fairness index.

The paper evaluates fairness with Jain's index (§3.2, citing Sediq et
al.): for a vector of "allocations" ``x`` (here: wait times),

    J(x) = (Σ x_i)² / (n · Σ x_i²)

ranging from 1/n (one job bears all the waiting) to 1 (perfectly even).
"""

from __future__ import annotations

import numpy as np


def jain_index(values: np.ndarray | list[float]) -> float:
    """Jain's fairness index of a non-negative vector.

    Edge cases
    ----------
    * Empty input → 1.0 (nothing to be unfair about).
    * All-zero input → 1.0: every job waited equally (zero), which is
      perfect fairness; the 0/0 in the formula is resolved to its limit
      for uniform vectors. This matches the paper's treatment of
      scenarios where every method achieves zero wait (§3.5 notes the
      resulting 0/0 normalization is simply omitted).

    Raises
    ------
    ValueError
        If any value is negative (wait times cannot be).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 1.0
    if np.any(arr < 0):
        raise ValueError("Jain's index requires non-negative values")
    peak = arr.max()
    if peak == 0.0:
        return 1.0
    # Normalize by the peak before squaring: the index is scale
    # invariant, and this prevents under/overflow for extreme values
    # (e.g. denormal waits would otherwise square to zero → NaN).
    scaled = arr / peak
    total = scaled.sum()
    return float(total * total / (arr.size * np.square(scaled).sum()))


def per_group_means(
    values: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean of *values* per distinct label.

    Returns ``(unique_labels, means)`` with labels in first-seen order.
    Used for the per-user fairness perspective, where ``u_i`` is the
    average wait time of user *i* (§3.2).
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    if values.shape != labels.shape:
        raise ValueError("values and labels must have equal shape")
    # Plain floats summed in record order: the same additions, in the
    # same order, as a running total per label.
    sums: dict[object, float] = {}
    counts: dict[object, int] = {}
    for val, lab in zip(values.tolist(), labels.tolist()):
        if lab in sums:
            sums[lab] += val
            counts[lab] += 1
        else:
            sums[lab] = 0.0 + val
            counts[lab] = 1
    return (
        np.array(list(sums), dtype=object),
        np.array(list(sums.values())) / np.array(list(counts.values())),
    )
