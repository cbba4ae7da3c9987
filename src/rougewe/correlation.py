"""Pearson, Spearman, and Kendall tau-b over paired per-system scores.

``correlation_triple`` checks its inputs once and gives all three.
Undefined correlations (a constant side, or a NaN coefficient) raise
instead of returning 0, so a degenerate metric cannot silently corrupt a
meta-evaluation table. Pearson does not depend on either side's scale.
"""

from __future__ import annotations

import numpy as np


class UndefinedCorrelationError(ValueError):
    """Raised when a correlation has no defined value (constant input)."""


def correlation_triple(x, y) -> tuple[float, float, float]:
    """``(pearson, spearman, kendall)`` of paired scores, as Python floats.

    ``x`` and ``y`` must be 1-d and of equal length, hold at least 2 points
    and be finite (each a ``ValueError``), and neither may be constant
    (``UndefinedCorrelationError``, x checked first).
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError("inputs must be 1-d and of equal length")
    if len(xv) < 2:
        raise ValueError("correlation requires at least 2 points")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise ValueError("inputs must be finite")
    for side, v in (("x", xv), ("y", yv)):
        if np.all(v == v[0]):
            raise UndefinedCorrelationError(f"{side} input is constant; correlation is undefined")
    return _pearson(xv, yv), _pearson(_average_ranks(xv), _average_ranks(yv)), _kendall(xv, yv)


def _clamp(value: float) -> float:
    """Keep rounding noise from pushing a coefficient past the [-1, 1] range.

    A NaN coefficient raises rather than clamping to an end of the range.
    """
    if np.isnan(value):
        raise UndefinedCorrelationError("correlation is not a number")
    return min(1.0, max(-1.0, float(value)))


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Product-moment correlation.

    Each side is first scaled by a power of two to a largest magnitude in
    [0.5, 1). That is exact, so a coefficient whose arithmetic stays in the
    normal range keeps its bits, and no mean, dot product or product of
    sums of squares can over- or underflow at any finite scale.
    """
    x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y))
    xc = x - x.mean()
    yc = y - y.mean()
    return _clamp(xc.dot(yc) / np.sqrt(xc.dot(xc) * yc.dot(yc)))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span.

    The tie-group arithmetic of ``scipy.stats.rankdata(method="average")``,
    so the ranks are bitwise the same without importing scipy.
    """
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    starts = np.r_[True, sorted_v[1:] != sorted_v[:-1]]
    dense = np.empty(len(v), dtype=np.intp)
    dense[order] = starts.cumsum()
    count = np.r_[np.flatnonzero(starts), len(v)]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def _kendall(x: np.ndarray, y: np.ndarray) -> float:
    """Tau-b: (concordant - discordant) / sqrt((n0 - n1) (n0 - n2)).

    n1 and n2 count tied pairs on each side.
    """
    iu = np.triu_indices(len(x), k=1)
    with np.errstate(over="ignore"):  # an overflowing difference keeps its sign
        sx = np.sign(x[:, None] - x[None, :])[iu]
        sy = np.sign(y[:, None] - y[None, :])[iu]
    con_minus_dis = int(np.sum(sx * sy))
    n0 = len(sx)
    n1 = int(np.sum(sx == 0))
    n2 = int(np.sum(sy == 0))
    return _clamp(con_minus_dis / np.sqrt((n0 - n1) * (n0 - n2)))
