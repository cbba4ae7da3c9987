"""Pearson, Spearman, and Kendall tau-b over paired per-system scores.

Undefined correlations (a constant side) raise instead of returning 0,
so a degenerate metric cannot silently corrupt a meta-evaluation table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedCorrelationError(ValueError):
    """Raised when a correlation has no defined value (constant input)."""


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError("inputs must be 1-d and of equal length")
    if len(xv) < 2:
        raise ValueError("correlation requires at least 2 points")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise ValueError("inputs must be finite")
    return xv, yv


def _require_varying(v: np.ndarray, side: str) -> None:
    if np.all(v == v[0]):
        raise UndefinedCorrelationError(f"{side} input is constant; correlation is undefined")


def _clamp(value: float) -> float:
    """Keep rounding noise from pushing a coefficient past the [-1, 1] range.

    A NaN coefficient (from an overflowing product) raises rather than
    clamping to an end of the range.
    """
    if np.isnan(value):
        raise UndefinedCorrelationError("correlation is not a number")
    return min(1.0, max(-1.0, value))


def pearson(x, y) -> float:
    """Product-moment correlation."""
    xv, yv = _paired(x, y)
    _require_varying(xv, "x")
    _require_varying(yv, "y")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    return _clamp(float(xc.dot(yc) / np.sqrt(xc.dot(xc) * yc.dot(yc))))


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


def spearman(x, y) -> float:
    """Pearson correlation of average-rank-transformed values."""
    xv, yv = _paired(x, y)
    _require_varying(xv, "x")
    _require_varying(yv, "y")
    return pearson(_average_ranks(xv), _average_ranks(yv))


def kendall(x, y) -> float:
    """Tau-b: (concordant - discordant) / sqrt((n0 - n1) (n0 - n2)).

    n1 and n2 count tied pairs on each side; a side where every pair is
    tied leaves the coefficient undefined.
    """
    xv, yv = _paired(x, y)
    _require_varying(xv, "x")
    _require_varying(yv, "y")
    iu = np.triu_indices(len(xv), k=1)
    sx = np.sign(xv[:, None] - xv[None, :])[iu]
    sy = np.sign(yv[:, None] - yv[None, :])[iu]
    con_minus_dis = int(np.sum(sx * sy))
    n0 = len(sx)
    n1 = int(np.sum(sx == 0))
    n2 = int(np.sum(sy == 0))
    return _clamp(con_minus_dis / np.sqrt((n0 - n1) * (n0 - n2)))


@dataclass(frozen=True)
class CorrelationTriple:
    pearson: float
    spearman: float
    kendall: float


def correlation_triple(x, y) -> CorrelationTriple:
    return CorrelationTriple(pearson(x, y), spearman(x, y), kendall(x, y))
