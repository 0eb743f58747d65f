"""Pareto-front extraction on the speedup/energy plane.

The characterization figures (2, 7, 8) plot speedup (maximize) against
normalized per-task energy (minimize) for every frequency configuration and
highlight the Pareto front. A point dominates another if it is at least as
fast *and* at least as frugal, and strictly better in one of the two.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError


def pareto_front_mask(speedup, energy) -> np.ndarray:
    """Boolean mask of Pareto-optimal points (max speedup, min energy).

    Ties are kept: two identical points are both reported as optimal, which
    matches how the paper draws coincident configurations.
    """
    s = np.asarray(speedup, dtype=float)
    e = np.asarray(energy, dtype=float)
    if s.shape != e.shape or s.ndim != 1:
        raise ValidationError(
            f"speedup/energy must be equal-length 1-D arrays ({s.shape} vs {e.shape})"
        )
    n = s.size
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        dominates = (s >= s[i]) & (e <= e[i]) & ((s > s[i]) | (e < e[i]))
        if np.any(dominates):
            mask[i] = False
    return mask


def front_violations(speedup, energy, mask) -> tuple[int, int]:
    """Consistency counts for a claimed Pareto mask.

    Returns ``(dominated_front, uncovered_off_front)``: masked-in points
    dominated by another front point, and masked-out points not dominated
    by any front point. A consistent mask yields ``(0, 0)`` — the property
    the validation plane asserts for the Figs. 2/7/8 characterizations.
    """
    s = np.asarray(speedup, dtype=float)
    e = np.asarray(energy, dtype=float)
    m = np.asarray(mask, dtype=bool)
    if not (s.shape == e.shape == m.shape) or s.ndim != 1:
        raise ValidationError(
            f"speedup/energy/mask must be equal-length 1-D arrays "
            f"({s.shape}, {e.shape}, {m.shape})"
        )
    front = np.flatnonzero(m)

    def dominated_by_front(i: int) -> bool:
        c = front[front != i]
        return bool(
            np.any(
                (s[c] >= s[i]) & (e[c] <= e[i]) & ((s[c] > s[i]) | (e[c] < e[i]))
            )
        )

    dominated_front = sum(1 for i in front if dominated_by_front(i))
    uncovered_off = sum(
        1 for i in np.flatnonzero(~m) if not dominated_by_front(i)
    )
    return dominated_front, uncovered_off
