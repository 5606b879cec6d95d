"""The package's one Levenberg-Marquardt loop (Madsen, Nielsen & Tingleff,
*Methods for Non-Linear Least Squares Problems*, 2004). The skin fit and the
court-line refinement each make one call per solve.

Each outer iteration linearizes once, then runs a sweep of at most ``tries``
steps on (J^T J + lam D) delta = -J^T r, D = diag(J^T J) floored at 1e-12.
A rejected or singular step multiplies lam by 10; an accepted one divides it
by 3, down to ``lam_min``, and ends the sweep.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

MAX_REJECTS = 10  # empty sweeps in a row that stall a solve


@dataclass
class LMRecord:
    """How a solve went: the start cost, then the cost after each
    iteration's sweep, so ``iterations == len(cost_history) - 1``; the
    accepted and rejected sweeps; and the stop reason: "converged"
    (an accepted step gained less than the tolerance), "plateau" (a sweep
    accepted nothing, its best step within ``tol``), "stalled"
    (``MAX_REJECTS`` empty sweeps in a row) or "max_iters"."""

    cost_history: list
    iterations: int = 0
    accepted: int = 0
    rejected: int = 0
    stop: str = "max_iters"


def lm_solve(residual_jacobian, cost, p, *, lam, lam_min, tries, max_iters,
             tol=None, rtol=None):
    """Minimize ``cost`` from ``p``; returns (p, LMRecord).

    ``residual_jacobian(p)`` gives (r, J). A step is accepted when its cost
    is lower. An accepted step that gains less than ``tol`` or
    ``rtol * max(cost, 1)`` ends the solve. Raises NumericalError on a
    non-finite cost.
    """
    cur = cost(p)
    if not np.isfinite(cur):
        raise NumericalError("non-finite least-squares cost at the start point")
    rec = LMRecord([cur])
    stalled = 0
    for it in range(1, max_iters + 1):
        rec.iterations = it
        r, J = residual_jacobian(p)
        JtJ = J.T @ J
        g = J.T @ r
        damping = np.diag(np.maximum(np.diag(JtJ), 1e-12))
        best, step = np.inf, None
        for _ in range(tries):
            try:
                cand = p + np.linalg.solve(JtJ + lam * damping, -g)
            except np.linalg.LinAlgError:
                cand = None
            if cand is not None:
                c = cost(cand)
                if not np.isfinite(c):
                    raise NumericalError("non-finite least-squares cost at a trial step")
                best = min(best, c)
                if c < cur:
                    step = cand, c
                    break
            lam *= 10.0
        if step is None:
            rec.cost_history.append(cur)
            rec.rejected += 1
            stalled += 1
            if tol is not None and best <= cur + tol:
                rec.stop = "plateau"
                break
            if stalled >= MAX_REJECTS:
                rec.stop = "stalled"
                break
            continue
        prev, (p, cur) = cur, step
        lam = max(lam / 3.0, lam_min)
        rec.cost_history.append(cur)
        rec.accepted += 1
        stalled = 0
        if (tol is not None and prev - cur < tol) or (
                rtol is not None and prev - cur < rtol * max(prev, 1.0)):
            rec.stop = "converged"
            break
    return p, rec
