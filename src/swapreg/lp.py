"""Small dense linear-program solver (two-phase primal simplex).

Solves desk-scale LPs of the form

    minimize    c @ x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                bounds[j][0] <= x[j] <= bounds[j][1]   (None = unbounded side)

Determinism is a design goal: pivoting uses the steepest reduced cost with
lowest-index tie-breaks and falls back to Bland's rule during degenerate
stalls, so repeated solves are byte-identical and cycling is impossible.

A pivot on a large tableau updates only the rows where the pivot column is
nonzero and the columns where the pivot row is nonzero; every other entry
has a zero factor in the rank-one update.  Small tableaus, and pivots whose
row and column are dense, update the whole tableau, which is cheaper there.
Both paths compute each changed entry with the same two roundings, so pivots
and results are bit-identical whichever runs (only the sign of an unchanged
zero may differ).

An optimal solution also carries the duals (marginals) of the `a_ub` rows
and then the `a_eq` rows, in scipy's sign convention: d value / d b, hence
<= 0 on `<=` rows.  They are read from the phase-2 reduced costs of each
row's identity column (its slack, or its artificial) in the verified final
tableau: one vector-matrix product, no extra factorization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

__all__ = ["LpTolerances", "LpProblem", "LpSolution", "TOL", "solve_lp"]


@dataclass(frozen=True)
class LpTolerances:
    """Single record holding every numeric threshold used by the solver."""

    feasibility: float = 1e-7   # constraint violation accepted in solutions
    optimality: float = 1e-9    # reduced-cost threshold for entering columns
    pivot: float = 1e-12        # pivot elements below this are unusable
    iteration_factor: int = 80  # pivot cap = factor * (m + n) + 200


TOL = LpTolerances()

_INF = float("inf")

# Cost model of one pivot's rank-one update, timed with one BLAS thread: the
# dense update costs about 2 ns per tableau entry, the restricted one about
# 20 us (the cost of 10^4 dense entries) plus the cost of 8 dense entries per
# entry it updates.  It is 10-30x cheaper on the 624 x 852 regret LP of the
# d=3 combined set; the dense update wins on the 9 x 28 exact round games and
# on pivots with a dense row and column.
_RESTRICTED_PIVOT_MIN_ENTRIES = 10_000
_RESTRICTED_ENTRY_COST = 8

log = logging.getLogger(__name__)


@dataclass
class LpProblem:
    objective: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    bounds: list[tuple[float | None, float | None]] | None = None  # default: free

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.objective.size
        for name in ("a_ub", "a_eq"):
            mat = getattr(self, name)
            if mat is not None:
                mat = np.asarray(mat, dtype=float)
                if mat.ndim != 2 or mat.shape[1] != n:
                    raise ValueError(f"{name} must have shape (m, {n})")
                setattr(self, name, mat)
        for mat, vec in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
            m, v = getattr(self, mat), getattr(self, vec)
            if (m is None) != (v is None):
                raise ValueError(f"{mat} and {vec} must be given together")
            if v is not None:
                v = np.asarray(v, dtype=float).ravel()
                if v.size != m.shape[0]:
                    raise ValueError(f"{vec} length mismatch")
                setattr(self, vec, v)
        if not np.isfinite(self.objective).all():
            raise ValueError("objective must be finite")
        for name in ("a_ub", "b_ub", "a_eq", "b_eq"):
            arr = getattr(self, name)
            if arr is not None and not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")

    @property
    def n(self) -> int:
        return self.objective.size


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None
    iterations: int = 0
    duals: np.ndarray | None = None  # a_ub rows, then a_eq rows; set when optimal

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _normalized_bounds(problem: LpProblem):
    n = problem.n
    if problem.bounds is None:
        return [(-_INF, _INF)] * n
    if len(problem.bounds) != n:
        raise ValueError("bounds length mismatch")
    out = []
    for lo, hi in problem.bounds:
        lo = -_INF if lo is None else float(lo)
        hi = _INF if hi is None else float(hi)
        if lo > hi:
            raise ValueError("empty variable bound")
        out.append((lo, hi))
    return out


def solve_lp(problem: LpProblem, tol: LpTolerances = TOL,
             _strict: bool = False) -> LpSolution:
    """Solve an LP; statuses are "optimal", "infeasible" or "unbounded".

    On the rare numerically hard instance (degenerate bases drifting faster
    than the default refactorization cadence) the solve is retried once in a
    strict mode that refactorizes every few pivots.
    """
    try:
        return _solve_lp_once(problem, tol, _strict)
    except NumericalFailure as exc:
        if _strict:
            raise
        rows = sum(a.shape[0] for a in (problem.a_ub, problem.a_eq) if a is not None)
        log.warning("LP with %d constraint rows and %d variables: %s; retrying in strict mode",
                    rows, problem.n, exc)
        return _solve_lp_once(problem, tol, True)


def _leaving_row(ties: np.ndarray, colq: np.ndarray, basis: np.ndarray, bland: bool) -> int:
    """The row that leaves the basis among the ratio-test ties.

    The stabilized rule takes the largest pivot magnitude, to limit drift,
    then the lowest basic column; Bland's rule takes the lowest basic column.
    """
    if ties.size > 1 and not bland:
        ties = ties[colq[ties] == colq[ties].max()]
    return int(ties[0] if ties.size == 1 else ties[np.argmin(basis[ties])])


def _solve_lp_once(problem: LpProblem, tol: LpTolerances, strict: bool) -> LpSolution:
    n = problem.n
    bounds = _normalized_bounds(problem)

    # Rewrite into min c'z : A z = b, z >= 0.  Each original variable becomes
    # either a shifted/flipped nonnegative variable or a z+ - z- pair.
    cols: list[tuple] = []  # per original var: ("split", j+, j-) | ("shift", j, lo) | ("flip", j, hi)
    col_count = 0
    extra_ub_rows: list[tuple[int, float]] = []  # (std column, upper value) for two-sided bounds
    for j in range(n):
        lo, hi = bounds[j]
        if lo == -_INF and hi == _INF:
            cols.append(("split", col_count, col_count + 1))
            col_count += 2
        elif lo > -_INF:
            cols.append(("shift", col_count, lo))
            if hi < _INF:
                extra_ub_rows.append((col_count, hi - lo))
            col_count += 1
        else:
            cols.append(("flip", col_count, hi))
            col_count += 1

    def expand(mat: np.ndarray) -> np.ndarray:
        out = np.zeros((mat.shape[0], col_count))
        for j, spec in enumerate(cols):
            if spec[0] == "split":
                out[:, spec[1]] = mat[:, j]
                out[:, spec[2]] = -mat[:, j]
            elif spec[0] == "shift":
                out[:, spec[1]] = mat[:, j]
            else:
                out[:, spec[1]] = -mat[:, j]
        return out

    def offset(mat: np.ndarray) -> np.ndarray:
        # constant contribution of shifts/flips, to subtract from rhs
        shift = np.zeros(n)
        for j, spec in enumerate(cols):
            if spec[0] == "shift":
                shift[j] = spec[2]
            elif spec[0] == "flip":
                shift[j] = spec[2]
        return mat @ shift

    rows_a: list[np.ndarray] = []
    rows_b: list[float] = []
    row_kind: list[str] = []
    n_ub = 0 if problem.a_ub is None else problem.a_ub.shape[0]
    if n_ub:
        aub = expand(problem.a_ub)
        bub = problem.b_ub - offset(problem.a_ub)
        for i in range(aub.shape[0]):
            rows_a.append(aub[i])
            rows_b.append(bub[i])
            row_kind.append("ub")
    for col, ub in extra_ub_rows:
        row = np.zeros(col_count)
        row[col] = 1.0
        rows_a.append(row)
        rows_b.append(ub)
        row_kind.append("ub")
    if problem.a_eq is not None and problem.a_eq.shape[0]:
        aeq = expand(problem.a_eq)
        beq = problem.b_eq - offset(problem.a_eq)
        for i in range(aeq.shape[0]):
            rows_a.append(aeq[i])
            rows_b.append(beq[i])
            row_kind.append("eq")

    m = len(rows_a)
    if m == 0:
        # Bounded-below iff every objective direction is blocked by bounds.
        x = np.zeros(n)
        for j, spec in enumerate(cols):
            lo, hi = bounds[j]
            cj = problem.objective[j]
            if cj > 0:
                if lo == -_INF:
                    return LpSolution("unbounded")
                x[j] = lo
            elif cj < 0:
                if hi == _INF:
                    return LpSolution("unbounded")
                x[j] = hi
            else:
                x[j] = min(max(0.0, lo), hi)
        return LpSolution("optimal", x, float(problem.objective @ x), duals=np.zeros(0))

    A = np.vstack(rows_a)
    b = np.array(rows_b)

    # Slack columns for <= rows.
    n_slack = sum(1 for k in row_kind if k == "ub")
    S = np.zeros((m, n_slack))
    si = 0
    slack_col_of_row = [-1] * m
    for i, kind in enumerate(row_kind):
        if kind == "ub":
            S[i, si] = 1.0
            slack_col_of_row[i] = col_count + si
            si += 1
    A = np.hstack([A, S])
    total = col_count + n_slack

    # Flip rows to make b >= 0 (flipping a ub row makes its slack -1).
    row_sign = np.ones(m)
    for i in range(m):
        if b[i] < 0:
            row_sign[i] = -1.0
            A[i] *= -1.0
            b[i] *= -1.0
            if slack_col_of_row[i] >= 0:
                slack_col_of_row[i] = -1  # slack now -1, unusable as basis

    # Initial basis: usable slacks, artificials elsewhere.
    basis = [-1] * m
    art_cols = []
    art_data = []
    for i in range(m):
        if slack_col_of_row[i] >= 0:
            basis[i] = slack_col_of_row[i]
        else:
            col = np.zeros(m)
            col[i] = 1.0
            art_cols.append(total + len(art_cols))
            art_data.append(col)
            basis[i] = art_cols[-1]
    if art_data:
        A = np.hstack([A, np.column_stack(art_data)])
    basis = np.array(basis)
    identity_col = basis.copy()  # the +e_i column of each (flipped) row
    n_art = len(art_cols)
    width = total + n_art

    # Pristine standard-form data for refactorization: tableau updates drift
    # on long degenerate runs, so the basis is periodically (and at exit)
    # re-solved against the original rows.
    A_std = A.copy()
    b_std = b.copy()
    live_rows = list(range(m))
    b_scale = max(1.0, float(np.abs(b_std).max()))

    max_iter = tol.iteration_factor * (m + width) + 200

    def refactor() -> bool:
        """Recompute the tableau exactly for the current basis.

        Returns False if the refit basic solution is not primal feasible
        (beyond tolerance), which signals an unrepairable drift.
        """
        nonlocal A, b
        B = A_std[np.ix_(live_rows, basis)]
        try:
            sol = np.linalg.solve(B, np.column_stack([A_std[live_rows], b_std[live_rows]]))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        A = sol[:, :-1]
        b = sol[:, -1]
        if b.min() < -1e-6 * b_scale:
            return False
        np.maximum(b, 0.0, out=b)
        return True

    def pivot(p: int, q: int) -> None:
        """Make column q basic in row p, updating A and b in place."""
        nonlocal A, b
        piv = A[p, q]
        A[p] /= piv
        b[p] /= piv
        colvals = A[:, q].copy()
        colvals[p] = 0.0
        b -= colvals * b[p]
        basis[p] = q
        if A.size >= _RESTRICTED_PIVOT_MIN_ENTRIES:
            rows = colvals.nonzero()[0]
            cols = A[p].nonzero()[0]
            block = rows.size * cols.size
            if A.size >= _RESTRICTED_PIVOT_MIN_ENTRIES + _RESTRICTED_ENTRY_COST * block:
                A[np.ix_(rows, cols)] -= np.outer(colvals[rows], A[p, cols])
                return
        A -= np.outer(colvals, A[p])

    def reduced_costs(cost: np.ndarray) -> np.ndarray:
        red = cost.copy()
        cost_b = cost[basis]
        for i in cost_b.nonzero()[0]:  # in row order, which fixes the rounding
            red -= cost_b[i] * A[i]
        return red

    def run_simplex(cost: np.ndarray, allowed: int, refactor_every: int | None) -> tuple[str, int]:
        """Pivot until optimal/unbounded; columns >= `allowed` never enter.

        Entering rule: steepest (most negative reduced cost, lowest index on
        ties) while the objective is moving; after a run of degenerate pivots
        the rule switches to Bland's, which guarantees termination.  Both
        rules are deterministic.
        """
        red = reduced_costs(cost)
        iters = 0
        dead = 0
        degenerate_run = 0
        while True:
            sub = red[:allowed]
            if degenerate_run < 30:
                q = int(np.argmin(sub))
                if sub[q] >= -tol.optimality:
                    return "optimal", iters
            else:
                cand = np.nonzero(sub < -tol.optimality)[0]
                if cand.size == 0:
                    return "optimal", iters
                q = int(cand[0])  # Bland
            colq = A[:, q]
            pos = np.nonzero(colq > tol.pivot)[0]
            if pos.size == 0:
                # entries below pivot/100 are treated as exact zeros (fp noise
                # on a true ray); the band in between is numeric trouble
                if (colq > tol.pivot * 1e-2).any():
                    dead += 1
                    if dead > 3:
                        raise NumericalFailure("pivot magnitude below threshold repeatedly")
                    red[q] = 0.0  # skip numerically dead column
                    continue
                return "unbounded", iters
            ratios = b[pos] / colq[pos]
            best = ratios.min()
            if degenerate_run < 30:
                ties = pos[ratios <= best + 1e-9 * (1.0 + abs(best))]
                p = _leaving_row(ties, colq, basis, bland=False)
            else:
                p = _leaving_row(pos[ratios <= best + 1e-15], colq, basis, bland=True)
            degenerate_run = degenerate_run + 1 if b[p] <= tol.pivot else 0
            pivot(p, q)
            red -= red[q] * A[p]
            iters += 1
            if refactor_every and iters % refactor_every == 0:
                if not refactor():
                    raise NumericalFailure("lost primal feasibility during pivoting")
                red = reduced_costs(cost)
            if iters > max_iter:
                raise NumericalFailure("simplex iteration cap exceeded")

    refactor_every = 16 if strict else (128 if m <= 600 else None)
    total_iters = 0
    if n_art:
        cost1 = np.zeros(width)
        cost1[total:] = 1.0
        status, it1 = run_simplex(cost1, width, refactor_every)
        total_iters += it1
        # exactify before judging feasibility, then resume if not converged
        for _ in range(3):
            if not refactor():
                raise NumericalFailure("phase-1 basis refit lost feasibility")
            status, extra = run_simplex(cost1, width, refactor_every)
            total_iters += extra
            if extra == 0:
                break
        phase1 = sum(b[i] for i in range(m) if basis[i] >= total)
        if phase1 > tol.feasibility:
            return LpSolution("infeasible", iterations=total_iters)
        # Pivot remaining zero-level artificials out of the basis.
        drop_rows = []
        for i in range(m):
            if basis[i] >= total:
                row = A[i, :total]
                nz = np.nonzero(np.abs(row) > tol.pivot * 10)[0]
                if nz.size == 0:
                    drop_rows.append(i)
                    continue
                pivot(i, int(nz[0]))
        if drop_rows:
            keep = [i for i in range(m) if i not in set(drop_rows)]
            A = A[keep]
            b = b[keep]
            basis = basis[keep]
            live_rows = [live_rows[i] for i in keep]
            m = len(keep)

    cost2 = np.zeros(width)
    cost2_std = np.zeros(col_count)
    for j, spec in enumerate(cols):
        if spec[0] == "split":
            cost2_std[spec[1]] = problem.objective[j]
            cost2_std[spec[2]] = -problem.objective[j]
        elif spec[0] == "shift":
            cost2_std[spec[1]] = problem.objective[j]
        else:
            cost2_std[spec[1]] = -problem.objective[j]
    cost2[:col_count] = cost2_std

    # Solve phase 2, then verify the basis against the pristine rows; on
    # drift, refactorize exactly and resume pivoting.
    for _ in range(6):
        status, it2 = run_simplex(cost2, total, refactor_every)
        total_iters += it2
        if status == "unbounded":
            return LpSolution("unbounded", iterations=total_iters)
        z = np.zeros(width)
        z[basis] = b
        resid = float(np.abs(A_std[live_rows] @ z - b_std[live_rows]).max())
        if resid <= 1e-8 * b_scale and (b.size == 0 or b.min() >= -1e-9 * b_scale):
            break
        if not refactor():
            raise NumericalFailure("phase-2 basis refit lost feasibility")
    else:
        raise NumericalFailure("could not verify an optimal basis")

    # y_i = c_B B^{-1} e_i of the (flipped) row is the entry of c_B B^{-1} A_std
    # (minus the reduced cost) at its +e_i column, whose cost is 0; unflipping
    # multiplies by the row's sign.  A dropped redundant row keeps the dual 0.
    duals_std = np.zeros(len(row_kind))
    duals_std[live_rows] = row_sign[live_rows] * (cost2[basis] @ A)[identity_col[live_rows]]
    duals = np.concatenate([duals_std[:n_ub], duals_std[n_ub + len(extra_ub_rows):]])

    x = np.zeros(n)
    for j, spec in enumerate(cols):
        if spec[0] == "split":
            x[j] = z[spec[1]] - z[spec[2]]
        elif spec[0] == "shift":
            x[j] = spec[2] + z[spec[1]]
        else:
            x[j] = spec[2] - z[spec[1]]
    return LpSolution("optimal", x, float(problem.objective @ x), total_iters, duals)
