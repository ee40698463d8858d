"""Solvers for the per-round bilinear zero-sum game.

The game is  min_{p in P} max_{l in L}  l @ (U_mat p + U_vec),  the payoff
of the running accumulator against a strategy/response pair.  `solve_exact`
enumerates vertices and solves the induced matrix game by one LP, whose
duals give the loss player's mixture; `solve_fpl` runs
Follow-the-Perturbed-Leader for both players using only linear optimization
oracles and reports the exactly measured duality gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MembershipViolation, SolverFailure
from .lp import LpProblem, solve_lp
from .sets import ConvexSet

__all__ = ["BilinearGame", "SaddlePoint", "solve_exact", "solve_fpl",
           "duality_gap", "solve_matrix_game"]


@dataclass
class BilinearGame:
    u_mat: np.ndarray  # (d, d)
    u_vec: np.ndarray  # (d,)
    pset: ConvexSet
    lset: ConvexSet

    def __post_init__(self):
        self.u_mat = np.asarray(self.u_mat, dtype=float)
        self.u_vec = np.asarray(self.u_vec, dtype=float).ravel()
        d = self.pset.dim
        if self.u_mat.shape != (d, d) or self.u_vec.shape != (d,):
            raise ValueError("payoff blocks must be (d, d) and (d,)")

    @property
    def dim(self) -> int:
        return self.pset.dim

    def payoff(self, p: np.ndarray, l: np.ndarray) -> float:
        return float(l @ (self.u_mat @ p + self.u_vec))

    def is_zero(self) -> bool:
        return not (np.any(self.u_mat) or np.any(self.u_vec))


@dataclass
class SaddlePoint:
    p_star: np.ndarray
    l_star: np.ndarray
    value: float
    gap: float


def _bounds_pair(game: BilinearGame, p: np.ndarray, l: np.ndarray) -> tuple[float, float]:
    """(best response value against p, best response value against l)."""
    z = game.u_mat @ p + game.u_vec
    upper = float(z @ game.lset.lmo(-z))  # max_l <z, l>
    c = game.u_mat.T @ l
    lower = float(c @ game.pset.lmo(c)) + float(game.u_vec @ l)
    return upper, lower


def duality_gap(game: BilinearGame, p: np.ndarray, l: np.ndarray,
                membership_tol: float = 1e-7) -> float:
    """max_l' g(p, l') - min_p' g(p', l), via one LMO call per player."""
    if not game.pset.contains(p, membership_tol):
        raise MembershipViolation("p is not in the strategy set")
    if not game.lset.contains(l, membership_tol):
        raise MembershipViolation("l is not in the loss set")
    upper, lower = _bounds_pair(game, p, l)
    return upper - lower


def solve_matrix_game(payoff: np.ndarray):
    """Zero-sum matrix game: row player maximizes, column player minimizes.

    Returns (row_mix, col_mix, value).  One deterministic LP on the payoff
    normalized by its largest magnitude and shifted to entries >= 1:
    max 1.w s.t. A w <= 1, w >= 0 starts from the slack basis (no phase 1);
    the column mixture is w / sum(w) and the row mixture the normalized
    duals.  Both are certified by the gap max(G col) - min(row G) on the
    unnormalized payoff.  Used by the exact saddle solver and by the
    restricted games of the double oracle.
    """
    G = np.asarray(payoff, dtype=float)
    n_row, n_col = G.shape
    scale = float(np.abs(G).max())
    if scale == 0.0:
        row = np.zeros(n_row)
        row[0] = 1.0
        col = np.zeros(n_col)
        col[0] = 1.0
        return row, col, 0.0
    Gn = G / scale
    shift = 1.0 - float(Gn.min())
    sol = solve_lp(LpProblem(-np.ones(n_col), Gn + shift, np.ones(n_row),
                             bounds=[(0.0, None)] * n_col))
    if not sol.optimal:
        raise SolverFailure("matrix game LP did not reach optimality")
    w = np.maximum(sol.x, 0.0)
    u = np.maximum(-sol.duals, 0.0)
    col = w / w.sum()
    row = u / u.sum()
    gap = float((G @ col).max() - (row @ G).min())
    if gap > 1e-7 * max(1.0, scale):
        raise SolverFailure(f"matrix game mixtures not certified: gap {gap}")
    return row, col, (1.0 / w.sum() - shift) * scale


def solve_exact(game: BilinearGame, cap: int = 10_000) -> SaddlePoint:
    """Exact minimax pair via vertex enumeration of both sets.

    Raises VertexBlowup (from the sets) when enumeration exceeds the cap;
    callers fall back to `solve_fpl`.  The returned points are averages of
    optimal vertex mixtures, hence valid set members by convexity.
    """
    if game.is_zero():
        z = np.zeros(game.dim)
        return SaddlePoint(game.pset.lmo(z), game.lset.lmo(z), 0.0, 0.0)
    VP = game.pset.vertex_array(cap)
    VL = game.lset.vertex_array(cap)
    payoff = VL @ (game.u_mat @ VP.T) + (VL @ game.u_vec)[:, None]
    row_mix, col_mix, _ = solve_matrix_game(payoff)
    p_star = col_mix @ VP
    l_star = row_mix @ VL
    upper, lower = _bounds_pair(game, p_star, l_star)
    return SaddlePoint(p_star, l_star, 0.5 * (upper + lower), upper - lower)


def solve_fpl(game: BilinearGame, iters: int, seed: int) -> SaddlePoint:
    """Follow-the-Perturbed-Leader self-play for both players.

    Each player best-responds through its LMO to the opponent's cumulative
    payoffs plus a uniform perturbation scaled like (loss magnitude) *
    sqrt(iters); the output is the pair of average iterates.  The reported
    gap is measured exactly with one extra LMO per player, so downstream
    certificates never rely on the theoretical O(1/sqrt(iters)) rate.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if game.is_zero():
        z = np.zeros(game.dim)
        return SaddlePoint(game.pset.lmo(z), game.lset.lmo(z), 0.0, 0.0)

    rng = np.random.default_rng(seed)
    d = game.dim
    U = game.u_mat
    u = game.u_vec
    r_p = game.pset.norm_bound()
    r_l = game.lset.norm_bound()
    op_norm = float(np.linalg.norm(U, 2))
    scale_p = max(op_norm * r_l, 1e-30)           # magnitude of p-player losses
    scale_l = max(op_norm * r_p + float(np.linalg.norm(u)), 1e-30)
    eta_p = scale_p * np.sqrt(iters)
    eta_l = scale_l * np.sqrt(iters)

    pert_p = rng.uniform(0.0, 1.0, size=(iters, d)) * eta_p
    pert_l = rng.uniform(0.0, 1.0, size=(iters, d)) * eta_l
    np.negative(pert_l, out=pert_l)
    pert_l -= u * np.arange(iters)[:, None]  # folds the constant payoff term

    plmo = game.pset.fast_lmo()
    llmo = game.lset.fast_lmo()
    Ut = U.T
    cum_p = np.zeros(d)  # sum of U^T l_k (p player's linear losses)
    cum_l = np.zeros(d)  # sum of U p_k (l player's linear payoffs, sans constant)
    p_sum = np.zeros(d)
    l_sum = np.zeros(d)
    for k in range(iters):
        p = plmo(cum_p + pert_p[k])
        l = llmo(pert_l[k] - cum_l)
        p_sum += p
        l_sum += l
        cum_p += Ut @ l
        cum_l += U @ p

    p_bar = p_sum / iters
    l_bar = l_sum / iters
    upper, lower = _bounds_pair(game, p_bar, l_bar)
    return SaddlePoint(p_bar, l_bar, 0.5 * (upper + lower), upper - lower)
