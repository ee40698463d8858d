"""Approachability for swap deviations of polynomial dimension.

Strategies become finite-support mixtures and points live in R^{d x D},
where D is the feature dimension of a monomial map m(p) whose first d
coordinates are p itself and whose last coordinate is the constant 1.  The
per-round minimax over Delta(P) x L is approximated by a double oracle on a
growing candidate pool, with the achieved closure residual folded into the
measured eps_t so all certificates remain honest.

The accumulator, the round driver and the Trajectory are the linear loop's
(`engine.ApproachState`, `engine._run_rounds`), with the state widened to
D columns; `PolyState` adds only the candidate pool.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import ApproachState, RoundLog, Trajectory, _run_rounds
from .errors import (AdversaryFault, DimBlowup, MembershipViolation,
                     RepresentationMissing, VertexBlowup)
from .saddle import solve_matrix_game
from .sets import ConvexSet

__all__ = ["FeatureMap", "monomial_map", "MixedStrategy", "PolyState",
           "best_response_point", "poly_step", "poly_run"]


@dataclass(frozen=True)
class FeatureMap:
    d: int
    degree: int
    exponents: np.ndarray  # (D, d) integer exponent rows

    @property
    def D(self) -> int:
        return self.exponents.shape[0]

    def evaluate(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float).ravel()
        return np.prod(p[None, :] ** self.exponents, axis=1)

    def evaluate_batch(self, P) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        return np.prod(P[:, None, :] ** self.exponents[None, :, :], axis=2)


def monomial_map(d: int, degree: int, cap: int = 500) -> FeatureMap:
    """All monomials of total degree <= degree, graded order, constant last.

    The degree-1 block comes first so the leading d features are the
    coordinates themselves; D = C(d + degree, degree).
    """
    if d < 1 or degree < 1:
        raise ValueError("need d >= 1 and degree >= 1")
    D = math.comb(d + degree, degree)
    if D > cap:
        raise DimBlowup(f"feature dimension {D} exceeds cap {cap}")
    rows = []
    for g in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(d), g):
            e = np.zeros(d, dtype=int)
            for i in combo:
                e[i] += 1
            rows.append(e)
    rows.append(np.zeros(d, dtype=int))  # constant feature last
    return FeatureMap(d, degree, np.array(rows))


@dataclass
class MixedStrategy:
    support: np.ndarray  # (m, d) points of the strategy set
    weights: np.ndarray  # (m,) nonnegative, sums to 1

    def __post_init__(self):
        self.support = np.atleast_2d(np.asarray(self.support, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.support.shape[0] != self.weights.size:
            raise ValueError("support/weights size mismatch")
        if self.weights.min() < -1e-12 or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")

    def validate_members(self, pset: ConvexSet, tol: float = 1e-7):
        for q in self.support:
            if not pset.contains(q, tol):
                raise MembershipViolation("mixture support point outside the set")

    def mean_play(self) -> np.ndarray:
        return self.weights @ self.support

    def mean_features(self, fmap: FeatureMap) -> np.ndarray:
        return self.weights @ fmap.evaluate_batch(self.support)


@dataclass
class PolyState(ApproachState):
    """Accumulator over R^{d x D} (`PolyState(d, D)`) plus the candidate pool."""

    pool: list = field(default_factory=list)           # candidate points in P
    pool_feats: list = field(default_factory=list)     # cached m(q)
    pool_weight: list = field(default_factory=list)    # cumulative mixture mass

    def add_candidate(self, q: np.ndarray, fmap: FeatureMap, dedupe_tol: float = 1e-9) -> int:
        for i, existing in enumerate(self.pool):
            if np.linalg.norm(existing - q) <= dedupe_tol:
                return i
        self.pool.append(np.asarray(q, dtype=float).copy())
        self.pool_feats.append(fmap.evaluate(q))
        self.pool_weight.append(0.0)
        return len(self.pool) - 1

    def evict_to(self, cap: int, protect: set):
        while len(self.pool) > cap:
            order = sorted(range(len(self.pool)),
                           key=lambda i: (i in protect, self.pool_weight[i]))
            victim = order[0]
            if victim in protect:
                break
            del self.pool[victim], self.pool_feats[victim], self.pool_weight[victim]
            protect = {i - 1 if i > victim else i for i in protect}


def _coordinate_descent(objective, start: np.ndarray, pset: ConvexSet,
                        sweeps: int = 20, step0: float = 0.5, min_step: float = 1e-5):
    """Greedy per-coordinate local search, halving the step on failed sweeps."""
    p = start.copy()
    best = objective(p)
    step = step0
    d = p.size
    for _ in range(sweeps):
        improved = False
        for i in range(d):
            for delta in (step, -step):
                cand = p.copy()
                cand[i] += delta
                if not pset.contains(cand, 1e-9):
                    continue
                val = objective(cand)
                if val < best - 1e-12:
                    p, best = cand, val
                    improved = True
        if not improved:
            step *= 0.5
            if step < min_step:
                break
    return p, best


def best_response_point(u_mat: np.ndarray, loss: np.ndarray, pset: ConvexSet,
                        fmap: FeatureMap, pool: list, rng: np.random.Generator,
                        n_samples: int = 64, n_refine: int = 3) -> np.ndarray:
    """Heuristic minimizer of l^T U m(p) over p in P.

    Candidates: the pool, the vertices (when enumerable), fresh uniform
    samples, and coordinate-descent refinements seeded from the best few.
    The objective is a polynomial in p, so interior optima are real; the
    refinement exists to catch them.  Quality gaps surface in the measured
    eps_t, never in the certificates.
    """
    c = u_mat.T @ loss  # objective is c @ m(p)

    def objective(p):
        return float(c @ fmap.evaluate(p))

    candidates = [np.asarray(q, dtype=float) for q in pool]
    try:
        candidates.extend(pset.vertex_array(cap=256))
    except (VertexBlowup, RepresentationMissing):
        pass
    candidates.extend(pset.sample(rng, n_samples))
    vals = np.array([objective(q) for q in candidates])
    best_idx = np.argsort(vals, kind="stable")[:n_refine]
    best_p = candidates[int(np.argmin(vals))]
    best_v = float(vals.min())
    for idx in best_idx:
        p_ref, v_ref = _coordinate_descent(objective, candidates[int(idx)], pset)
        if v_ref < best_v - 1e-12:
            best_p, best_v = p_ref, v_ref
    return np.asarray(best_p, dtype=float)


def poly_step(state: PolyState, pset: ConvexSet, lset: ConvexSet, fmap: FeatureMap,
              adversary, do_iters: int = 8, rng: np.random.Generator | None = None,
              pool_cap: int = 256, close_tol: float = 1e-4,
              sample_play: bool = False) -> tuple[RoundLog, MixedStrategy]:
    """One round of the mixed-strategy approachability loop.

    Solves the restricted matrix game over Delta(pool) x Delta(L-candidates)
    and expands both sides by best responses until neither improves the
    restricted value materially; the remaining closure residual plus the
    positive part of the realized invariant is logged as eps_t.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    d = state.dim
    t = state.t + 1
    U = state.U

    if not state.pool:
        for v in pset.vertex_array(cap=256):
            state.add_candidate(v, fmap)

    residual = 0.0
    if not np.any(U):
        mix = MixedStrategy(state.pool[0][None, :], np.array([1.0]))
        support_idx = np.array([0])
        l_star = lset.lmo(np.zeros(d))
        game_value = 0.0
    else:
        l_pts = [lset.lmo(np.zeros(d))]
        try:
            l_pts = list(lset.vertex_array(cap=128))
        except (VertexBlowup, RepresentationMissing):
            pass
        L = np.array(l_pts)
        for _ in range(max(do_iters, 1)):
            snapshot = np.array(state.pool)  # columns of this iteration's game
            MQ = np.array(state.pool_feats)
            payoff = L @ (U @ MQ.T)  # rows: losses (max), cols: pool (min)
            row_mix, col_mix, value = solve_matrix_game(payoff)
            m_bar = col_mix @ MQ
            l_bar = row_mix @ L
            scale = max(1.0, float(np.abs(payoff).max()))
            z = U @ m_bar
            l_br = lset.lmo(-z)
            impr_l = float(l_br @ z) - value
            p_br = best_response_point(U, l_bar, pset, fmap, state.pool, rng)
            impr_p = value - float((U.T @ l_bar) @ fmap.evaluate(p_br))
            if max(impr_l, impr_p) <= close_tol * scale:
                break
            if impr_l > close_tol * scale:
                if not any(np.linalg.norm(l_br - q) <= 1e-9 for q in L):
                    L = np.vstack([L, l_br])
            if impr_p > close_tol * scale:
                state.add_candidate(p_br, fmap)
        residual = max(impr_l, 0.0) + max(impr_p, 0.0)
        support_idx = np.nonzero(col_mix > 1e-12)[0]
        mix = MixedStrategy(snapshot[support_idx],
                            col_mix[support_idx] / col_mix[support_idx].sum())
        l_star = l_bar
        game_value = value

    b_point = pset.lmo(l_star)
    s_flat = np.outer(l_star, fmap.evaluate(b_point))

    m_bar_mix = mix.mean_features(fmap)
    p_play = mix.support[rng.choice(mix.support.shape[0], p=mix.weights)] if sample_play \
        else mix.mean_play()
    loss = np.asarray(adversary(t, p_play), dtype=float).ravel()
    if loss.size != d or not lset.contains(loss, 1e-7):
        raise AdversaryFault(f"loss at round {t} is outside the loss set")
    kappa_flat = np.outer(loss, m_bar_mix)

    invariant_value, cert_norm = state.accumulate(kappa_flat, s_flat)
    eps = (max(invariant_value, 0.0) + max(residual, 0.0)) / max(t - 1, 1)

    # track historical mixture mass for pool eviction
    for local_i, pool_i in enumerate(support_idx):
        state.pool_weight[int(pool_i)] += float(mix.weights[local_i])
    state.evict_to(pool_cap, set(int(i) for i in support_idx))

    log = RoundLog(
        t=t, p_played=p_play, loss=loss,
        invariant_value=invariant_value, game_gap=residual, game_value=game_value,
        eps=eps, inst_loss=float(loss @ p_play), cert_norm=cert_norm,
    )
    return log, mix


def poly_run(pset: ConvexSet, lset: ConvexSet, T: int, adversary, fmap: FeatureMap,
             do_iters: int = 8, seed: int = 0, pool_cap: int = 256,
             sample_play: bool = False) -> Trajectory:
    """Full mixed-strategy trajectory; same certificate contract as `run`."""
    state = PolyState(pset.dim, fmap.D)
    rng = np.random.default_rng(seed)
    mixtures, pool_sizes = [], []

    def play_round(t: int) -> RoundLog:
        log, mix = poly_step(state, pset, lset, fmap, adversary, do_iters=do_iters,
                             rng=rng, pool_cap=pool_cap, sample_play=sample_play)
        mixtures.append(mix)
        pool_sizes.append(len(state.pool))
        return log

    return _run_rounds(pset, lset, T, state, play_round, "poly", seed,
                       mixtures=mixtures, pool_sizes=pool_sizes)
