"""Exact and certified regret evaluators.

Linear swap regret is computed as an LP over affine endomorphisms (M, a) of
the strategy set P, in one of two exact encodings of M P + a in P:

- vertex form: one membership block per vertex v of P, forcing M v + a into
  P (exact for polytopes because affine maps preserve convex hulls).
  Memberships are encoded compactly per variant: auxiliary absolute-value
  variables for cross-polytopes, facet rows for H-polytopes, convex weights
  for V-polytopes.
- facet form: one block per facet (g, h) of P, bounding the support
  function, h_P(M^T g) + g.a <= h, through the epigraph rows of h_P
  (l1 norms for cubes, max norms for cross-polytopes, maxima over the
  vertices of simplices and V-polytopes, sums over product factors,
  transposes for linear images, LP duality for H-polytopes).

The facet form is taken when P has fewer facets than vertices, both counted
from the set's structure: products (the vertex counts of the factors
multiply, their facet counts add), cubes of dimension >= 3 and their linear
images.  Cross-polytopes, simplices, V- and H-polytopes and the square keep
the vertex form.  Euclidean balls use sampled directions and are certified
afterwards in closed form.  Either way the returned deviation is certified
at the vertices of P, and an uncertified one is logged as a warning.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCertifiedDeviation, RepresentationMissing, SolverFailure
from .lp import LpProblem, solve_lp
from .polydim import FeatureMap, _coordinate_descent
from .sets import Ball, ConvexSet, HPolytope, LinearImage, Product, Simplex, VPolytope

__all__ = ["PlayHistory", "AffineDeviation", "RegretReport",
           "linear_swap_regret", "external_regret", "app_loss_certificate",
           "polydim_regret_lower", "extremal_endomorphism", "make_report",
           "max_norm_affine_over_ball"]

log = logging.getLogger(__name__)


@dataclass
class PlayHistory:
    pset: ConvexSet
    lset: ConvexSet
    plays: np.ndarray   # (T, d)
    losses: np.ndarray  # (T, d)
    mixtures: list | None = None  # optional list[MixedStrategy], same length

    def __post_init__(self):
        self.plays = np.atleast_2d(np.asarray(self.plays, dtype=float))
        self.losses = np.atleast_2d(np.asarray(self.losses, dtype=float))
        if self.plays.shape != self.losses.shape:
            raise ValueError("plays and losses must have matching shapes")

    @property
    def T(self) -> int:
        return self.plays.shape[0]

    def validate(self, tol: float = 1e-7, pairing_bound: float = 1.0):
        for t in range(self.T):
            if not self.pset.contains(self.plays[t], tol):
                raise ValueError(f"play at round {t + 1} outside the strategy set")
            if not self.lset.contains(self.losses[t], tol):
                raise ValueError(f"loss at round {t + 1} outside the loss set")
            if abs(float(self.plays[t] @ self.losses[t])) > pairing_bound + tol:
                raise ValueError(f"pairing bound violated at round {t + 1}")

    def total_loss(self) -> float:
        return float(np.sum(self.plays * self.losses))


@dataclass
class AffineDeviation:
    M: np.ndarray
    a: np.ndarray
    certified: bool

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.M @ p + self.a

    def frob(self) -> float:
        return math.sqrt(float(np.sum(self.M ** 2)) + float(np.sum(self.a ** 2)))


@dataclass
class RegretReport:
    linear_swap: float
    external: float
    app_loss_cert: float
    profile_swap_dist_cert: float
    bound_8d_sqrtT: float
    frobenius_max_observed: float
    deviation: AffineDeviation


_BALL2_DIRECTIONS: dict[tuple[int, int], np.ndarray] = {}


def _ball2_directions(d: int, count: int = 64) -> np.ndarray:
    if (d, count) not in _BALL2_DIRECTIONS:
        rng = np.random.default_rng(202409)
        dirs = rng.normal(size=(count, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        _BALL2_DIRECTIONS[(d, count)] = dirs
    return _BALL2_DIRECTIONS[(d, count)]


def _membership_block(target: ConvexSet, C: np.ndarray, c0: np.ndarray) -> dict:
    """Linear rows forcing z = C x + c0 into `target`.

    Returns ub rows (A_x, A_aux, b), eq rows, per-point auxiliary variable
    bounds, and whether the encoding is exact (`certified`).
    """
    n_x = C.shape[1]
    d = target.dim
    empty_x = np.zeros((0, n_x))

    if isinstance(target, Ball) and target.p == math.inf:
        A_x = np.vstack([C, -C])
        b = np.concatenate([target.radius - c0, target.radius + c0])
        return dict(aub_x=A_x, aub_a=np.zeros((2 * d, 0)), bub=b,
                    aeq_x=empty_x, aeq_a=np.zeros((0, 0)), beq=np.zeros(0),
                    aux_bounds=[], certified=True)

    if isinstance(target, Ball) and target.p == 1.0:
        # t_i >= |z_i|, sum t <= r
        A_x = np.vstack([C, -C, np.zeros((1, n_x))])
        A_a = np.vstack([-np.eye(d), -np.eye(d), np.ones((1, d))])
        b = np.concatenate([-c0, c0, [target.radius]])
        return dict(aub_x=A_x, aub_a=A_a, bub=b,
                    aeq_x=empty_x, aeq_a=np.zeros((0, d)), beq=np.zeros(0),
                    aux_bounds=[(0.0, None)] * d, certified=True)

    if isinstance(target, Ball) and target.p == 2.0:
        dirs = _ball2_directions(d)
        A_x = dirs @ C
        b = target.radius - dirs @ c0
        return dict(aub_x=A_x, aub_a=np.zeros((dirs.shape[0], 0)), bub=b,
                    aeq_x=empty_x, aeq_a=np.zeros((0, 0)), beq=np.zeros(0),
                    aux_bounds=[], certified=False)

    if isinstance(target, Simplex):
        A_x = np.vstack([-C, C.sum(axis=0, keepdims=True)])
        b = np.concatenate([c0, [1.0 - c0.sum()]])
        return dict(aub_x=A_x, aub_a=np.zeros((d + 1, 0)), bub=b,
                    aeq_x=empty_x, aeq_a=np.zeros((0, 0)), beq=np.zeros(0),
                    aux_bounds=[], certified=True)

    if isinstance(target, HPolytope):
        A_x = target.normals @ C
        b = target.offsets - target.normals @ c0
        return dict(aub_x=A_x, aub_a=np.zeros((A_x.shape[0], 0)), bub=b,
                    aeq_x=empty_x, aeq_a=np.zeros((0, 0)), beq=np.zeros(0),
                    aux_bounds=[], certified=True)

    if isinstance(target, VPolytope):
        V = target.vertices
        m = V.shape[0]
        # z = V^T w, sum w = 1, w >= 0
        aeq_x = np.vstack([C, np.zeros((1, n_x))])
        aeq_a = np.vstack([-V.T, np.ones((1, m))])
        beq = np.concatenate([-c0, [1.0]])
        return dict(aub_x=empty_x, aub_a=np.zeros((0, m)), bub=np.zeros(0),
                    aeq_x=aeq_x, aeq_a=aeq_a, beq=beq,
                    aux_bounds=[(0.0, None)] * m, certified=True)

    if isinstance(target, Product):
        return _merged_block([_membership_block(f, C[s], c0[s])
                              for f, s in zip(target.factors, target.slices())], n_x)

    if isinstance(target, LinearImage):
        return _membership_block(target.inner, target.inverse @ C, target.inverse @ c0)

    raise RepresentationMissing(f"no membership encoding for {type(target).__name__}")


def _support_block(K: ConvexSet, Y: np.ndarray) -> dict:
    """Epigraph rows s >= h_K(Y x) of the support function of `K`.

    Same dict shape as `_membership_block`, plus `s_a`: the coefficients of
    s = s_a @ aux on the block's auxiliaries.  Exact: for every x the least
    s the rows allow is h_K(Y x) = max_{z in K} <Y x, z>.
    """
    n_x = Y.shape[1]
    d = K.dim
    empty_x = np.zeros((0, n_x))

    def block(aub_x, aub_a, aux_bounds, s_a, aeq_x=empty_x, aeq_a=None):
        n_aux = len(aux_bounds)
        return dict(aub_x=aub_x, aub_a=aub_a, bub=np.zeros(aub_x.shape[0]),
                    aeq_x=aeq_x,
                    aeq_a=np.zeros((0, n_aux)) if aeq_a is None else aeq_a,
                    beq=np.zeros(aeq_x.shape[0]), aux_bounds=aux_bounds,
                    certified=True, s_a=np.asarray(s_a, dtype=float))

    if isinstance(K, Ball) and K.p == math.inf:
        # s = r sum t, t_i >= |y_i|
        return block(np.vstack([Y, -Y]), np.vstack([-np.eye(d), -np.eye(d)]),
                     [(0.0, None)] * d, np.full(d, K.radius))

    if isinstance(K, Ball) and K.p == 1.0:
        # s >= r |y_i|
        return block(K.radius * np.vstack([Y, -Y]), -np.ones((2 * d, 1)),
                     [(0.0, None)], [1.0])

    if isinstance(K, Simplex):
        # s >= 0 (its bound) and s >= y_i
        return block(Y, -np.ones((d, 1)), [(0.0, None)], [1.0])

    if isinstance(K, VPolytope):
        V = K.vertices
        return block(V @ Y, -np.ones((V.shape[0], 1)), [(None, None)], [1.0])

    if isinstance(K, HPolytope):
        # LP duality: h_K(y) = min h.lam  s.t.  G^T lam = y, lam >= 0
        m = K.normals.shape[0]
        return block(empty_x, np.zeros((0, m)), [(0.0, None)] * m, K.offsets,
                     aeq_x=-Y, aeq_a=K.normals.T)

    if isinstance(K, Product):
        blocks = [_support_block(f, Y[s]) for f, s in zip(K.factors, K.slices())]
        merged = _merged_block(blocks, n_x)
        merged["s_a"] = np.concatenate([bl["s_a"] for bl in blocks])
        return merged

    if isinstance(K, LinearImage):
        return _support_block(K.inner, K.matrix.T @ Y)

    raise RepresentationMissing(f"no support-function encoding for {type(K).__name__}")


def _stack_blocks(blocks: list, n_x: int):
    """Stack membership or support blocks that share the variables x into one LP.

    Columns are x first, then each block's auxiliaries in block order.
    Returns (a_ub, b_ub, a_eq, b_eq, bounds, certified), with a_eq and b_eq
    None when no block has equality rows.
    """
    n_aux = sum(len(bl["aux_bounds"]) for bl in blocks)
    total = n_x + n_aux
    rows_ub = sum(bl["aub_x"].shape[0] for bl in blocks)
    rows_eq = sum(bl["aeq_x"].shape[0] for bl in blocks)
    a_ub = np.zeros((rows_ub, total))
    b_ub = np.zeros(rows_ub)
    a_eq = np.zeros((rows_eq, total)) if rows_eq else None
    b_eq = np.zeros(rows_eq) if rows_eq else None
    bounds: list[tuple[float | None, float | None]] = [(None, None)] * n_x
    r_ub = r_eq = 0
    a_off = n_x
    for bl in blocks:
        nb = len(bl["aux_bounds"])
        ru = bl["aub_x"].shape[0]
        re = bl["aeq_x"].shape[0]
        a_ub[r_ub:r_ub + ru, :n_x] = bl["aub_x"]
        a_ub[r_ub:r_ub + ru, a_off:a_off + nb] = bl["aub_a"]
        b_ub[r_ub:r_ub + ru] = bl["bub"]
        if re:
            a_eq[r_eq:r_eq + re, :n_x] = bl["aeq_x"]
            a_eq[r_eq:r_eq + re, a_off:a_off + nb] = bl["aeq_a"]
            b_eq[r_eq:r_eq + re] = bl["beq"]
        bounds.extend(bl["aux_bounds"])
        r_ub += ru
        r_eq += re
        a_off += nb
    return a_ub, b_ub, a_eq, b_eq, bounds, all(bl["certified"] for bl in blocks)


def _merged_block(blocks: list, n_x: int) -> dict:
    """Blocks on the same x stacked into one block (for product sets)."""
    a_ub, bub, a_eq, beq, bounds, certified = _stack_blocks(blocks, n_x)
    if a_eq is None:
        a_eq, beq = np.zeros((0, a_ub.shape[1])), np.zeros(0)
    return dict(aub_x=a_ub[:, :n_x], aub_a=a_ub[:, n_x:], bub=bub,
                aeq_x=a_eq[:, :n_x], aeq_a=a_eq[:, n_x:], beq=beq,
                aux_bounds=bounds[n_x:], certified=certified)


def _face_counts(K: ConvexSet) -> tuple[int, int] | None:
    """(facets, vertices) of K counted from its structure, without
    enumerating; None where a count would need an enumeration (the facets
    of a V-polytope, the vertices of an H-polytope) or does not exist."""
    if isinstance(K, Ball) and K.p == math.inf:
        return 2 * K.dim, 2 ** K.dim
    if isinstance(K, Ball) and K.p == 1.0:
        return 2 ** K.dim, 2 * K.dim
    if isinstance(K, Simplex):
        return K.dim + 1, K.dim + 1
    if isinstance(K, LinearImage):
        return _face_counts(K.inner)
    if isinstance(K, Product):
        counts = [_face_counts(f) for f in K.factors]
        if None in counts:
            return None
        return sum(f for f, _ in counts), math.prod(v for _, v in counts)
    return None


def _uses_facet_form(pset: ConvexSet) -> bool:
    """Whether the regret LP is written per facet rather than per vertex."""
    counts = _face_counts(pset)
    return counts is not None and counts[0] < counts[1]


def _facet_blocks(pset: ConvexSet, n_x: int, include_affine: bool) -> list:
    """One block h_P(M^T g) + g.a <= h per facet (g, h) of P; x = (vec M, a)."""
    d = pset.dim
    G, h = pset.hrep()
    col = np.arange(d * d)  # x[i d + j] = M[i, j] enters (M^T g)_j with weight g_i
    blocks = []
    for g, h_k in zip(G, h):
        Y = np.zeros((d, n_x))
        Y[col % d, col] = np.repeat(g, d)  # Y x = M^T g
        bl = _support_block(pset, Y)
        row_x = np.zeros((1, n_x))
        if include_affine:
            row_x[0, d * d:] = g
        bl["aub_x"] = np.vstack([bl["aub_x"], row_x])
        bl["aub_a"] = np.vstack([bl["aub_a"], bl["s_a"][None, :]])
        bl["bub"] = np.append(bl["bub"], h_k)
        blocks.append(bl)
    return blocks


def _source_points(pset: ConvexSet) -> tuple[np.ndarray, bool]:
    """Points at which image membership must be enforced.

    Vertices when available (exact for affine maps on polytopes); for the
    Euclidean ball a fixed boundary sample with post-hoc certification.
    """
    if isinstance(pset, Ball) and pset.p == 2.0:
        if pset.dim == 2:  # evenly spaced: relaxation gap 1/cos(pi/32) - 1
            th = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
            dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        else:
            dirs = _ball2_directions(pset.dim, 32)
        return dirs * pset.radius, False
    return pset.vertex_array(), True


def max_norm_affine_over_ball(M: np.ndarray, a: np.ndarray, radius: float) -> float:
    """Exact max of ||M x + a||_2 over ||x||_2 <= radius.

    Trust-region style: in the eigenbasis of M^T M the boundary maximizer
    solves a secular equation, handled by bisection with the usual hard case
    when a is orthogonal to the top eigenspace.
    """
    Q = M.T @ M
    b = M.T @ a
    const = float(a @ a)
    evals, evecs = np.linalg.eigh(Q)
    lam_max = float(evals[-1])
    beta = evecs.T @ b
    r = radius

    def x_norm_sq(lam: float) -> float:
        return float(np.sum((beta / (lam - evals)) ** 2))

    top = np.abs(evals - lam_max) < 1e-12 * max(1.0, abs(lam_max))
    if np.linalg.norm(beta[top]) <= 1e-14 * max(1.0, np.linalg.norm(beta)):
        # hard case: fill the top eigendirection
        rest = ~top
        y = np.zeros_like(beta)
        y[rest] = beta[rest] / (lam_max - evals[rest])
        rem = r * r - float(y @ y)
        if rem > 0:
            idx = int(np.nonzero(top)[0][0])
            y[idx] = math.sqrt(rem)
        val = float(y @ (evals * y) + 2 * beta @ y + const)
        return math.sqrt(max(val, 0.0))

    lo = lam_max + 1e-14 * max(1.0, abs(lam_max))
    hi = lam_max + np.linalg.norm(beta) / r + 1.0
    while x_norm_sq(hi) > r * r:
        hi = lam_max + 2 * (hi - lam_max)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if x_norm_sq(mid) > r * r:
            lo = mid
        else:
            hi = mid
    lam = hi
    y = beta / (lam - evals)
    val = float(y @ (evals * y) + 2 * beta @ y + const)
    return math.sqrt(max(val, 0.0))


def extremal_endomorphism(pset: ConvexSet, w_mat: np.ndarray,
                          w_vec: np.ndarray | None = None,
                          include_affine: bool = True):
    """max <(w_mat, w_vec), (M, a)> over affine endomorphisms of `pset`.

    Returns (value, AffineDeviation).  The LP is written per facet or per
    vertex of `pset`, whichever it has fewer of (see the module docstring).
    Feasibility is certified exactly for polytopal sets; for Euclidean balls
    the LP uses sampled directions and the result is then certified (or not)
    by the closed-form ball maximum.  An uncertified result is logged.
    """
    d = pset.dim
    w_mat = np.asarray(w_mat, dtype=float)
    n_x = d * d + (d if include_affine else 0)
    if _uses_facet_form(pset):
        blocks = _facet_blocks(pset, n_x, include_affine)
        sources, exact_sources = pset.vertex_array(), True
    else:
        sources, exact_sources = _source_points(pset)
        blocks = []
        for v in sources:
            C = np.zeros((d, n_x))
            for i in range(d):
                C[i, i * d:(i + 1) * d] = v
                if include_affine:
                    C[i, d * d + i] = 1.0
            blocks.append(_membership_block(pset, C, np.zeros(d)))

    a_ub, b_ub, a_eq, b_eq, bounds, blocks_certified = _stack_blocks(blocks, n_x)

    objective = np.zeros(a_ub.shape[1])
    objective[:d * d] = -w_mat.ravel()
    if include_affine and w_vec is not None:
        objective[d * d:d * d + d] = -np.asarray(w_vec, dtype=float)

    sol = solve_lp(LpProblem(objective, a_ub, b_ub, a_eq, b_eq, bounds))
    if not sol.optimal:
        raise SolverFailure(f"endomorphism LP status {sol.status}")
    M = sol.x[:d * d].reshape(d, d)
    a = sol.x[d * d:d * d + d] if include_affine else np.zeros(d)

    certified = exact_sources and blocks_certified
    if not certified and isinstance(pset, Ball) and pset.p == 2.0:
        reach = max_norm_affine_over_ball(M, a, pset.radius)
        certified = reach <= pset.radius + 1e-7
    elif certified:
        certified = all(pset.contains(M @ v + a, 1e-6) for v in sources)
    if not certified:
        log.warning("extremal endomorphism of a %s in dimension %d is not certified: "
                    "it may map points outside the set, so its value is no certified "
                    "regret", type(pset).__name__, d)
    return float(-sol.value), AffineDeviation(M, a, certified)


def linear_swap_regret(history: PlayHistory, include_affine: bool = True,
                       validate: bool = True):
    """Exact linear swap regret and its maximizing affine deviation.

    Solves  max_{(M, a) in End(P)} <(I, 0) - (M, a), sum_t kappa_t>  as one
    LP; `include_affine=False` drops the offset (the convention for
    non-symmetric sets).
    """
    if validate:
        history.validate()
    K_mat = history.losses.T @ history.plays
    k_vec = history.losses.sum(axis=0)
    best, dev = extremal_endomorphism(history.pset, -K_mat,
                                      -k_vec if include_affine else None,
                                      include_affine=include_affine)
    value = float(np.trace(K_mat)) + best
    return value, dev


def external_regret(history: PlayHistory) -> float:
    """sum_t <l_t, p_t> minus the best fixed strategy in hindsight."""
    total = history.losses.sum(axis=0)
    best = float(total @ history.pset.lmo(total))
    return history.total_loss() - best


def app_loss_certificate(trajectory) -> float:
    """||kappa_bar_T - s_bar_T||_F: upper bound on the approachability loss,
    equal to the profile-swap-distance certificate."""
    return trajectory.certificate


def _feature_history(history: PlayHistory, fmap: FeatureMap) -> np.ndarray:
    if history.mixtures is not None:
        return np.array([m.mean_features(fmap) for m in history.mixtures])
    return fmap.evaluate_batch(history.plays)


def _violation(pset: ConvexSet, z: np.ndarray) -> float:
    G, h = pset.hrep()
    scale = np.maximum(np.linalg.norm(G, axis=1), 1e-30)
    return float(np.max((G @ z - h) / scale))


def polydim_regret_lower(history: PlayHistory, fmap: FeatureMap,
                         rounds_cap: int = 15, seed: int = 0,
                         n_probe: int = 1000, grid_init: int = 200):
    """Certified lower bound on the polynomial-dimension swap regret.

    Cutting-plane loop: maximize <J_d - M, sum_t kappa_t> subject to image
    membership M m(q) in P at a growing sample set Q; a violation search
    (multi-start coordinate ascent on the most violated facet) either adds a
    cut or the candidate is probed at n_probe random points and certified.
    Only certified deviations are ever returned, so the value is a true
    lower bound.
    """
    pset = history.pset
    d, D = pset.dim, fmap.D
    rng = np.random.default_rng(seed)
    feats = _feature_history(history, fmap)
    K = history.losses.T @ feats  # (d, D)
    J = np.zeros((d, D))
    J[np.arange(d), np.arange(d)] = 1.0

    verts = pset.vertex_array()
    Q = [v for v in verts]
    Q.extend(pset.sample(rng, grid_init))

    def z_expr(mq: np.ndarray) -> np.ndarray:
        C = np.zeros((d, d * D))
        for i in range(d):
            C[i, i * D:(i + 1) * D] = mq
        return C

    def solve_for(Qpts: list, shrink: float = 0.0) -> np.ndarray:
        target = pset.scaled(1.0 - shrink) if shrink > 0 else pset
        blocks = [_membership_block(target, z_expr(fmap.evaluate(q)), np.zeros(d))
                  for q in Qpts]
        a_ub, b_ub, a_eq, b_eq, bounds, _ = _stack_blocks(blocks, d * D)
        sol = solve_lp(LpProblem(K.ravel(), a_ub, b_ub, a_eq, b_eq, bounds))
        if not sol.optimal:
            raise SolverFailure(f"polydim LP status {sol.status}")
        return sol.x[:d * D].reshape(d, D)

    def probe_certified(M: np.ndarray) -> bool:
        pts = pset.sample(rng, n_probe)
        imgs = fmap.evaluate_batch(pts) @ M.T
        return all(pset.contains(z, 1e-6) for z in imgs)

    def value_of(M: np.ndarray) -> float:
        return float(np.sum((J - M) * K))

    def violation_search(M: np.ndarray):
        """Worst membership violation of q -> M m(q), by multi-start descent."""
        def viol_obj(q):
            return -_violation(pset, M @ fmap.evaluate(q))

        worst_q, worst = None, 0.0
        starts = [v for v in verts] + list(pset.sample(rng, 32))
        for s in starts:
            q_ref, neg_v = _coordinate_descent(viol_obj, np.asarray(s, float), pset)
            if -neg_v > worst:
                worst, worst_q = -neg_v, q_ref
        return worst, worst_q

    best_certified = (0.0, J.copy())  # feature identity: always feasible
    if not probe_certified(J):
        raise NoCertifiedDeviation("feature-identity map failed probing")
    for _ in range(rounds_cap):
        M = solve_for(Q)
        worst, worst_q = violation_search(M)
        if worst <= 1e-7:
            if probe_certified(M):
                val = value_of(M)
                if val > best_certified[0]:
                    best_certified = (val, M)
                return best_certified
            worst_q = None
        if worst_q is None:
            # probing found trouble the search missed: add worst probe point
            pts = pset.sample(rng, n_probe)
            viols = [ _violation(pset, M @ fmap.evaluate(q)) for q in pts ]
            worst_q = pts[int(np.argmax(viols))]
        Q.append(worst_q)

    # Cutting rounds exhausted: certify a slightly shrunk deviation instead.
    # Images land in (1 - shrink) P at the sample set, leaving margin for the
    # in-between points; the value gives up O(shrink) but stays a true lower
    # bound once the searches pass.
    for shrink in (1e-4, 1e-3, 1e-2):
        M = solve_for(Q, shrink=shrink)
        worst, _ = violation_search(M)
        if worst <= 1e-7 and probe_certified(M):
            val = value_of(M)
            if val > best_certified[0]:
                best_certified = (val, M)
            break
    return best_certified


def make_report(history: PlayHistory, trajectory=None,
                include_affine: bool = True) -> RegretReport:
    value, dev = linear_swap_regret(history, include_affine=include_affine)
    ext = external_regret(history)
    cert = app_loss_certificate(trajectory) if trajectory is not None else float("nan")
    d, T = history.pset.dim, history.T
    return RegretReport(
        linear_swap=value,
        external=ext,
        app_loss_cert=cert,
        profile_swap_dist_cert=cert,
        bound_8d_sqrtT=8.0 * d * math.sqrt(T),
        frobenius_max_observed=dev.frob(),
        deviation=dev,
    )
