"""Convex strategy/loss sets with linear-optimization and membership oracles.

Every set variant supports `lmo` (argmin of a linear objective) and
`contains`; polytopal variants additionally expose vertex and halfspace
representations used by the exact game solver and the regret LPs.  All sets
are compact and fully dimensional.  Tie-breaking in `lmo` is deterministic:
among optimal vertices, the one earliest in the canonical vertex order wins.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RepresentationMissing, UnsupportedSet, VertexBlowup
from .lp import LpProblem, solve_lp

__all__ = [
    "ConvexSet", "Ball", "Simplex", "Product", "VPolytope", "HPolytope",
    "LinearImage", "set_from_spec",
]

VERTEX_CAP = 10_000
_BALL_INF_MAX_DIM = 12  # 2^12 sign vertices; beyond this enumeration is refused


def _check_direction(c: np.ndarray, dim: int) -> np.ndarray:
    c = np.asarray(c, dtype=float).ravel()
    if c.size != dim:
        raise ValueError(f"direction has size {c.size}, expected {dim}")
    if not np.isfinite(c).all():
        raise ValueError("direction must be finite")
    return c


def _memoized_vertices(method):
    """Compute a set's vertex array once per cap and hand out the same
    read-only array afterwards.  The sets are immutable, so the array cannot
    go stale; VertexBlowup and RepresentationMissing are raised again on
    every call, never cached."""
    @functools.wraps(method)
    def vertex_array(self, cap: int = VERTEX_CAP) -> np.ndarray:
        memo = self.__dict__.get("_vertex_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_vertex_memo", memo)
        if cap not in memo:
            verts = method(self, cap)
            verts.setflags(write=False)
            memo[cap] = verts
        return memo[cap]
    return vertex_array


class ConvexSet:
    """Base class; concrete variants implement the oracle surface."""

    dim: int

    # -- oracles -----------------------------------------------------------
    def lmo(self, direction) -> np.ndarray:
        raise NotImplementedError

    def contains(self, point, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def support(self, direction) -> float:
        """max_{x in set} <direction, x>."""
        c = _check_direction(direction, self.dim)
        return float(c @ self.lmo(-c))

    def fast_lmo(self):
        """Unvalidated LMO closure for hot loops; inputs must be finite."""
        return self.lmo

    def polar(self) -> "ConvexSet":
        raise UnsupportedSet(f"polar not available for {type(self).__name__}")

    def gauge(self, point) -> float:
        """Minkowski gauge wrt the origin (requires 0 in the interior)."""
        raise UnsupportedSet(f"gauge not available for {type(self).__name__}")

    # -- representations ----------------------------------------------------
    def vertex_array(self, cap: int = VERTEX_CAP) -> np.ndarray:
        raise RepresentationMissing(f"{type(self).__name__} has no vertex representation")

    def hrep(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows (G, h) with set = {x : G x <= h}."""
        raise RepresentationMissing(f"{type(self).__name__} has no halfspace representation")

    # -- metadata ------------------------------------------------------------
    def is_symmetric(self) -> bool:
        return False

    def norm_bound(self) -> float:
        """Upper bound on max Euclidean norm over the set."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "ConvexSet":
        raise UnsupportedSet(f"scaling not available for {type(self).__name__}")

    def to_spec(self) -> dict:
        raise NotImplementedError

    # -- sampling ------------------------------------------------------------
    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """n points inside the set (approximately uniform; tests only)."""
        pts = self.boundary_sample(rng, n)
        radii = rng.uniform(0.0, 1.0, size=n) ** (1.0 / self.dim)
        return pts * radii[:, None]

    def boundary_sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        dirs = rng.normal(size=(n, self.dim))
        out = np.empty_like(dirs)
        for i, g in enumerate(dirs):
            out[i] = g / self.gauge(g)
        return out


@dataclass(frozen=True)
class Ball(ConvexSet):
    """L_p ball of given radius, p in {1, 2, inf}."""

    p: float
    dim: int
    radius: float = 1.0

    def __post_init__(self):
        if self.p not in (1.0, 2.0, math.inf):
            raise ValueError("only p in {1, 2, inf} supported")
        if self.dim < 1 or self.radius <= 0:
            raise ValueError("dim must be >= 1 and radius > 0")

    def lmo(self, direction) -> np.ndarray:
        c = _check_direction(direction, self.dim)
        r = self.radius
        if self.p == math.inf:
            return np.where(c >= 0.0, -r, r).astype(float)
        if self.p == 1.0:
            j = int(np.argmax(np.abs(c)))
            x = np.zeros(self.dim)
            x[j] = r if c[j] < 0 else -r
            if c[j] == 0.0:  # all-zero direction: first canonical vertex +r e_0
                x[j] = r
            return x
        nrm = float(np.linalg.norm(c))
        if nrm == 0.0:
            x = np.zeros(self.dim)
            x[0] = -r
            return x
        return -r * c / nrm

    def fast_lmo(self):
        r, d, p = self.radius, self.dim, self.p
        if p == math.inf:
            return lambda c: np.where(c >= 0.0, -r, r)
        if p == 1.0:
            def f(c):
                j = int(np.argmax(np.abs(c)))
                x = np.zeros(d)
                x[j] = r if c[j] <= 0 else -r
                return x
            return f

        def f2(c):
            nrm = np.linalg.norm(c)
            if nrm == 0.0:
                x = np.zeros(d)
                x[0] = -r
                return x
            return (-r / nrm) * c
        return f2

    def contains(self, point, tol: float = 1e-9) -> bool:
        x = np.asarray(point, dtype=float).ravel()
        if x.size != self.dim:
            return False
        if self.p == math.inf:
            val = np.abs(x).max()
        elif self.p == 1.0:
            val = np.abs(x).sum()
        else:
            val = np.linalg.norm(x)
        return bool(val <= self.radius + tol)

    def gauge(self, point) -> float:
        x = np.asarray(point, dtype=float).ravel()
        if self.p == math.inf:
            return float(np.abs(x).max() / self.radius)
        if self.p == 1.0:
            return float(np.abs(x).sum() / self.radius)
        return float(np.linalg.norm(x) / self.radius)

    def polar(self) -> "Ball":
        q = {1.0: math.inf, 2.0: 2.0, math.inf: 1.0}[self.p]
        return Ball(q, self.dim, 1.0 / self.radius)

    @_memoized_vertices
    def vertex_array(self, cap: int = VERTEX_CAP) -> np.ndarray:
        r, d = self.radius, self.dim
        if self.p == 1.0:
            eye = np.eye(d) * r
            out = np.empty((2 * d, d))
            out[0::2] = eye
            out[1::2] = -eye
            return out
        if self.p == math.inf:
            if d > _BALL_INF_MAX_DIM or 2 ** d > cap:
                raise VertexBlowup(f"2^{d} cube vertices exceed the cap")
            return np.array(list(itertools.product((-r, r), repeat=d)))
        raise RepresentationMissing("L2 ball has no vertex representation")

    def hrep(self) -> tuple[np.ndarray, np.ndarray]:
        d, r = self.dim, self.radius
        if self.p == math.inf:
            G = np.vstack([np.eye(d), -np.eye(d)])
            return G, np.full(2 * d, r)
        if self.p == 1.0:
            if d > _BALL_INF_MAX_DIM:
                raise RepresentationMissing("L1 ball facet count 2^d too large")
            G = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
            return G, np.full(G.shape[0], r)
        raise RepresentationMissing("L2 ball has no halfspace representation")

    def is_symmetric(self) -> bool:
        return True

    def norm_bound(self) -> float:
        if self.p == math.inf:
            return self.radius * math.sqrt(self.dim)
        return self.radius

    def scaled(self, factor: float) -> "Ball":
        return Ball(self.p, self.dim, self.radius * factor)

    def to_spec(self) -> dict:
        p = "inf" if self.p == math.inf else int(self.p)
        return {"type": "ball", "p": p, "dim": self.dim, "radius": self.radius}


@dataclass(frozen=True)
class Simplex(ConvexSet):
    """Corner simplex conv{0, e_1, ..., e_d} = {x >= 0, sum x <= 1}.

    This is the fully dimensional simplex variant; the probability simplex
    (sum = 1) has empty interior in R^d and is not representable here.
    """

    dim: int

    def lmo(self, direction) -> np.ndarray:
        c = _check_direction(direction, self.dim)
        j = int(np.argmin(c))
        x = np.zeros(self.dim)
        if c[j] < 0:
            x[j] = 1.0
        return x  # origin vertex wins all ties at value 0

    def contains(self, point, tol: float = 1e-9) -> bool:
        x = np.asarray(point, dtype=float).ravel()
        if x.size != self.dim:
            return False
        return bool(x.min() >= -tol and x.sum() <= 1.0 + tol)

    @_memoized_vertices
    def vertex_array(self, cap: int = VERTEX_CAP) -> np.ndarray:
        return np.vstack([np.zeros(self.dim), np.eye(self.dim)])

    def hrep(self) -> tuple[np.ndarray, np.ndarray]:
        G = np.vstack([-np.eye(self.dim), np.ones((1, self.dim))])
        h = np.zeros(self.dim + 1)
        h[-1] = 1.0
        return G, h

    def norm_bound(self) -> float:
        return 1.0

    def scaled(self, factor: float) -> "VPolytope":
        return VPolytope(self.vertex_array() * factor)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        w = rng.dirichlet(np.ones(self.dim + 1), size=n)
        return w @ self.vertex_array()

    def to_spec(self) -> dict:
        return {"type": "simplex", "dim": self.dim}


@dataclass(frozen=True, eq=False)
class VPolytope(ConvexSet):
    """Convex hull of an explicit vertex list."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < v.shape[1] + 1:
            raise ValueError("need at least d+1 vertices of dimension d")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        object.__setattr__(self, "vertices", v)
        rank = np.linalg.matrix_rank(v[1:] - v[0], tol=1e-10)
        if rank < v.shape[1]:
            raise ValueError("vertex set is not fully dimensional")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def lmo(self, direction) -> np.ndarray:
        c = _check_direction(direction, self.dim)
        return self.vertices[int(np.argmin(self.vertices @ c))].copy()

    def contains(self, point, tol: float = 1e-9) -> bool:
        x = np.asarray(point, dtype=float).ravel()
        if x.size != self.dim:
            return False
        m, d = self.vertices.shape
        # min s  s.t.  -s <= (V^T w - x)_i <= s,  w >= 0,  sum w = 1
        n = m + 1
        obj = np.zeros(n)
        obj[-1] = 1.0
        a_ub = np.zeros((2 * d, n))
        a_ub[:d, :m] = self.vertices.T
        a_ub[:d, -1] = -1.0
        a_ub[d:, :m] = -self.vertices.T
        a_ub[d:, -1] = -1.0
        b_ub = np.concatenate([x, -x])
        a_eq = np.zeros((1, n))
        a_eq[0, :m] = 1.0
        sol = solve_lp(LpProblem(obj, a_ub, b_ub, a_eq, np.array([1.0]),
                                 bounds=[(0.0, None)] * m + [(0.0, None)]))
        return bool(sol.optimal and sol.value <= tol + 1e-12)

    def gauge(self, point) -> float:
        x = np.asarray(point, dtype=float).ravel()
        m = self.vertices.shape[0]
        # gauge(x) = min sum(w) s.t. V^T w = x, w >= 0  (0 must be interior)
        obj = np.ones(m)
        sol = solve_lp(LpProblem(obj, a_eq=self.vertices.T, b_eq=x,
                                 bounds=[(0.0, None)] * m))
        if not sol.optimal:
            raise UnsupportedSet("gauge undefined: origin not interior")
        return float(sol.value)

    def polar(self) -> "HPolytope":
        if self._origin_margin() <= 1e-9:
            raise UnsupportedSet("polar requires the origin in the interior")
        return HPolytope(self.vertices.copy(), np.ones(self.vertices.shape[0]))

    def _origin_margin(self) -> float:
        m = self.vertices.shape[0]
        # max delta s.t. V^T w = 0, sum w = 1, w >= delta
        obj = np.zeros(m + 1)
        obj[-1] = -1.0
        a_eq = np.zeros((self.dim + 1, m + 1))
        a_eq[: self.dim, :m] = self.vertices.T
        a_eq[self.dim, :m] = 1.0
        b_eq = np.zeros(self.dim + 1)
        b_eq[-1] = 1.0
        a_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
        sol = solve_lp(LpProblem(obj, a_ub, np.zeros(m), a_eq, b_eq,
                                 bounds=[(0.0, None)] * m + [(None, None)]))
        return float(-sol.value) if sol.optimal else -1.0

    @_memoized_vertices
    def vertex_array(self, cap: int = VERTEX_CAP) -> np.ndarray:
        if self.vertices.shape[0] > cap:
            raise VertexBlowup("vertex count exceeds cap")
        return self.vertices.copy()

    def is_symmetric(self) -> bool:
        for v in self.vertices:
            if not np.any(np.all(np.abs(self.vertices + v) < 1e-9, axis=1)):
                return False
        return True

    def norm_bound(self) -> float:
        return float(np.linalg.norm(self.vertices, axis=1).max())

    def scaled(self, factor: float) -> "VPolytope":
        return VPolytope(self.vertices * factor)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        w = rng.dirichlet(np.ones(self.vertices.shape[0]), size=n)
        return w @ self.vertices

    def boundary_sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        dirs = rng.normal(size=(n, self.dim))
        return np.array([g / self.gauge(g) for g in dirs])

    def to_spec(self) -> dict:
        return {"type": "vpolytope", "vertices": self.vertices.tolist()}


@dataclass(frozen=True, eq=False)
class HPolytope(ConvexSet):
    """Bounded intersection of halfspaces {x : <g_i, x> <= h_i}."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.normals, dtype=float)
        h = np.asarray(self.offsets, dtype=float).ravel()
        if g.ndim != 2 or g.shape[0] != h.size:
            raise ValueError("normals/offsets shape mismatch")
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            raise ValueError("normals and offsets must be finite")
        object.__setattr__(self, "normals", g)
        object.__setattr__(self, "offsets", h)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def lmo(self, direction) -> np.ndarray:
        c = _check_direction(direction, self.dim)
        sol = solve_lp(LpProblem(c, a_ub=self.normals, b_ub=self.offsets))
        if sol.status == "unbounded":
            raise UnsupportedSet("HPolytope is unbounded in this direction")
        if not sol.optimal:
            raise UnsupportedSet("HPolytope is empty")
        return sol.x

    def contains(self, point, tol: float = 1e-9) -> bool:
        x = np.asarray(point, dtype=float).ravel()
        if x.size != self.dim:
            return False
        scale = np.maximum(np.linalg.norm(self.normals, axis=1), 1.0)
        return bool(np.all(self.normals @ x - self.offsets <= tol * scale))

    def gauge(self, point) -> float:
        x = np.asarray(point, dtype=float).ravel()
        if np.any(self.offsets <= 0):
            raise UnsupportedSet("gauge needs strictly positive offsets")
        return float(np.max((self.normals @ x) / self.offsets, initial=0.0))

    def polar(self) -> "VPolytope":
        if np.any(self.offsets <= 1e-12):
            raise UnsupportedSet("polar requires the origin in the interior")
        return VPolytope(self.normals / self.offsets[:, None])

    def hrep(self) -> tuple[np.ndarray, np.ndarray]:
        return self.normals.copy(), self.offsets.copy()

    @_memoized_vertices
    def vertex_array(self, cap: int = VERTEX_CAP) -> np.ndarray:
        verts = _enumerate_hpoly_vertices(self.normals, self.offsets)
        if verts.shape[0] > cap:
            raise VertexBlowup("vertex count exceeds cap")
        return verts

    def is_symmetric(self) -> bool:
        rows = self.normals / self.offsets[:, None]
        for r in rows:
            if not np.any(np.all(np.abs(rows + r) < 1e-9, axis=1)):
                return False
        return True

    def norm_bound(self) -> float:
        hi = np.empty(self.dim)
        lo = np.empty(self.dim)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            hi[i] = self.support(e)
            lo[i] = -self.support(-e)
        return float(np.linalg.norm(np.maximum(np.abs(hi), np.abs(lo))))

    def scaled(self, factor: float) -> "HPolytope":
        return HPolytope(self.normals.copy(), self.offsets * factor)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        if np.all(self.offsets > 0):
            return super().sample(rng, n)
        verts = self.vertex_array()
        w = rng.dirichlet(np.ones(verts.shape[0]), size=n)
        return w @ verts

    def to_spec(self) -> dict:
        return {"type": "hpolytope", "normals": self.normals.tolist(),
                "offsets": self.offsets.tolist()}


def _enumerate_hpoly_vertices(G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Brute-force vertex enumeration for small H-polytopes.

    Intersects all d-subsets of facets and keeps feasible solutions; only
    intended for the desk-scale polytopes used by preconditioning tests and
    the endomorphism LPs (d <= 6, modest facet counts).
    """
    m, d = G.shape
    if d > 6:
        raise RepresentationMissing("HPolytope vertex enumeration limited to d <= 6")
    if math.comb(m, d) > 200_000:
        raise VertexBlowup("too many facet subsets to enumerate")
    scale = np.maximum(np.linalg.norm(G, axis=1), 1e-30)
    found: list[np.ndarray] = []
    for idx in itertools.combinations(range(m), d):
        sub = G[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, h[list(idx)])
        if np.all(G @ x - h <= 1e-8 * scale):
            if not any(np.linalg.norm(x - y) < 1e-8 for y in found):
                found.append(x)
    if not found:
        raise RepresentationMissing("no vertices found (empty or degenerate polytope)")
    verts = np.array(sorted(found, key=lambda v: tuple(np.round(v, 10))))
    return verts


@dataclass(frozen=True)
class Product(ConvexSet):
    """Cartesian product of factor sets on consecutive coordinate blocks."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    def slices(self) -> list[slice]:
        out, start = [], 0
        for f in self.factors:
            out.append(slice(start, start + f.dim))
            start += f.dim
        return out

    def lmo(self, direction) -> np.ndarray:
        c = _check_direction(direction, self.dim)
        return np.concatenate([f.lmo(c[s]) for f, s in zip(self.factors, self.slices())])

    def fast_lmo(self):
        subs = [(f.fast_lmo(), s) for f, s in zip(self.factors, self.slices())]
        return lambda c: np.concatenate([g(c[s]) for g, s in subs])

    def contains(self, point, tol: float = 1e-9) -> bool:
        x = np.asarray(point, dtype=float).ravel()
        if x.size != self.dim:
            return False
        return all(f.contains(x[s], tol) for f, s in zip(self.factors, self.slices()))

    def gauge(self, point) -> float:
        x = np.asarray(point, dtype=float).ravel()
        return max(f.gauge(x[s]) for f, s in zip(self.factors, self.slices()))

    def polar(self) -> "Product":
        # Factor polars shrunk by 1/k keep the joint pairing <p, l> <= 1.
        k = len(self.factors)
        return Product(tuple(f.polar().scaled(1.0 / k) for f in self.factors))

    @_memoized_vertices
    def vertex_array(self, cap: int = VERTEX_CAP) -> np.ndarray:
        factor_verts = [f.vertex_array(cap) for f in self.factors]
        count = 1
        for fv in factor_verts:
            count *= fv.shape[0]
            if count > cap:
                raise VertexBlowup(f"product vertex count exceeds cap {cap}")
        blocks = []
        for combo in itertools.product(*factor_verts):
            blocks.append(np.concatenate(combo))
        return np.array(blocks)

    def hrep(self) -> tuple[np.ndarray, np.ndarray]:
        gs, hs = [], []
        offset = 0
        for f in self.factors:
            G, h = f.hrep()
            wide = np.zeros((G.shape[0], self.dim))
            wide[:, offset:offset + f.dim] = G
            gs.append(wide)
            hs.append(h)
            offset += f.dim
        return np.vstack(gs), np.concatenate(hs)

    def is_symmetric(self) -> bool:
        return all(f.is_symmetric() for f in self.factors)

    def norm_bound(self) -> float:
        return math.sqrt(sum(f.norm_bound() ** 2 for f in self.factors))

    def scaled(self, factor: float) -> "Product":
        return Product(tuple(f.scaled(factor) for f in self.factors))

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return np.hstack([f.sample(rng, n) for f in self.factors])

    def boundary_sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        dirs = rng.normal(size=(n, self.dim))
        return np.array([g / self.gauge(g) for g in dirs])

    def to_spec(self) -> dict:
        return {"type": "product", "factors": [f.to_spec() for f in self.factors]}


@dataclass(frozen=True, eq=False)
class LinearImage(ConvexSet):
    """Image {A x : x in inner} of a set under an invertible matrix."""

    matrix: np.ndarray
    inner: ConvexSet

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != self.inner.dim:
            raise ValueError("matrix must be square and match the inner dimension")
        if abs(np.linalg.det(a)) < 1e-12:
            raise ValueError("matrix must be invertible")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "_inv", np.linalg.inv(a))
        object.__setattr__(self, "_opnorm", float(np.linalg.norm(a, 2)))

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def inverse(self) -> np.ndarray:
        return self._inv

    def lmo(self, direction) -> np.ndarray:
        c = _check_direction(direction, self.dim)
        return self.matrix @ self.inner.lmo(self.matrix.T @ c)

    def fast_lmo(self):
        inner_f = self.inner.fast_lmo()
        A, At = self.matrix, self.matrix.T
        return lambda c: A @ inner_f(At @ c)

    def contains(self, point, tol: float = 1e-9) -> bool:
        x = np.asarray(point, dtype=float).ravel()
        if x.size != self.dim:
            return False
        inner_tol = tol * max(np.linalg.norm(self._inv, 2), 1.0)
        return self.inner.contains(self._inv @ x, inner_tol)

    def gauge(self, point) -> float:
        x = np.asarray(point, dtype=float).ravel()
        return self.inner.gauge(self._inv @ x)

    def polar(self) -> "LinearImage":
        return LinearImage(self._inv.T, self.inner.polar())

    @_memoized_vertices
    def vertex_array(self, cap: int = VERTEX_CAP) -> np.ndarray:
        return self.inner.vertex_array(cap) @ self.matrix.T

    def hrep(self) -> tuple[np.ndarray, np.ndarray]:
        G, h = self.inner.hrep()
        return G @ self._inv, h

    def is_symmetric(self) -> bool:
        return self.inner.is_symmetric()

    def norm_bound(self) -> float:
        return self._opnorm * self.inner.norm_bound()

    def scaled(self, factor: float) -> "LinearImage":
        return LinearImage(self.matrix * factor, self.inner)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return self.inner.sample(rng, n) @ self.matrix.T

    def boundary_sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return self.inner.boundary_sample(rng, n) @ self.matrix.T

    def to_spec(self) -> dict:
        return {"type": "linear_image", "matrix": self.matrix.tolist(),
                "inner": self.inner.to_spec()}


def set_from_spec(spec: dict) -> ConvexSet:
    """Build a set from its JSON description (see experiment configs)."""
    kind = spec.get("type")
    if kind == "ball":
        p = spec["p"]
        p = math.inf if p in ("inf", "Inf", "INF") else float(p)
        return Ball(p, int(spec["dim"]), float(spec.get("radius", 1.0)))
    if kind == "simplex":
        return Simplex(int(spec["dim"]))
    if kind == "product":
        return Product(tuple(set_from_spec(f) for f in spec["factors"]))
    if kind == "vpolytope":
        return VPolytope(np.array(spec["vertices"], dtype=float))
    if kind == "hpolytope":
        return HPolytope(np.array(spec["normals"], dtype=float),
                         np.array(spec["offsets"], dtype=float))
    if kind == "linear_image":
        return LinearImage(np.array(spec["matrix"], dtype=float),
                           set_from_spec(spec["inner"]))
    raise ValueError(f"unknown set type: {kind!r}")
