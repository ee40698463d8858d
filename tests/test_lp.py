import itertools
import logging

import numpy as np
import pytest

from swapreg import evaluate, lp
from swapreg.adversary import CombinedAdversary
from swapreg.errors import NumericalFailure
from swapreg.lp import LpProblem, solve_lp
from swapreg.saddle import solve_matrix_game


def test_box_minimum():
    sol = solve_lp(LpProblem(np.array([1.0]), bounds=[(0.0, 1.0)]))
    assert sol.optimal
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(0.0, abs=1e-9)


def test_simplex_face():
    sol = solve_lp(LpProblem(np.array([-1.0, -1.0]),
                             a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]),
                             bounds=[(0.0, None)] * 2))
    assert sol.optimal
    assert sol.value == pytest.approx(-1.0, abs=1e-9)


def test_infeasible():
    sol = solve_lp(LpProblem(np.array([0.0]),
                             a_ub=np.array([[1.0], [-1.0]]),
                             b_ub=np.array([-1.0, 0.0])))
    assert sol.status == "infeasible"


def test_unbounded():
    sol = solve_lp(LpProblem(np.array([-1.0]), bounds=[(0.0, None)]))
    assert sol.status == "unbounded"


def _enumerate_vertices(A, b, lo, hi):
    """All vertices of {lo <= x <= hi, A x <= b} by facet intersection."""
    n = A.shape[1]
    rows = [A[i] for i in range(A.shape[0])]
    rhs = [b[i] for i in range(A.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.extend([e, -e])
        rhs.extend([hi[j], -lo[j]])
    rows = np.array(rows)
    rhs = np.array(rhs)
    verts = []
    for idx in itertools.combinations(range(rows.shape[0]), n):
        sub = rows[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        x = np.linalg.solve(sub, rhs[list(idx)])
        if np.all(rows @ x - rhs <= 1e-8):
            verts.append(x)
    return np.array(verts)


def test_matches_vertex_enumeration_on_random_lps():
    rng = np.random.default_rng(42)
    solved = 0
    while solved < 200:
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 9))
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(-1, 1, size=n)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=m)  # x0 strictly feasible
        lo = np.full(n, -2.0)
        hi = np.full(n, 2.0)
        c = rng.normal(size=n)
        verts = _enumerate_vertices(A, b, lo, hi)
        if verts.size == 0:
            continue
        ref = float((verts @ c).min())
        sol = solve_lp(LpProblem(c, A, b, bounds=list(zip(lo, hi))))
        assert sol.optimal
        assert sol.value == pytest.approx(ref, abs=1e-6)
        solved += 1


def test_duality_on_random_instances():
    # primal: min c x s.t. A x >= b, x >= 0; dual: max b y s.t. A^T y <= c, y >= 0
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0, 1, size=n)
        b = A @ x0 - rng.uniform(0.05, 0.5, size=m)
        c = rng.uniform(0.1, 1.0, size=n)
        primal = solve_lp(LpProblem(c, a_ub=-A, b_ub=-b, bounds=[(0.0, None)] * n))
        dual = solve_lp(LpProblem(-b, a_ub=A.T, b_ub=c, bounds=[(0.0, None)] * m))
        assert primal.optimal and dual.optimal
        assert primal.value == pytest.approx(-dual.value, abs=1e-6)


def test_feasibility_of_returned_points():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(-1, 1, size=n)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
        c = rng.normal(size=n)
        sol = solve_lp(LpProblem(c, A, b, bounds=[(-3.0, 3.0)] * n))
        assert sol.optimal
        assert np.all(A @ sol.x - b <= 1e-7)
        assert np.all(np.abs(sol.x) <= 3.0 + 1e-9)
        assert sol.value == pytest.approx(float(c @ sol.x), abs=1e-7)


def test_leaving_row_matches_the_sorted_rule():
    rng = np.random.default_rng(5)
    for _ in range(500):
        m = int(rng.integers(1, 12))
        colq = rng.choice([0.5, 1.0, 2.0], size=m)  # exact ties in pivot magnitude
        basis = rng.permutation(40)[:m]
        ties = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
        assert lp._leaving_row(ties, colq, basis, bland=False) == min(
            ties, key=lambda i: (-colq[i], basis[i]))
        assert lp._leaving_row(ties, colq, basis, bland=True) == min(
            ties, key=lambda i: basis[i])


def _endomorphism_lp():
    """The 624-row vertex-form regret LP of the d=3 combined set: one
    membership block per vertex v, forcing M v + a into the set."""
    rng = np.random.default_rng(0)
    w_mat, w_vec = rng.normal(size=(6, 6)), rng.normal(size=6)
    pset = CombinedAdversary.strategy_set(3)
    d, n_x = 6, 42
    blocks = []
    for v in pset.vertex_array():
        C = np.hstack([np.kron(np.eye(d), v[None, :]), np.eye(d)])  # C x = M v + a
        blocks.append(evaluate._membership_block(pset, C, np.zeros(d)))
    a_ub, b_ub, a_eq, b_eq, bounds, _ = evaluate._stack_blocks(blocks, n_x)
    objective = np.zeros(a_ub.shape[1])
    objective[:n_x] = -np.concatenate([w_mat.ravel(), w_vec])
    problem = LpProblem(objective, a_ub, b_ub, a_eq, b_eq, bounds)
    assert problem.a_ub.shape[0] == 624
    return problem


def _random_lp(rng, m, n, kind, density):
    """A sparse LP that is "optimal", "infeasible" or "unbounded" by construction."""
    a_ub = rng.normal(size=(m, n)) * (rng.random((m, n)) < density)
    x0 = rng.uniform(-1.0, 1.0, size=n)
    slack = rng.uniform(0.0, 1.0, size=m) * (rng.random(m) < 0.7)  # some rows tight
    a_eq = rng.normal(size=(max(1, m // 5), n)) * (rng.random((max(1, m // 5), n)) < 0.5)
    c = rng.normal(size=n)
    bounds = [(-2.0, 2.0)] * n
    if kind == "unbounded":
        # raising the free variables in `ray` loosens every inequality, leaves
        # the equalities alone and lowers the objective without bound
        ray = rng.choice(n, size=max(1, n // 4), replace=False)
        a_ub[:, ray] = -np.abs(a_ub[:, ray])
        a_eq[:, ray] = 0.0
        c[ray] = -np.abs(c[ray]) - 0.1
        bounds = [(None, None)] * n
    b_ub = a_ub @ x0 + slack
    if kind == "infeasible":
        a_ub = np.vstack([a_ub, -a_ub[:1]])
        b_ub = np.append(b_ub, -b_ub[0] - 0.5)
    return LpProblem(c, a_ub, b_ub, a_eq, a_eq @ x0, bounds)


def _random_lps(seed, count, kinds=("optimal", "infeasible", "unbounded")):
    """`count` LPs below the restricted-pivot size and `count` above it."""
    rng = np.random.default_rng(seed)
    small = [_random_lp(rng, int(rng.integers(3, 10)), int(rng.integers(2, 8)),
                        kinds[k % len(kinds)], 0.3) for k in range(count)]
    large = [_random_lp(rng, int(rng.integers(120, 180)), int(rng.integers(60, 100)),
                        kinds[k % len(kinds)], 0.03) for k in range(count)]
    return small + large


def _solve_or_failure(problem):
    try:
        return solve_lp(problem)
    except NumericalFailure as exc:
        return str(exc)


def test_dense_and_restricted_pivots_agree_bitwise(monkeypatch):
    problems = _random_lps(11, 20) + [_endomorphism_lp()]
    monkeypatch.setattr(lp, "_RESTRICTED_PIVOT_MIN_ENTRIES", 2 ** 62)
    dense = [_solve_or_failure(problem) for problem in problems]
    monkeypatch.setattr(lp, "_RESTRICTED_PIVOT_MIN_ENTRIES", 0)
    monkeypatch.setattr(lp, "_RESTRICTED_ENTRY_COST", 0)
    restricted = [_solve_or_failure(problem) for problem in problems]
    assert {sol.status for sol in dense if not isinstance(sol, str)} == {
        "optimal", "infeasible", "unbounded"}
    for a, b in zip(dense, restricted):
        if isinstance(a, str):  # a NumericalFailure must recur on the other path
            assert a == b
            continue
        assert (a.status, a.iterations) == (b.status, b.iterations)
        assert a.value == b.value
        assert (a.x is None and b.x is None) or np.array_equal(a.x, b.x)


_UNBOUNDED_FAILS = pytest.mark.xfail(
    raises=NumericalFailure, strict=True,
    reason="some large sparse unbounded LPs raise NumericalFailure instead of "
           "returning 'unbounded'")


@pytest.mark.parametrize("kind", ["optimal", "infeasible",
                                  pytest.param("unbounded", marks=_UNBOUNDED_FAILS)])
def test_matches_highs_on_both_sides_of_the_pivot_gate(kind):
    optimize = pytest.importorskip("scipy.optimize")
    highs_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    problems = _random_lps(12, 6, (kind,))
    if kind == "optimal":
        problems.append(_endomorphism_lp())
    for problem in problems:
        ref = optimize.linprog(problem.objective, problem.a_ub, problem.b_ub, problem.a_eq,
                               problem.b_eq, bounds=problem.bounds, method="highs")
        assert highs_status[ref.status] == kind
        sol = solve_lp(problem)
        assert sol.status == kind
        if sol.optimal:
            assert abs(sol.value - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))


def test_duals_match_highs_marginals():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(21)
    flipped_tight = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        a_ub = rng.normal(size=(m, n))
        x0 = rng.uniform(-1.0, 1.0, size=n)
        b_ub = a_ub @ x0 + rng.uniform(0.05, 1.0, size=m)  # some b_ub < 0
        n_eq = int(rng.integers(0, n))  # fewer equalities than variables
        a_eq = rng.normal(size=(n_eq, n)) if n_eq else None
        b_eq = a_eq @ x0 if n_eq else None
        # two-sided, one-sided and free variables
        bounds = [(lo if rng.random() < 0.7 else None, hi if rng.random() < 0.7 else None)
                  for lo, hi in zip(rng.uniform(-3.0, -1.5, n), rng.uniform(1.5, 3.0, n))]
        c = rng.normal(size=n)
        ref = optimize.linprog(c, a_ub, b_ub, a_eq, b_eq, bounds=bounds, method="highs")
        sol = solve_lp(LpProblem(c, a_ub, b_ub, a_eq, b_eq, bounds))
        if ref.status == 3:
            assert sol.status == "unbounded"
            continue
        assert ref.status == 0 and sol.optimal
        expected = np.concatenate([ref.ineqlin.marginals,
                                   ref.eqlin.marginals if n_eq else []])
        assert sol.duals.shape == expected.shape
        assert np.abs(sol.duals - expected).max() <= 1e-7
        flipped_tight += int(np.any((b_ub < 0) & (expected[:m] < -1e-6)))
    assert flipped_tight >= 10  # the sign flip of rows with b < 0 is exercised


@pytest.mark.parametrize("shape, kind", [
    ((1, 5), "normal"), ((5, 1), "normal"), ((4, 6), "constant"),
    ((6, 4), "negative"), ((7, 7), "normal"), ((3, 9), "tiny"), ((9, 3), "huge"),
])
def test_matrix_games_match_highs(shape, kind):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(10 * shape[0] + shape[1])
    for _ in range(20):
        G = {"normal": rng.normal(size=shape), "constant": np.full(shape, rng.normal()),
             "negative": -rng.uniform(0.5, 2.0, size=shape),
             "tiny": 1e-6 * rng.normal(size=shape),
             "huge": 1e4 * rng.normal(size=shape)}[kind]
        row, col, value = solve_matrix_game(G)
        n_row, n_col = shape
        # min v s.t. G x <= v, sum x = 1, x >= 0
        ref = optimize.linprog(np.r_[np.zeros(n_col), 1.0], np.c_[G, -np.ones(n_row)],
                               np.zeros(n_row), np.r_[np.ones(n_col), 0.0][None], [1.0],
                               bounds=[(0.0, None)] * n_col + [(None, None)],
                               method="highs")
        scale = max(1.0, float(np.abs(G).max()))
        assert abs(value - ref.fun) <= 1e-9 * scale
        for mix in (row, col):
            assert mix.min() >= 0.0 and mix.sum() == pytest.approx(1.0, abs=1e-12)
        assert (G @ col).max() <= value + 1e-9 * scale
        assert (row @ G).min() >= value - 1e-9 * scale


def test_strict_retry_logs_a_warning(monkeypatch, caplog):
    once = lp._solve_lp_once

    def fail_first_nonstrict(problem, tol, strict):
        if not strict:
            raise NumericalFailure("injected drift")
        return once(problem, tol, strict)

    monkeypatch.setattr(lp, "_solve_lp_once", fail_first_nonstrict)
    problem = LpProblem(np.array([-1.0, -1.0]), a_ub=np.array([[1.0, 1.0]]),
                        b_ub=np.array([1.0]), bounds=[(0.0, None)] * 2)
    with caplog.at_level(logging.WARNING, logger="swapreg.lp"):
        sol = solve_lp(problem)
    assert sol.optimal and sol.value == pytest.approx(-1.0, abs=1e-9)
    (record,) = caplog.records
    assert record.name == "swapreg.lp" and record.levelno == logging.WARNING
    message = record.getMessage()
    assert "1 constraint rows and 2 variables" in message and "injected drift" in message
