import math

import numpy as np
import pytest

from swapreg import saddle
from swapreg.errors import MembershipViolation
from swapreg.saddle import (BilinearGame, duality_gap, solve_exact, solve_fpl,
                            solve_matrix_game)
from swapreg.sets import Ball, Product

RNG = np.random.default_rng(11)


def _grid_value(game, n=201):
    """Brute-force minimax over a grid of B_inf plays (exact max over B1)."""
    grid = np.linspace(-1.0, 1.0, n)
    best = np.inf
    for a in grid:
        for b in grid:
            z = game.u_mat @ np.array([a, b]) + game.u_vec
            best = min(best, np.abs(z).max())
    return best


def test_exact_d1_symmetric():
    game = BilinearGame(np.array([[1.0]]), np.array([0.0]),
                        Ball(math.inf, 1), Ball(math.inf, 1))
    sp = solve_exact(game)
    assert sp.value == pytest.approx(0.0, abs=1e-9)
    assert abs(sp.p_star[0]) <= 1e-9
    assert sp.gap <= 1e-7


def test_exact_umat_zero_drops_p():
    u = np.array([0.5, -1.0])
    game = BilinearGame(np.zeros((2, 2)), u, Ball(math.inf, 2), Ball(1.0, 2))
    sp = solve_exact(game)
    assert sp.value == pytest.approx(1.0, abs=1e-9)  # max_{l in B1} <u, l>


def test_exact_matches_grid_oracle():
    # Payoff scaled so the 201^2-grid oracle resolves the optimum within 1e-3.
    U = 0.1 * np.array([[0.8, -0.3], [0.5, 1.1]])
    u = 0.1 * np.array([0.2, -0.7])
    game = BilinearGame(U, u, Ball(math.inf, 2), Ball(1.0, 2))
    sp = solve_exact(game)
    assert sp.gap <= 1e-7
    assert sp.value == pytest.approx(_grid_value(game), abs=1e-3)


def test_fpl_zero_game():
    game = BilinearGame(np.zeros((2, 2)), np.zeros(2), Ball(math.inf, 2), Ball(1.0, 2))
    sp = solve_fpl(game, 100, 0)
    assert sp.value == 0.0 and sp.gap == 0.0


def test_fpl_matches_exact():
    U = 0.1 * np.array([[0.8, -0.3], [0.5, 1.1]])
    u = 0.1 * np.array([0.2, -0.7])
    game = BilinearGame(U, u, Ball(math.inf, 2), Ball(1.0, 2))
    exact = solve_exact(game)
    approx = solve_fpl(game, 10_000, 5)
    assert abs(approx.value - exact.value) <= 0.05
    assert approx.gap >= -1e-9


def test_fpl_gap_shrinks_with_iterations():
    U = RNG.normal(size=(2, 2))
    u = RNG.normal(size=2)
    game = BilinearGame(U, u, Ball(math.inf, 2), Ball(1.0, 2))
    lo = np.median([solve_fpl(game, 10_000, s).gap for s in range(20)])
    hi = np.median([solve_fpl(game, 40_000, s).gap for s in range(20)])
    assert hi <= lo


def test_duality_gap_examples():
    U = RNG.normal(size=(2, 2))
    u = RNG.normal(size=2)
    game = BilinearGame(U, u, Ball(math.inf, 2), Ball(1.0, 2))
    sp = solve_exact(game)
    assert duality_gap(game, sp.p_star, sp.l_star) <= 1e-7

    ident = BilinearGame(np.eye(2), np.zeros(2), Ball(2.0, 2), Ball(2.0, 2))
    e1 = np.array([1.0, 0.0])
    assert duality_gap(ident, e1, e1) == pytest.approx(2.0, abs=1e-9)

    for _ in range(20):
        p = Ball(math.inf, 2).sample(RNG, 1)[0]
        l = Ball(1.0, 2).sample(RNG, 1)[0]
        assert duality_gap(game, p, l) >= -1e-9


def test_duality_gap_membership_check():
    game = BilinearGame(np.eye(2), np.zeros(2), Ball(math.inf, 2), Ball(1.0, 2))
    with pytest.raises(MembershipViolation):
        duality_gap(game, np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_scale_invariance_of_solutions():
    U = RNG.normal(size=(3, 3))
    u = RNG.normal(size=3)
    game1 = BilinearGame(U, u, Ball(math.inf, 3), Ball(1.0, 3))
    game5 = BilinearGame(5 * U, 5 * u, Ball(math.inf, 3), Ball(1.0, 3))
    sp1 = solve_exact(game1)
    sp5 = solve_exact(game5)
    assert sp5.value == pytest.approx(5 * sp1.value, abs=1e-7)
    assert np.allclose(sp1.p_star, sp5.p_star, atol=1e-9)
    assert np.allclose(sp1.l_star, sp5.l_star, atol=1e-9)


def test_minimax_exchangeability():
    # the column mixture (primal) and row mixture (duals) of the one game LP
    # both attain the reported value
    for _ in range(10):
        G = RNG.normal(size=(RNG.integers(2, 6), RNG.integers(2, 6)))
        row, col, value = solve_matrix_game(G)
        assert float(row @ G @ col) == pytest.approx(value, abs=1e-7)
        # the reported value is certified from both sides
        assert (G @ col).max() == pytest.approx(value, abs=1e-7)
        assert (G.T @ row).min() == pytest.approx(value, abs=1e-7)


def test_exact_on_product_sets():
    pset = Product((Ball(1.0, 2), Ball(math.inf, 2)))
    lset = pset.polar()
    U = RNG.normal(size=(4, 4))
    u = RNG.normal(size=4)
    game = BilinearGame(U, u, pset, lset)
    sp = solve_exact(game)
    assert sp.gap <= 1e-7
    approx = solve_fpl(game, 20_000, 3)
    assert abs(approx.value - sp.value) <= 0.05 * max(1.0, abs(sp.value))


def test_one_lp_per_matrix_game(monkeypatch):
    problems = []
    solve = saddle.solve_lp

    def spy(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(saddle, "solve_lp", spy)
    rng = np.random.default_rng(3)
    games = [rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
             for _ in range(10)]
    for G in games:
        solve_matrix_game(G)
    assert len(problems) == len(games)
    for problem, G in zip(problems, games):
        # the shifted game LP starts feasible at the slack basis: no phase 1
        assert problem.a_eq is None and problem.a_ub.shape == G.shape
        assert np.all(problem.b_ub > 0)
