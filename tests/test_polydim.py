import math

import numpy as np
import pytest

from swapreg import engine
from swapreg.adversary import IidVertexAdversary
from swapreg.errors import DimBlowup
from swapreg.polydim import (MixedStrategy, PolyState, best_response_point,
                             monomial_map, poly_run, poly_step)
from swapreg.sets import Ball

RNG = np.random.default_rng(23)


def test_monomial_map_d2_degree2():
    fm = monomial_map(2, 2)
    assert fm.D == 6
    assert fm.exponents.tolist() == [[1, 0], [0, 1], [2, 0], [1, 1], [0, 2], [0, 0]]
    assert fm.evaluate([0.5, -1.0]).tolist() == [0.5, -1.0, 0.25, -0.5, 1.0, 1.0]


def test_monomial_map_d1_degree3():
    fm = monomial_map(1, 3)
    assert fm.D == 4
    assert fm.evaluate([2.0]).tolist() == [2.0, 4.0, 8.0, 1.0]


def test_monomial_map_leading_coordinates_and_constant():
    fm = monomial_map(3, 2)
    pts = RNG.uniform(-1, 1, size=(10, 3))
    feats = fm.evaluate_batch(pts)
    assert np.allclose(feats[:, :3], pts)
    assert np.allclose(feats[:, -1], 1.0)


def test_monomial_map_dim_cap():
    with pytest.raises(DimBlowup):
        monomial_map(10, 5, cap=500)


def test_mixed_strategy_validation():
    with pytest.raises(ValueError):
        MixedStrategy(np.zeros((2, 2)), np.array([0.7, 0.7]))
    mix = MixedStrategy(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.25, 0.75]))
    assert np.allclose(mix.mean_play(), [0.25, 0.75])


def test_best_response_finds_interior_optimum():
    # l^T U m(p) = p^2 - p on [-1, 1] is minimized at the interior point 1/2
    pset = Ball(math.inf, 1)
    fm = monomial_map(1, 2)
    U = np.array([[-1.0, 1.0, 0.0]])
    p = best_response_point(U, np.array([1.0]), pset, fm, [np.array([-1.0])],
                            np.random.default_rng(0))
    assert p[0] == pytest.approx(0.5, abs=1e-2)


def test_best_response_zero_payoff_returns_first_pool_point():
    pset = Ball(math.inf, 2)
    fm = monomial_map(2, 2)
    pool = [np.array([0.25, -0.5]), np.array([1.0, 1.0])]
    p = best_response_point(np.zeros((2, fm.D)), np.zeros(2), pset, fm, pool,
                            np.random.default_rng(0))
    assert np.allclose(p, pool[0])


def test_degree1_matches_linear_pipeline():
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    fm = monomial_map(2, 1)
    lin = engine.run(pset, lset, 40, IidVertexAdversary(lset, 5), solver="exact", seed=7)
    poly = poly_run(pset, lset, 40, IidVertexAdversary(lset, 5), fm, do_iters=6, seed=7)
    assert np.abs(lin.state.U - poly.state.U).max() <= 1e-8
    assert np.allclose(lin.plays, poly.plays, atol=1e-10)
    # degree-1 with exact inner games inherits the exact-mode certificate
    assert poly.certificate <= 2 * poly.norm_bound / math.sqrt(poly.T) + 1e-6


def test_degree1_reduces_to_lmo():
    # with linear-only features the best response equals the LMO answer
    pset = Ball(math.inf, 2)
    fm = monomial_map(2, 1)
    U = RNG.normal(size=(2, 3))
    l = np.array([0.3, -0.7])
    p = best_response_point(U, l, pset, fm, [pset.lmo(np.zeros(2))],
                            np.random.default_rng(1))
    c = (U.T @ l)[:2]
    assert np.allclose(p, pset.lmo(c), atol=1e-6)


def test_first_round_eps_zero():
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    fm = monomial_map(2, 2)
    state = PolyState(2, fm.D)
    log, mix = poly_step(state, pset, lset, fm, lambda t, p: np.array([0.5, 0.5]),
                         rng=np.random.default_rng(0))
    assert log.eps == 0.0
    assert mix.weights.sum() == pytest.approx(1.0)


def test_poly_run_certificate_and_mixtures():
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    fm = monomial_map(2, 2)
    traj = poly_run(pset, lset, 120, IidVertexAdversary(lset, 3), fm,
                    do_iters=6, seed=1)
    assert traj.certificate <= traj.certificate_bound + 1e-9
    assert traj.state.consistency_error() <= 1e-8
    assert max(traj.pool_sizes) <= 256
    for mix in traj.mixtures:
        assert mix.weights.min() >= -1e-12
        assert mix.weights.sum() == pytest.approx(1.0, abs=1e-9)
        mix.validate_members(pset)
    # single-round bound: certificate after T=1 is at most 2B
    traj1 = poly_run(pset, lset, 1, IidVertexAdversary(lset, 3), fm, seed=1)
    assert traj1.certificate <= 2 * traj1.norm_bound


def test_degree2_mean_eps_small():
    # random vertex losses over 200 rounds: the measured closure residuals
    # stay far below a tenth of the measured norm bound
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    fm = monomial_map(2, 2)
    traj = poly_run(pset, lset, 200, IidVertexAdversary(lset, 4), fm,
                    do_iters=6, seed=4)
    assert traj.mean_eps <= 0.1 * traj.norm_bound


def test_restricted_game_invariant():
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    fm = monomial_map(2, 2)
    traj = poly_run(pset, lset, 80, IidVertexAdversary(lset, 8), fm,
                    do_iters=8, seed=2)
    for r in traj.rounds:
        assert r.invariant_value <= (r.t - 1) * r.eps + 1e-7
