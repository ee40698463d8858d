import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swapreg import engine, evaluate
from swapreg.adversary import CombinedAdversary, IidVertexAdversary, combined_certified_regret
from swapreg.errors import NumericalFailure
from swapreg.evaluate import (PlayHistory, app_loss_certificate, external_regret,
                              extremal_endomorphism, linear_swap_regret,
                              make_report, max_norm_affine_over_ball,
                              polydim_regret_lower)
from swapreg.polydim import monomial_map, poly_run
from swapreg.sets import Ball, HPolytope, LinearImage, Product, Simplex, VPolytope

RNG = np.random.default_rng(31)


def _random_vertex_history(pset, lset, T, seed):
    rng = np.random.default_rng(seed)
    plays = pset.sample(rng, T)
    lverts = lset.vertex_array()
    losses = lverts[rng.integers(lverts.shape[0], size=T)]
    return PlayHistory(pset, lset, plays, losses)


def test_identity_feasible_value_nonnegative():
    for seed in range(5):
        h = _random_vertex_history(Ball(math.inf, 2), Ball(1.0, 2), 25, seed)
        value, dev = linear_swap_regret(h)
        assert value >= -1e-7
        assert dev.certified


def test_constant_play_equals_external():
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    rng = np.random.default_rng(1)
    play = pset.sample(rng, 1)[0]
    plays = np.tile(play, (20, 1))
    losses = lset.vertex_array()[rng.integers(4, size=20)]
    h = PlayHistory(pset, lset, plays, losses)
    value, _ = linear_swap_regret(h)
    assert value == pytest.approx(external_regret(h), abs=1e-7)


def test_rotation_deviation_matches_grid_oracle():
    # alternating (1,1)/(1,-1) plays with losses that reward a 90-degree twist
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    T = 8
    plays = np.array([(1.0, 1.0) if t % 2 == 0 else (1.0, -1.0) for t in range(T)])
    losses = np.array([(0.0, 1.0) if t % 2 == 0 else (1.0, 0.0) for t in range(T)])
    h = PlayHistory(pset, lset, plays, losses)
    value, dev = linear_swap_regret(h)

    K = losses.T @ plays
    k = losses.sum(axis=0)
    verts = pset.vertex_array()
    grid = np.linspace(-1.0, 1.0, 9)
    best = -np.inf
    for entries in itertools.product(grid, repeat=4):
        M = np.array(entries).reshape(2, 2)
        imgs = verts @ M.T
        for a1 in grid:
            for a2 in grid:
                a = np.array([a1, a2])
                if np.abs(imgs + a).max() <= 1.0 + 1e-12:
                    cand = np.trace(K) - float((M * K).sum()) - float(a @ k)
                    best = max(best, cand)
    assert value == pytest.approx(best, abs=2e-2)
    assert value >= best - 1e-9  # grid can only undershoot the LP


def test_external_regret_examples():
    pset, lset = Ball(math.inf, 1), Ball(1.0, 1)
    h = PlayHistory(pset, lset, np.zeros((2, 1)), np.ones((2, 1)))
    assert external_regret(h) == pytest.approx(2.0)
    # playing the hindsight optimum every round gives zero external regret
    rng = np.random.default_rng(2)
    losses = rng.choice([-1.0, 1.0], size=(10, 1))
    best = pset.lmo(losses.sum(axis=0))
    h0 = PlayHistory(pset, lset, np.tile(best, (10, 1)), losses)
    assert external_regret(h0) == pytest.approx(0.0, abs=1e-12)


def test_external_at_most_linear_swap():
    for seed in range(5):
        h = _random_vertex_history(Ball(math.inf, 2), Ball(1.0, 2), 30, seed + 10)
        value, _ = linear_swap_regret(h)
        assert external_regret(h) <= value + 1e-7


def test_app_loss_certificate():
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    traj = engine.run(pset, lset, 50, IidVertexAdversary(lset, 4), solver="exact")
    cert = app_loss_certificate(traj)
    assert cert == pytest.approx(traj.certificate)
    assert cert == pytest.approx(np.linalg.norm(traj.state.U) / traj.T, abs=1e-12)


def test_regret_bounded_by_approachability_chain():
    # LinearSwapReg <= 2 T AppLossCert max ||phi||_F with the John-position
    # Frobenius bounds sqrt(2d) + sqrt(d) on (M, a).
    d = 3
    pset, lset = Ball(math.inf, d), Ball(1.0, d)
    traj = engine.run(pset, lset, 200, IidVertexAdversary(lset, 6), solver="exact")
    hist = PlayHistory(pset, lset, traj.plays, traj.losses)
    value, _ = linear_swap_regret(hist, validate=False)
    cert = app_loss_certificate(traj)
    phi_max = math.sqrt(2 * d) + math.sqrt(d)
    assert value <= 2 * traj.T * cert * (math.sqrt(d) + phi_max) + 1e-6


def test_frame_invariance_random_maps():
    d = 2
    pset, lset = Ball(math.inf, d), Ball(1.0, d)
    for seed in range(8):
        h = _random_vertex_history(pset, lset, 25, seed + 50)
        value, _ = linear_swap_regret(h)
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(d, d)) + 3 * np.eye(d)
        h2 = PlayHistory(LinearImage(A, pset), LinearImage(np.linalg.inv(A).T, lset),
                         h.plays @ A.T, h.losses @ np.linalg.inv(A))
        value2, _ = linear_swap_regret(h2, validate=False)
        assert value2 == pytest.approx(value, abs=1e-6 * (1 + abs(value)))


def test_frobenius_bound_on_extremal_endomorphisms():
    d = 3
    pset = Ball(math.inf, d)
    rng = np.random.default_rng(4)
    for _ in range(20):
        w_mat = rng.normal(size=(d, d))
        w_vec = rng.normal(size=d)
        _, dev = extremal_endomorphism(pset, w_mat, w_vec)
        assert dev.certified
        assert np.linalg.norm(dev.M) <= math.sqrt(2 * d) + 1e-6
        assert np.linalg.norm(dev.a) <= math.sqrt(d) + 1e-6


def test_ball2_endomorphism_certification():
    pset = Ball(2.0, 2)
    rng = np.random.default_rng(5)
    for _ in range(5):
        w_mat = rng.normal(size=(2, 2))
        value, dev = extremal_endomorphism(pset, w_mat, rng.normal(size=2))
        reach = max_norm_affine_over_ball(dev.M, dev.a, 1.0)
        # sampled sources give a relaxation; the certification flag must be
        # truthful either way and the overshoot stays modest
        assert reach <= 1.0 + 0.25
        assert dev.certified == (reach <= 1.0 + 1e-7)


def test_uncertified_deviation_logs_one_warning(caplog):
    w_mat = np.random.default_rng(5).normal(size=(2, 2))
    with caplog.at_level(logging.WARNING, logger="swapreg.evaluate"):
        _, dev = extremal_endomorphism(Ball(2.0, 2), w_mat, np.zeros(2))
    assert not dev.certified
    warnings = [r for r in caplog.records if r.name == "swapreg.evaluate"]
    assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
    assert "not certified" in warnings[0].getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="swapreg.evaluate"):
        _, dev = extremal_endomorphism(Ball(math.inf, 3), np.ones((3, 3)))
    assert dev.certified and not caplog.records


def test_encoding_follows_facet_and_vertex_counts():
    combined = CombinedAdversary.strategy_set(3)
    facet_form = [Ball(math.inf, 3), Ball(math.inf, 8), combined,
                  CombinedAdversary.strategy_set(2), Product((Simplex(2), Ball(math.inf, 2))),
                  LinearImage(2.0 * np.eye(6), combined)]
    vertex_form = [Ball(math.inf, 1), Ball(math.inf, 2), Ball(1.0, 3), Ball(2.0, 3),
                   Simplex(3), VPolytope(Ball(math.inf, 3).vertex_array()),
                   HPolytope(*Ball(math.inf, 3).hrep()), Product((Ball(1.0, 2), Ball(2.0, 2))),
                   LinearImage(2.0 * np.eye(3), Ball(1.0, 3))]
    assert all(evaluate._uses_facet_form(K) for K in facet_form)
    assert not any(evaluate._uses_facet_form(K) for K in vertex_form)


class _Captured(Exception):
    pass


def _captured_lp(pset, w_mat, w_vec, facet_form):
    """The LP `extremal_endomorphism` builds in the chosen encoding, unsolved."""
    captured = []

    def capture(problem):
        captured.append(problem)
        raise _Captured

    with pytest.MonkeyPatch.context() as m:
        m.setattr(evaluate, "_uses_facet_form", lambda K: facet_form)
        m.setattr(evaluate, "solve_lp", capture)
        with pytest.raises(_Captured):
            extremal_endomorphism(pset, w_mat, w_vec)
    return captured[0]


def test_combined_set_lp_is_written_per_facet():
    pset = CombinedAdversary.strategy_set(3)
    w_mat, w_vec = np.ones((6, 6)), np.ones(6)
    assert _captured_lp(pset, w_mat, w_vec, facet_form=True).a_ub.shape == (182, 98)
    assert _captured_lp(pset, w_mat, w_vec, facet_form=False).a_ub.shape == (624, 186)


def test_strict_retry_case_solves_in_the_facet_form(caplog):
    # Solving this objective in the 624-row vertex form hits a singular basis
    # and a strict retry of 15-20 s; the slow strict-mode refactorization
    # cadence itself remains in `lp`.
    optimize = pytest.importorskip("scipy.optimize")
    pset = CombinedAdversary.strategy_set(3)
    w_mat = np.random.default_rng(5).normal(size=(6, 6))
    w_vec = np.random.default_rng(6).normal(size=6)
    with caplog.at_level(logging.WARNING, logger="swapreg.lp"):
        value, dev = extremal_endomorphism(pset, w_mat, w_vec)
    assert dev.certified
    assert not [r for r in caplog.records if r.name == "swapreg.lp"]
    old = _captured_lp(pset, w_mat, w_vec, facet_form=False)
    ref = optimize.linprog(old.objective, old.a_ub, old.b_ub, old.a_eq, old.b_eq,
                           bounds=old.bounds, method="highs")
    assert ref.status == 0
    assert abs(value - -ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))


_ENCODING_CASES = {
    **{f"cube{d}": Ball(math.inf, d) for d in range(2, 7)},
    "combined2": CombinedAdversary.strategy_set(2),
    "combined3": CombinedAdversary.strategy_set(3),
    "image_of_product": LinearImage(
        np.array([[2.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                  [0.5, 0.0, 1.0, 0.5], [0.0, 0.0, 0.0, 1.5]]),
        Product((Ball(1.0, 2), Ball(math.inf, 2)))),
    "hpolytope_cube": HPolytope(*Ball(math.inf, 3).hrep()),
}


@pytest.mark.parametrize("name", sorted(_ENCODING_CASES))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_facet_and_vertex_forms_agree(name, data):
    pset = _ENCODING_CASES[name]
    d = pset.dim
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    w_mat = data.draw(arrays(float, (d, d), elements=unit))
    w_vec = data.draw(arrays(float, d, elements=unit))
    include_affine = data.draw(st.booleans())
    results = []
    for facet_form in (True, False):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(evaluate, "_uses_facet_form", lambda K: facet_form)
            results.append(extremal_endomorphism(pset, w_mat, w_vec if include_affine else None,
                                                 include_affine=include_affine))
    (v_facet, dev_facet), (v_vertex, dev_vertex) = results
    assert abs(v_facet - v_vertex) <= 1e-8 * max(1.0, abs(v_vertex))
    for dev in (dev_facet, dev_vertex):
        assert dev.certified
        assert all(pset.contains(dev.M @ v + dev.a, 1e-6) for v in pset.vertex_array())


def test_d4_combined_certified_regret_below_exact_regret():
    # the d=4 vertex-form LP (2176 rows) did not finish; the facet form is 408 rows
    d, T = 4, 60
    pset, lset = CombinedAdversary.strategy_set(d), CombinedAdversary.loss_set(d)
    adv = CombinedAdversary(d, T, seed=0)
    traj = engine.run_preconditioned(pset, lset, T, adv, solver="fpl", fpl_iters=64, seed=0)
    _, plays, losses = traj.original_frame()
    exact, dev = linear_swap_regret(PlayHistory(pset, lset, plays, losses), validate=False)
    assert dev.certified
    assert combined_certified_regret(adv)["value"] <= exact + 1e-6


def test_max_norm_affine_over_ball_matches_grid():
    rng = np.random.default_rng(6)
    thetas = np.linspace(0, 2 * np.pi, 2001)
    circle = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    for _ in range(10):
        M = rng.normal(size=(2, 2))
        a = rng.normal(size=2)
        exact = max_norm_affine_over_ball(M, a, 1.0)
        grid = np.linalg.norm(circle @ M.T + a, axis=1).max()
        assert exact == pytest.approx(grid, abs=1e-5)
        assert exact >= grid - 1e-9


def test_polydim_lower_feature_identity_feasible():
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    fm = monomial_map(2, 2)
    h = _random_vertex_history(pset, lset, 20, 3)
    value, M = polydim_regret_lower(h, fm, rounds_cap=6, seed=0)
    assert value >= -1e-9
    # returned deviation maps sampled points into the set (certified)
    pts = pset.sample(np.random.default_rng(1), 500)
    imgs = fm.evaluate_batch(pts) @ M.T
    assert all(pset.contains(z, 1e-5) for z in imgs)


def test_polydim_lower_degree1_equals_linear_swap():
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    fm = monomial_map(2, 1)
    h = _random_vertex_history(pset, lset, 25, 8)
    lsr, _ = linear_swap_regret(h)
    value, _ = polydim_regret_lower(h, fm, rounds_cap=8, seed=0)
    assert value == pytest.approx(lsr, abs=1e-6 * (1 + abs(lsr)))


def test_polydim_lower_square_deviation_matches_grid():
    # d=1 history where the deviation p -> p^2 profits
    pset, lset = Ball(math.inf, 1), Ball(1.0, 1)
    fm = monomial_map(1, 2)
    plays = np.array([[-1.0], [1.0]] * 6)
    losses = np.array([[-1.0], [1.0]] * 6)
    h = PlayHistory(pset, lset, plays, losses)
    value, M = polydim_regret_lower(h, fm, rounds_cap=10, seed=0)

    qs = np.linspace(-1.0, 1.0, 401)
    feats = fm.evaluate_batch(qs[:, None])
    K = (losses.T @ fm.evaluate_batch(plays)).ravel()
    grid = np.linspace(-1.0, 1.0, 21)
    best = -np.inf
    for c in itertools.product(grid, repeat=3):
        coef = np.array(c)
        if np.abs(feats @ coef).max() <= 1.0 + 1e-12:
            best = max(best, K[0] - float(coef @ K))
    assert value == pytest.approx(best, abs=2e-2)
    assert value >= best - 1e-9


@pytest.mark.xfail(raises=NumericalFailure, strict=True,
                   reason="the cutting-plane LP loses feasibility at a phase-2 refit, "
                          "also after the strict retry")
def test_polydim_lower_on_alg3_history_seed2():
    pset = Ball(math.inf, 2)
    lset = pset.polar()
    fm = monomial_map(2, 2)
    traj = poly_run(pset, lset, 100, IidVertexAdversary(lset, 2), fm, do_iters=6, seed=2)
    h = PlayHistory(pset, lset, traj.plays, traj.losses, mixtures=traj.mixtures)
    value, _ = polydim_regret_lower(h, fm, rounds_cap=10, seed=11)
    assert value >= -1e-9


def test_make_report_fields():
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    traj = engine.run(pset, lset, 30, IidVertexAdversary(lset, 2), solver="exact")
    hist = PlayHistory(pset, lset, traj.plays, traj.losses)
    rep = make_report(hist, traj)
    assert rep.profile_swap_dist_cert == rep.app_loss_cert
    assert rep.bound_8d_sqrtT == pytest.approx(16 * math.sqrt(30))
    assert rep.external <= rep.linear_swap + 1e-7


def test_history_validation():
    pset, lset = Ball(math.inf, 2), Ball(1.0, 2)
    bad = PlayHistory(pset, lset, np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        bad.validate()
