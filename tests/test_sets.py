import json
import math

import numpy as np
import pytest

from swapreg.errors import UnsupportedSet, VertexBlowup
from swapreg.sets import (Ball, HPolytope, LinearImage, Product, Simplex,
                          VPolytope, set_from_spec)

RNG = np.random.default_rng(2024)


def test_lmo_ball_inf_signwise():
    assert np.allclose(Ball(math.inf, 2).lmo([1.0, -2.0]), [-1.0, 1.0])


def test_lmo_ball_one_max_coordinate():
    assert np.allclose(Ball(1.0, 2).lmo([0.5, -3.0]), [0.0, 1.0])


def test_lmo_product_concatenates():
    prod = Product((Ball(1.0, 2), Ball(math.inf, 2)))
    assert np.allclose(prod.lmo([0.5, -3.0, 1.0, -2.0]), [0.0, 1.0, -1.0, 1.0])


def test_lmo_rejects_nan():
    with pytest.raises(ValueError):
        Ball(math.inf, 2).lmo([np.nan, 0.0])


def test_membership_examples():
    assert Ball(2.0, 3).contains([1.0, 0.0, 0.0], 1e-9)
    assert not Ball(1.0, 2).contains([0.6, 0.6], 1e-9)
    square = VPolytope([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    assert square.contains([0.0, 0.0])


def test_polar_examples():
    for d in (2, 3, 5):
        assert Ball(math.inf, d).polar() == Ball(1.0, d, 1.0)
        assert Ball(2.0, d).polar() == Ball(2.0, d, 1.0)
    pol = Product((Ball(1.0, 2), Ball(math.inf, 2))).polar()
    assert pol.factors[0] == Ball(math.inf, 2, 0.5)
    assert pol.factors[1] == Ball(1.0, 2, 0.5)


def test_bipolar_returns_original_for_balls():
    for s in (Ball(1.0, 3), Ball(2.0, 4), Ball(math.inf, 2), Ball(1.0, 2, 2.0)):
        assert s.polar().polar() == Ball(s.p, s.dim, s.radius)


def test_polar_vpolytope_roundtrip():
    square = VPolytope([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    pol = square.polar()
    assert isinstance(pol, HPolytope)
    # polar of the square is the cross-polytope; its polar recovers the square
    back = pol.polar()
    assert isinstance(back, VPolytope)
    for v in square.vertices:
        assert back.contains(v, 1e-9)


def test_polar_rejects_origin_on_boundary():
    with pytest.raises(UnsupportedSet):
        Simplex(2).polar()
    shifted = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(UnsupportedSet):
        shifted.polar()


def test_lmo_optimality_random():
    sets = [Ball(math.inf, 3), Ball(1.0, 3), Ball(2.0, 3), Simplex(3),
            Product((Ball(1.0, 2), Ball(math.inf, 2))),
            VPolytope(RNG.normal(size=(7, 3)) + 2 * np.eye(3)[np.zeros(7, dtype=int)]),
            HPolytope(np.vstack([np.eye(3), -np.eye(3), RNG.normal(size=(3, 3))]),
                      np.ones(9))]
    for s in sets:
        members = s.sample(RNG, 100)
        for _ in range(100):
            c = RNG.normal(size=s.dim)
            x = s.lmo(c)
            assert s.contains(x, 1e-7)
            assert np.all(members @ c >= float(c @ x) - 1e-9)


def test_polar_pairing_random():
    for s in (Ball(math.inf, 3), Ball(1.0, 4), Ball(2.0, 3),
              Product((Ball(1.0, 2), Ball(math.inf, 2)))):
        pol = s.polar()
        ps = s.sample(RNG, 100)
        ls = pol.sample(RNG, 100)
        assert np.all(np.einsum("ij,ij->i", ps, ls) <= 1.0 + 1e-9)


def test_vertex_orders_are_canonical():
    assert np.allclose(Ball(math.inf, 2).vertex_array()[0], [-1.0, -1.0])
    assert np.allclose(Ball(1.0, 2).vertex_array()[0], [1.0, 0.0])
    assert np.allclose(Simplex(2).vertex_array()[0], [0.0, 0.0])


def test_vertex_blowup():
    with pytest.raises(VertexBlowup):
        Ball(math.inf, 13).vertex_array()
    with pytest.raises(VertexBlowup):
        Product((Ball(math.inf, 8), Ball(math.inf, 8))).vertex_array(cap=10_000)


def test_vertex_array_is_enumerated_once_and_read_only(monkeypatch):
    from swapreg import sets  # module-level `sets` names are set lists in other tests
    calls = []
    enumerate_ = sets._enumerate_hpoly_vertices
    monkeypatch.setattr(sets, "_enumerate_hpoly_vertices",
                        lambda G, h: calls.append(1) or enumerate_(G, h))
    hp = HPolytope(*Ball(math.inf, 2).hrep())
    image = LinearImage(np.array([[2.0, 1.0], [0.0, 1.0]]), hp)
    first = image.vertex_array()
    assert image.vertex_array() is first and hp.vertex_array() is hp.vertex_array()
    assert len(calls) == 1
    with pytest.raises(ValueError):
        first[0, 0] = 5.0  # callers must copy before writing
    with pytest.raises(VertexBlowup):  # failures are not cached: raised on each call
        hp.vertex_array(cap=3)
    with pytest.raises(VertexBlowup):
        hp.vertex_array(cap=3)
    assert len(calls) == 3
    assert hp.vertex_array().shape == (4, 2)
    assert Ball(math.inf, 2).vertex_array() is not Ball(math.inf, 2).vertex_array()


@pytest.mark.parametrize("make", [
    lambda: VPolytope(Ball(math.inf, 2).vertex_array()),
    lambda: HPolytope(*Ball(math.inf, 2).hrep()),
    lambda: LinearImage(np.array([[2.0, 1.0], [0.0, 1.0]]), Ball(1.0, 2)),
], ids=["vpolytope", "hpolytope", "linear_image"])
def test_array_backed_sets_compare_and_hash_by_identity(make):
    a, b = make(), make()  # equal contents, distinct instances
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a)
    assert a in [b, a] and b not in [a]
    assert {a: 1, b: 2}[a] == 1


def test_hpolytope_vertex_enumeration_matches_cube():
    G, h = Ball(math.inf, 3).hrep()
    hp = HPolytope(G, h)
    verts = hp.vertex_array()
    expected = Ball(math.inf, 3).vertex_array()
    assert verts.shape == (8, 3)
    for v in expected:
        assert np.min(np.linalg.norm(verts - v, axis=1)) < 1e-9


def test_linear_image_oracles_consistent():
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    img = LinearImage(A, Ball(math.inf, 2))
    for _ in range(50):
        c = RNG.normal(size=2)
        x = img.lmo(c)
        assert img.contains(x, 1e-8)
        verts = img.vertex_array()
        assert float(c @ x) == pytest.approx(float((verts @ c).min()), abs=1e-9)
    G, h = img.hrep()
    inside = img.sample(RNG, 50)
    assert np.all(inside @ G.T - h <= 1e-7)


def test_simplex_is_corner_simplex():
    s = Simplex(3)
    assert s.contains([0.2, 0.2, 0.2])
    assert s.contains([0.0, 0.0, 0.0])
    assert not s.contains([0.5, 0.5, 0.5])
    assert np.allclose(s.lmo([1.0, 1.0, 1.0]), [0.0, 0.0, 0.0])
    assert np.allclose(s.lmo([1.0, -1.0, 0.5]), [0.0, 1.0, 0.0])


def test_json_spec_roundtrip():
    sets = [Ball(1.0, 2), Ball(math.inf, 3, 2.0), Simplex(2),
            Product((Ball(1.0, 2), Ball(math.inf, 2))),
            VPolytope([[1, 1], [1, -1], [-1, 1], [-1, -1]]),
            HPolytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))]
    for s in sets:
        spec = json.loads(json.dumps(s.to_spec()))
        back = set_from_spec(spec)
        assert back.dim == s.dim
        pts = s.sample(RNG, 30)
        for p in pts:
            assert back.contains(p, 1e-7)


def test_norm_bound_is_upper_bound():
    for s in (Ball(math.inf, 3), Ball(1.0, 4), Simplex(3),
              Product((Ball(1.0, 2), Ball(math.inf, 3))),
              LinearImage(np.array([[1.0, 0.4], [0.0, 0.5]]), Ball(math.inf, 2))):
        nb = s.norm_bound()
        pts = s.sample(RNG, 200)
        assert np.all(np.linalg.norm(pts, axis=1) <= nb + 1e-9)
