import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbif import Poly2

coef_dicts = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    max_size=8,
)


def direct_eval(terms, x, y):
    return sum(c * x**i * y**j for (i, j), c in terms.items())


@given(coef_dicts, st.floats(-3, 3), st.floats(-3, 3))
def test_eval_matches_monomial_sum(terms, x, y):
    p = Poly2.from_terms(terms)
    assert p(x, y) == pytest.approx(direct_eval(terms, x, y), rel=1e-9, abs=1e-9)


def test_terms_round_trip():
    terms = {(0, 1): 1.0, (2, 0): 1.0, (3, 2): -0.5}
    assert Poly2.from_terms(terms).terms() == terms


def test_scalar_and_array_paths_agree():
    p = Poly2.from_terms({(0, 1): 1.0, (2, 0): 1.0, (1, 1): -2.0})
    xs = np.linspace(-1, 1, 7)
    ys = np.linspace(-2, 2, 7)
    arr = p(xs, ys)
    for x, y, val in zip(xs, ys, arr):
        assert p(float(x), float(y)) == pytest.approx(float(val), rel=1e-14)


def test_derivatives():
    # d/dx (y + x^2 y^3) = 2 x y^3 ; d/dy = 1 + 3 x^2 y^2
    p = Poly2.from_terms({(0, 1): 1.0, (2, 3): 1.0})
    assert p.dx().terms() == {(1, 3): 2.0}
    assert p.dy().terms() == {(0, 0): 1.0, (2, 2): 3.0}


def test_integrals_invert_derivatives():
    p = Poly2.from_terms({(1, 2): 3.0, (0, 0): 2.0})
    assert p.integrate_x().dx().allclose(p)
    assert p.integrate_y().dy().allclose(p)


def test_compose_affine_translation():
    p = Poly2.from_terms({(2, 0): 1.0, (0, 1): 1.0})
    q = p.compose_affine((1.0, -2.0), np.eye(2))
    for x, y in [(0.3, 0.4), (-1.1, 2.0)]:
        assert q(x, y) == pytest.approx(p(x + 1.0, y - 2.0), rel=1e-12, abs=1e-12)


def test_compose_affine_rotation():
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    m = np.array([[c, -s], [s, c]])
    p = Poly2.from_terms({(3, 0): 1.0, (1, 1): -2.0})
    q = p.compose_affine((0.0, 0.0), m)
    for x, y in [(0.2, -0.5), (1.0, 1.0)]:
        xr, yr = m @ (x, y)
        assert q(x, y) == pytest.approx(p(xr, yr), rel=1e-12, abs=1e-12)


def test_compose_affine_identity_is_bitwise():
    g = np.random.default_rng(3)
    coef = g.standard_normal((7, 5)) * 10.0 ** g.integers(-8, 8, size=(7, 5))
    coef[2, 3] = 0.0
    p = Poly2(coef)
    q = p.compose_affine((0.0, 0.0), np.eye(2))
    assert q.coef.shape == p.coef.shape
    assert q.coef.tobytes() == p.coef.tobytes()


@settings(max_examples=40)
@given(
    st.integers(0, 20),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2 * np.pi),
    st.floats(0.0, 2 * np.pi),
)
def test_compose_affine_round_trip(degree, seed, radius, phi, theta):
    # p(o + R xi), then the inverse motion xi = R^T (x - o), recovers p.
    # Coefficients of size 3^-(i+j) keep p of unit size on |x|, |y| <= 3,
    # which holds the unit square's image under the motion and under its
    # inverse; the round trip is then well conditioned, so the bound checks
    # the rounding of the two compositions.
    g = np.random.default_rng(seed)
    total = np.add.outer(np.arange(degree + 1), np.arange(degree + 1))
    coef = g.uniform(-1.0, 1.0, size=total.shape) * 3.0 ** -total.astype(float)
    coef[total > degree] = 0.0
    p = Poly2(coef)
    o = radius * np.array([np.cos(phi), np.sin(phi)])
    c, s = np.cos(theta), np.sin(theta)
    m = np.array([[c, -s], [s, c]])
    back = p.compose_affine(o, m).compose_affine(-(m.T @ o), m.T)
    assert back.allclose(p, tol=1e-12 * p.max_abs_coef())


def test_degree_and_zero():
    assert Poly2.zero().is_zero()
    assert Poly2.from_terms({(2, 3): 1.0}).degree == 5


def test_abs_bound_dominates():
    p = Poly2.from_terms({(2, 0): 1.5, (1, 1): -2.0, (0, 0): 0.25})
    m = 0.8
    bound = p.abs_bound(m)
    for x in np.linspace(-m, m, 11):
        for y in np.linspace(-m, m, 11):
            assert abs(p(float(x), float(y))) <= bound + 1e-12
