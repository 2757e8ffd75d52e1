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


@given(st.integers(0, 20), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_array_evaluation_is_bitwise_the_scalar_one(degree, seed):
    g = np.random.default_rng(seed)
    coef = np.zeros((degree + 1, degree + 1))
    for i, j in np.ndindex(coef.shape):
        if i + j <= degree and g.random() < 0.8:
            coef[i, j] = g.choice((-1.0, 1.0)) * 10.0 ** g.uniform(-3.0, 3.0)
    p = Poly2(coef)
    cx, cy = g.uniform(-1.5, 1.5, (2, 6))
    cx[0], cy[1] = 0.0, -0.0
    off = g.uniform(-1.0, 1.0, (32, 2)) * 10.0 ** g.uniform(-6.0, 0.0)
    px, py = cx[:, None] + off[:, 0], cy[:, None] + off[:, 1]  # (n, 32) cell boundaries
    for x, y in ((cx, cy), (px, py), (float(cx[2]), cy), (cx, float(cy[3])), (cx[:, None], cy)):
        xb, yb = np.broadcast_arrays(x, y)
        got = p(x, y)
        assert got.shape == xb.shape
        want = [p(float(a), float(b)) for a, b in zip(xb.ravel(), yb.ravel())]
        assert (np.asarray(got).ravel().view(np.int64) == np.array(want).view(np.int64)).all()


@pytest.mark.parametrize("size", [20_000, 3 * 2**15])
@pytest.mark.parametrize("shape", [(21, 21), (8, 2), (2, 8)])
def test_large_arrays_evaluate_in_row_blocks_with_the_same_bits(shape, size):
    # past 2**16 row sums at once the rows go in blocks (of 3 rows, then of 1
    # row, here); the bits stay those of small arrays
    g = np.random.default_rng(3)
    p = Poly2(g.normal(size=shape))
    x, y = g.uniform(-1.2, 1.2, (2, size))
    whole = p(x, y)
    parts = np.concatenate([p(x[i : i + 1000], y[i : i + 1000]) for i in range(0, x.size, 1000)])
    assert (whole.view(np.int64) == parts.view(np.int64)).all()
    assert float(whole[123]) == p(float(x[123]), float(y[123]))


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
