import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowbif import FlowbifError, Frame, Poly2, PolyVectorField, TimeFamily, parse_field_file
from flowbif.singular import make_normal_form

from conftest import GALLERY, field, rng


def test_divergence_ok_example():
    f = field({(0, 1): 1.0, (2, 0): 1.0}, {(3, 0): 1.0, (1, 1): -2.0})
    rep = f.check_divergence_free()
    assert rep.ok and rep.worst_violation == 0.0


def test_divergence_violation_reported_not_raised():
    rep = field({(1, 0): 1.0}, {(0, 1): 1.0}).check_divergence_free()
    assert not rep.ok
    assert rep.worst_violation == pytest.approx(2.0)
    assert rep.worst_term == (0, 0)


def test_divergence_check_agrees_with_stream_function():
    # one relative rule: the check passes exactly when a stream function exists
    fields = [parse_field_file(path) for path in sorted(GALLERY.glob("*.field"))]
    # S4 at amplitude 1e-14 plus the source term 1e-20 x, and at 1e6 with u's x^2 an ulp off
    tiny = parse_field_file(GALLERY / "s4.field") * 1e-14 + field({(1, 0): 1e-20}, {})
    big = field({(0, 1): 1e6, (2, 0): np.nextafter(1e6, 2e6)}, {(1, 1): -2e6, (3, 0): 1e6})
    disagree = []
    for i, f in enumerate([*fields, tiny, big]):
        for e in range(-14, 15, 2):
            scaled = f * 10.0**e
            ok = scaled.check_divergence_free().ok
            try:
                scaled.stream_function()
            except FlowbifError:
                has_psi = False
            else:
                has_psi = True
            if ok != has_psi:
                disagree.append((i, e, ok))
    assert disagree == []
    assert not tiny.check_divergence_free().ok and big.check_divergence_free().ok
    # a family judges each block against its own amplitude
    rep = TimeFamily(big, tiny).check_divergence_free()
    assert not rep.ok and rep.worst_violation == pytest.approx(1e-20)


@given(
    st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
    st.integers(2, 6), st.integers(2, 6),
)
def test_normal_form_divergence_free(alpha, beta, lam, k, n):
    assert make_normal_form(alpha, beta, lam, k, n).check_divergence_free().ok


def test_jacobian_trace_vanishes_for_divergence_free():
    g = rng(3)
    psi = Poly2.from_terms(
        {(i, j): float(c) for (i, j), c in np.ndenumerate(g.normal(size=(4, 4)))}
    )
    f = PolyVectorField.from_stream(psi)
    for p in g.uniform(-2, 2, size=(100, 2)):
        jac = f.jacobian(p)
        assert abs(jac[0, 0] + jac[1, 1]) < 1e-10 * max(1.0, np.abs(jac).max())


def test_from_stream_reproduces_field():
    # psi = y^2/2 + x^2 y gives u = y + x^2, v = -2xy
    psi = Poly2.from_terms({(0, 2): 0.5, (2, 1): 1.0})
    f = PolyVectorField.from_stream(psi)
    assert f.u.terms() == {(0, 1): 1.0, (2, 0): 1.0}
    assert f.v.terms() == {(1, 1): -2.0}


def test_stream_function_round_trip(s4_field):
    psi = s4_field.stream_function()
    back = PolyVectorField.from_stream(psi)
    assert back.u.allclose(s4_field.u)
    assert back.v.allclose(s4_field.v)


def test_antisymmetric_examples():
    assert field({(0, 1): 1.0, (3, 0): 1.0}, {(3, 0): 1.0, (2, 1): -3.0}).check_antisymmetric()
    assert not field({(0, 1): 1.0, (2, 0): 1.0}, {(3, 0): 1.0, (1, 1): -2.0}).check_antisymmetric()
    assert field({(0, 1): -1.0}, {(1, 0): 1.0}).check_antisymmetric()


def test_antisymmetric_off_center():
    f = field({(0, 1): 1.0, (3, 0): 1.0}, {(3, 0): 1.0, (2, 1): -3.0})
    # re-expanded about (0.5, -0.25): the symmetry centre moves to (-0.5, 0.25)
    shifted = f.in_frame(Frame((0.5, -0.25), (1.0, 0.0), (0.0, 1.0)))
    assert shifted.check_antisymmetric((-0.5, 0.25))
    assert not shifted.check_antisymmetric((0.0, 0.0))


def test_symmetry_tolerance_is_relative():
    # an even-degree term is a broken symmetry at any amplitude
    tiny = field({(0, 0): 1e-13, (0, 1): 1e-13}, {(1, 0): 1e-13})
    assert not tiny.check_antisymmetric()
    assert field({(0, 1): 1e-13}, {(1, 0): 1e-13}).check_antisymmetric()
    assert not field({(1, 0): 1e-13, (0, 1): 1e-13}, {(0, 0): 1e-13}).check_reflectional()


def test_reflectional_examples():
    assert field({(0, 1): 1.0, (2, 0): 1.0}, {(3, 0): 1.0, (1, 1): -2.0}).check_reflectional()
    assert not field({(0, 1): 1.0, (3, 0): 1.0}, {(3, 0): 1.0, (2, 1): -3.0}).check_reflectional()
    assert field({(0, 1): 1.0}, {(1, 0): 1.0}).check_reflectional()


def test_in_frame_round_trip(s4_field):
    fr = Frame.rotation((0.2, -0.1), 0.6)
    local = s4_field.in_frame(fr)
    assert local.check_divergence_free().ok
    # invert: world = rot @ local + origin
    inv = Frame(
        origin=-(fr.rot.T @ fr.origin), e1=fr.rot.T[:, 0], e2=fr.rot.T[:, 1]
    )
    back = local.in_frame(inv)
    assert back.u.allclose(s4_field.u, tol=1e-10)
    assert back.v.allclose(s4_field.v, tol=1e-10)


def test_in_frame_det_preserved(s4_field):
    fr = Frame.rotation((0.0, 0.0), 1.1)
    local = s4_field.in_frame(fr)
    g = rng(11)
    for xi in g.uniform(-1, 1, size=(20, 2)):
        p = fr.to_world(xi)
        d_world = float(np.linalg.det(s4_field.jacobian(p)))
        d_local = float(np.linalg.det(local.jacobian(xi)))
        assert d_local == pytest.approx(d_world, rel=1e-9, abs=1e-9)


def test_evaluate_many_matches_scalar(s4_field):
    g = rng(5)
    xs, ys = g.uniform(-1, 1, size=(2, 40))
    u, v = s4_field.evaluate_many(xs, ys)
    for i in range(len(xs)):
        ui, vi = s4_field(np.array([xs[i], ys[i]]))
        assert u[i] == pytest.approx(ui, rel=1e-13, abs=1e-13)
        assert v[i] == pytest.approx(vi, rel=1e-13, abs=1e-13)


def test_time_family_offset_convention(saddle_split_family):
    fam = saddle_split_family
    eps = 0.25
    w = fam.at_offset(eps)
    p = np.array([0.3, -0.2])
    base, accel = fam.base(p), fam.accel(p)
    assert np.allclose(w(p), base - eps * accel)
    # eps = -(t - t0)
    assert np.allclose(fam.at_time(fam.t0 - eps)(p), w(p))
