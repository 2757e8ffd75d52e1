from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbif import (
    FlowbifError,
    TimeFamily,
    UnsupportedCaseError,
    analyze,
    branch_asymptotics,
    check_generic_membership,
    decide,
    extract_degeneracy,
    extract_perturbation,
    verify,
)
from flowbif.bifurcation import genericity_value
from flowbif.singular import make_normal_form

from conftest import field


def _data(params, u1_terms):
    base = make_normal_form(*params)
    d = extract_degeneracy(base, (0.0, 0.0))
    u1 = field(*u1_terms)
    p = extract_perturbation(u1, d.frame)
    return base, u1, d, p


# ---------------------------------------------------------------------------
# perturbation extraction and the decision


def test_perturbation_values_identity_frame():
    # S4 frame is the identity, so lambdas read off u1 directly
    _, _, d, p = _data(
        (1, 1, 1, 2, 3),
        ({(0, 0): 2.0, (1, 0): 1.0}, {(0, 0): 3.0, (1, 0): 4.0, (0, 1): -1.0}),
    )
    assert np.allclose(d.frame.e1, (1, 0)) and np.allclose(d.frame.e2, (0, 1))
    assert (p.lambda0, p.lambda1, p.lambda2, p.lambda3) == (3.0, 2.0, 4.0, -1.0)


def test_decide_no_bifurcation_when_lambda0_persists():
    _, _, d, p = _data((1, 1, 1, 2, 3), ({}, {(0, 0): 1.0}))
    assert p.lambda0 == 1.0
    assert decide(d, p) == "no-bifurcation"


def test_decide_split_kind_follows_index():
    _, _, d, p = _data((1, 1, 1, 2, 3), ({(0, 0): 1.0}, {}))
    assert decide(d, p) == "saddle-split"
    _, _, d, p = _data((1, -1, 1, 3, 3), ({}, {(1, 0): 1.0}))
    assert decide(d, p) == "center-split"


def test_decide_indeterminate_when_genericity_vanishes():
    # lambda0 = lambda1 = lambda2 = 0 but lambda3 != 0
    _, _, d, p = _data((1, 1, 1, 2, 3), ({(0, 1): 1.0}, {}))
    assert genericity_value(d, p) == 0.0
    assert decide(d, p) == "indeterminate"


@pytest.mark.parametrize(
    "params",
    [(1, 1, 1, 2, 2), (1, -2, 1, 2, 3)],  # S1, S5
)
def test_decide_refuses_out_of_scope_cases(params):
    _, _, d, p = _data(params, ({(0, 0): 1.0}, {}))
    with pytest.raises(UnsupportedCaseError):
        decide(d, p)


# ---------------------------------------------------------------------------
# branch asymptotics: one frozen example per coefficient regime


REGIMES = [
    # params, u1, |coef|, exponent, eps sign of 3-root side
    ((1, 1, 1, 2, 3), ({(0, 0): 1.0}, {}), np.sqrt(2 / 3), Fraction(1, 2), 1),
    ((1, 1, 1, 2, 5), ({(0, 0): 1.0}, {}), 1.0, Fraction(1, 2), 1),
    ((1, -1, 1, 3, 3), ({}, {(1, 0): 1.0}), 1.0, Fraction(1, 2), -1),
    ((1, 1, 1, 3, 5), ({}, {(1, 0): 1.0}), 0.25**0.25, Fraction(1, 4), 1),
    ((1, 1, 1, 3, 7), ({}, {(1, 0): 1.0}), (1 / 3) ** 0.25, Fraction(1, 4), 1),
]


@pytest.mark.parametrize("params,u1,coef,expo,sign", REGIMES)
def test_branch_regime_table(params, u1, coef, expo, sign):
    _, _, d, p = _data(params, u1)
    pred = branch_asymptotics(d, p)
    assert pred.eps_sign == sign
    assert [b.label for b in pred.branches] == ["x-", "x0", "x+"]
    minus, mid, plus = pred.branches
    assert plus.leading_exponent == minus.leading_exponent == expo
    assert plus.leading_coefficient == pytest.approx(coef, rel=1e-12)
    assert minus.leading_coefficient == pytest.approx(-coef, rel=1e-12)
    assert mid.leading_coefficient is None
    # types forced by index conservation
    if d.index == -1:
        assert (minus.kind, mid.kind, plus.kind) == ("saddle", "center", "saddle")
    else:
        assert (minus.kind, mid.kind, plus.kind) == ("center", "saddle", "center")


def test_persistent_root_formula():
    _, _, d, p = _data((1, 1, 1, 2, 3), ({}, {(0, 0): 1.0}))
    pred = branch_asymptotics(d, p)
    (branch,) = pred.branches
    assert branch.label == "x0"
    assert branch.leading_exponent == Fraction(1, 3)
    assert branch.leading_coefficient == pytest.approx((1 / 3) ** (1 / 3), rel=1e-12)
    assert branch.kind == "saddle"
    assert pred.eps_sign == 0 and pred.side == "n/a"


@given(
    st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
    st.floats(-2.0, 2.0), st.floats(0.1, 2.0),
)
@settings(max_examples=60)
def test_outer_branches_are_mirror_images(alpha, beta, lam, l1, l2):
    base = make_normal_form(alpha, beta, lam, 2, 3)
    d = extract_degeneracy(base, (0.0, 0.0))
    u1 = field({(0, 0): l1}, {(1, 0): l2})
    p = extract_perturbation(u1, d.frame)
    if decide(d, p) == "indeterminate":
        return
    pred = branch_asymptotics(d, p)
    minus = next(b for b in pred.branches if b.label == "x-")
    plus = next(b for b in pred.branches if b.label == "x+")
    assert minus.leading_coefficient == pytest.approx(
        -plus.leading_coefficient, rel=1e-12
    )


# ---------------------------------------------------------------------------
# numerical verification ladder


def test_verify_saddle_split_confirmed(saddle_split_family):
    ver = verify(saddle_split_family, (0.0, 0.0))
    assert ver.verdict == "confirmed"
    three = [c for c in ver.root_counts if c == 3]
    one = [c for c in ver.root_counts if c == 1]
    assert len(three) == 3 and len(one) == 3
    for kinds, count in zip(ver.type_counts, ver.root_counts):
        if count == 3:
            assert sorted(kinds) == ["center", "saddle", "saddle"]
        else:
            assert list(kinds) == ["saddle"]
    assert all(s == -1 for s in ver.index_sums)


def test_verify_persistent_confirmed(persistent_family):
    ver = verify(persistent_family, (0.0, 0.0))
    assert ver.verdict == "confirmed"
    assert set(ver.root_counts) == {1}
    assert all(list(k) == ["saddle"] for k in ver.type_counts)


def test_verify_center_split_needs_tight_boxes(center_split_family):
    # default boxes at eps = 1e-2 swallow a far-field saddle pair near |x| = 0.57
    wide = verify(center_split_family, (0.0, 0.0))
    assert wide.verdict != "confirmed"
    tight = verify(center_split_family, (0.0, 0.0), eps_scale=0.1)
    assert tight.verdict == "confirmed"
    assert all(s == 1 for s in tight.index_sums)


def test_verify_errors_shrink_with_eps(center_split_family):
    ver = verify(center_split_family, (0.0, 0.0), eps_scale=0.1)
    carrying = [
        max(errs)
        for count, errs in zip(ver.root_counts, ver.asymptotic_errors)
        if count == 3 and errs
    ]
    assert len(carrying) == 3
    assert carrying[0] > carrying[1] > carrying[2]
    assert carrying[2] < 2e-4


def test_single_rung_ladder_is_refused(saddle_split_family):
    with pytest.raises(FlowbifError, match="at least two values"):
        analyze(saddle_split_family, (0.0, 0.0), ladder=(1e-2,))


def test_analyze_report_shape(saddle_split_family):
    rep = analyze(saddle_split_family, (0.0, 0.0), run_verification=False)
    assert rep.decision == "saddle-split"
    assert rep.side == "t<t0"  # eps = -(t - t0) and the split needs eps > 0
    assert rep.verification is None
    assert rep.degeneracy.case_label == "S4"
    assert rep.perturbation.lambda1 == 1.0


def test_analyze_indeterminate_reports_and_skips_ladder():
    base = make_normal_form(1, 1, 1, 2, 3)
    fam = TimeFamily(base, field({(0, 1): 1.0}, {}))
    rep = analyze(fam, (0.0, 0.0))
    assert rep.decision == "indeterminate"
    assert rep.branches == ()
    assert rep.verification.verdict == "inconclusive"
    assert verify(fam, (0.0, 0.0)) == rep.verification


# ---------------------------------------------------------------------------
# genericity classes


def _anti_family(accel_terms):
    return TimeFamily(make_normal_form(1, 1, 1, 3, 3), field(*accel_terms))


def _refl_family(accel_terms):
    return TimeFamily(make_normal_form(1, 1, 1, 2, 3), field(*accel_terms))


def test_anti_generic_membership():
    rep = check_generic_membership(_anti_family(({}, {(1, 0): 1.0})), (0.0, 0.0))
    assert rep.symmetry == "anti"
    assert rep.in_generic_subset
    assert rep.failed_conditions == ()


def test_anti_single_violation_lambda2():
    rep = check_generic_membership(_anti_family(({}, {(3, 0): 1.0})), (0.0, 0.0))
    assert rep.symmetry == "anti"
    assert not rep.in_generic_subset
    assert rep.failed_conditions == ("lambda2 != 0",)


def test_reflectional_generic_membership():
    rep = check_generic_membership(_refl_family(({(0, 0): 1.0}, {})), (0.0, 0.0))
    assert rep.symmetry == "reflectional"
    assert rep.in_generic_subset
    assert rep.failed_conditions == ()


def test_reflectional_single_violation_combination():
    rep = check_generic_membership(
        _refl_family(({(2, 0): 1.0}, {(1, 1): -2.0})), (0.0, 0.0)
    )
    assert rep.symmetry == "reflectional"
    assert rep.failed_conditions == ("2*lam*lambda1 + alpha*lambda2 != 0",)


def test_no_symmetry_reported():
    fam = _refl_family(({(0, 0): 1.0, (1, 0): 1.0}, {(0, 1): -1.0}))
    rep = check_generic_membership(fam, (0.0, 0.0))
    assert rep.symmetry == "none"
    assert not rep.in_generic_subset


def test_symmetry_forces_lambda0_zero():
    for fam in (
        _anti_family(({}, {(1, 0): 1.0})),
        _refl_family(({(0, 0): 1.0}, {})),
    ):
        d = extract_degeneracy(fam.base, (0.0, 0.0))
        p = extract_perturbation(fam.accel, d.frame)
        assert p.lambda0 == 0.0
