"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test exercises the library end to end on constructed fields and
families; several cross-check against the brute-force grid oracle in
gridsearch.py, which shares no code with the package.
"""

import time

import numpy as np
import pytest

from flowbif import (
    Poly2,
    PolyVectorField,
    TimeFamily,
    analyze,
    branch_asymptotics,
    check_generic_membership,
    decide,
    equivalent,
    extract_degeneracy,
    extract_perturbation,
    find_singular_points,
    index_sum,
    parse_field_file,
    signature,
    winding_index,
)
from flowbif.singular import make_normal_form

import gridsearch
from conftest import GALLERY, field


def _report(line: str) -> None:
    print(line)


def _family(params, u1_u, u1_v):
    return TimeFamily(make_normal_form(*params), field(u1_u, u1_v))


# families shared by criteria 3-6 and 9 -------------------------------------

PERSISTENT = _family((1, 1, 1, 2, 3), {}, {(0, 0): 1.0})
SPLITS = {
    "k2n3": _family((1, 1, 1, 2, 3), {(0, 0): 1.0}, {}),
    "k2n5": _family((1, 1, 1, 2, 5), {(0, 0): 1.0}, {}),
    "k3n7": _family((1, 1, 1, 3, 7), {}, {(1, 0): 1.0}),
    "k3n3": _family((1, -1, 1, 3, 3), {}, {(1, 0): 1.0}),
    "k3n5": _family((1, 1, 1, 3, 5), {}, {(1, 0): 1.0}),
}
EXPECTED_EXPONENT = {
    "k2n3": 0.5, "k2n5": 0.5, "k3n7": 0.25, "k3n3": 0.5, "k3n5": 0.25,
}
EPS_SCALE = {"k3n3": 0.1}  # keeps search boxes clear of a far saddle pair


def _prediction(fam):
    d = extract_degeneracy(fam.base, (0.0, 0.0))
    p = extract_perturbation(fam.accel, d.frame)
    return d, p, branch_asymptotics(d, p)


def test_criterion_1_index_formula_suite():
    cases = {
        "S1": ((1, 1, 1, 2, 2), 0),
        "S2": ((1, 1, 1, 3, 3), -1),
        "S3": ((1, -1, 1, 3, 3), 1),
        "S4": ((1, 1, 1, 2, 3), -1),
        "S6": ((1, -3, 1, 2, 3), 1),
        "S7": ((1, 1, 1, 2, 5), -1),
    }
    t0 = time.perf_counter()
    for label, (params, want) in cases.items():
        f = make_normal_form(*params)
        assert winding_index(f, (0.0, 0.0), 0.1).winding == want, label
        d = extract_degeneracy(f, (0.0, 0.0))
        assert d.case_label == label
        assert d.index == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(f"criterion 1 (index formula suite, {elapsed:.2f}s): PASS")


def test_criterion_2_index_invariance_under_perturbation():
    box = (-0.3, -0.3, 0.3, 0.3)
    for params, want in [((1, 1, 1, 2, 3), -1), ((1, -3, 1, 2, 3), 1)]:
        base = make_normal_form(*params)
        for eps in (0.0, 1e-3, 1e-2):
            pushed = PolyVectorField(
                base.u, base.v + Poly2.from_terms({(0, 0): -eps})
            )
            assert index_sum(pushed, box) == want, (params, eps)
    _report("criterion 2 (index invariant under constant push): PASS")


def test_criterion_3_no_bifurcation_family():
    ver = analyze(PERSISTENT, (0.0, 0.0)).verification
    assert ver.verdict == "confirmed"
    assert set(ver.root_counts) == {1}
    assert set(ver.type_counts) == {("saddle",)}
    assert set(ver.index_sums) == {-1}

    # independent oracle: brute-force grid isolation on both sides
    for eps in (1e-3, -1e-3):
        w = PERSISTENT.at_offset(eps)
        roots = gridsearch.grid_roots(
            w.u.terms(), w.v.terms(), (-0.25, -0.25, 0.25, 0.25)
        )
        assert len(roots) == 1
        kinds = gridsearch.root_kinds(w.u.terms(), w.v.terms(), roots, 0.02)
        assert kinds == ["saddle"]
        want_x = float(np.copysign(abs(eps / 3.0) ** (1 / 3), eps))
        assert roots[0][0] == pytest.approx(want_x, rel=1e-3)

    box = (-0.25, -0.25, 0.25, 0.25)
    a = signature(PERSISTENT.at_offset(1e-3), box)
    b = signature(PERSISTENT.at_offset(-1e-3), box)
    assert equivalent(a, b)
    _report("criterion 3 (persistent root, oracle-checked): PASS")


def test_criterion_4_saddle_split_asymptotics():
    fam = SPLITS["k2n3"]
    ver = analyze(fam, (0.0, 0.0)).verification
    assert ver.verdict == "confirmed"
    assert set(ver.index_sums) == {-1}
    counts = sorted(set(ver.root_counts))
    assert counts == [1, 3]
    for kinds, count in zip(ver.type_counts, ver.root_counts):
        if count == 3:
            assert sorted(kinds) == ["center", "saddle", "saddle"]
        else:
            assert list(kinds) == ["saddle"]

    def ratio_err(eps):
        w = fam.at_offset(eps)
        h = 10 * np.sqrt(2 * eps / 3)
        pts = find_singular_points(w, (-h, -h, h, h))
        assert [p.kind for p in pts] == ["saddle", "center", "saddle"]
        x_found = max(float(p.location[0]) for p in pts)
        return abs(x_found / np.sqrt(2 * eps / 3) - 1.0)

    err3, err4 = ratio_err(1e-3), ratio_err(1e-4)
    assert err3 < 0.2
    # exact roots here: strict decrease only demanded above the noise floor
    assert err4 < err3 or (err3 < 1e-9 and err4 < 1e-9)
    _report(
        f"criterion 4 (saddle split, |x/(2e/3)^0.5 - 1| = {err3:.2e} -> "
        f"{err4:.2e}): PASS"
    )


def test_criterion_5_center_split_figure_eight():
    fam = SPLITS["k3n3"]
    ver = analyze(fam, (0.0, 0.0), eps_scale=0.1).verification
    assert ver.verdict == "confirmed"
    assert set(ver.index_sums) == {1}
    for kinds, count in zip(ver.type_counts, ver.root_counts):
        if count == 3:
            assert sorted(kinds) == ["center", "center", "saddle"]
        else:
            assert list(kinds) == ["center"]

    h = 10 * np.sqrt(1e-3)
    sig = signature(fam.at_offset(-1e-3), (-h, -h, h, h))
    assert sorted(sig.nodes) == ["center", "center", "saddle"]
    saddle = sig.nodes.index("saddle")
    assert sig.edges == ((saddle, saddle, 2),)
    assert sig.loops == 2 and sig.index_total == 1
    _report("criterion 5 (center split with two homoclinic loops): PASS")


def test_criterion_6_branch_exponents_per_regime():
    measured = {}
    for name, fam in SPLITS.items():
        ver = analyze(fam, (0.0, 0.0), eps_scale=EPS_SCALE.get(name, 1.0)).verification
        assert ver.verdict == "confirmed", name

        _, _, pred = _prediction(fam)
        mags = [1e-2, 1e-3, 1e-4]
        xs = []
        for m in mags:
            eps = pred.eps_sign * m
            w = fam.at_offset(eps)
            h = 2.0 * pred.x_magnitude(eps)
            pts = find_singular_points(w, (-h, -h, h, h))
            assert len(pts) == 3, (name, m)
            xs.append(max(float(p.location[0]) for p in pts))
        slope = np.polyfit(np.log(mags), np.log(xs), 1)[0]
        want = EXPECTED_EXPONENT[name]
        assert abs(slope - want) / want <= 0.05, (name, slope)
        measured[name] = slope
    listing = ", ".join(f"{k}={v:.4f}" for k, v in sorted(measured.items()))
    _report(f"criterion 6 (branch exponents {listing}): PASS")


def _random_even_stream(g):
    """Stream function of an anti-symmetric divergence-free field."""
    terms = {(0, 2): float(g.uniform(0.5, 2.0) * g.choice([-1, 1]))}
    k = int(g.choice([3, 5]))
    n = int(g.choice([3, 5]))
    terms[(k, 1)] = float(g.uniform(0.5, 2.0) * g.choice([-1, 1]))
    terms[(n + 1, 0)] = float(g.uniform(0.5, 2.0) * g.choice([-1, 1]))
    for ij in [(2, 2), (1, 3), (0, 4), (2, 4), (4, 2), (1, 5), (0, 6)]:
        if g.uniform() < 0.4:
            terms[ij] = float(g.normal())
    return terms


def _random_even_x_stream(g):
    """Stream function of a field symmetric across the y-axis."""
    terms = {(0, 2): float(g.uniform(0.5, 2.0) * g.choice([-1, 1]))}
    k = int(g.choice([2, 4]))
    n = int(g.choice([3, 5]))
    terms[(k, 1)] = float(g.uniform(0.5, 2.0) * g.choice([-1, 1]))
    terms[(n + 1, 0)] = float(g.uniform(0.5, 2.0) * g.choice([-1, 1]))
    for ij in [(0, 3), (2, 2), (0, 4), (2, 3), (4, 1), (0, 5), (2, 4)]:
        if g.uniform() < 0.4:
            terms[ij] = float(g.normal())
    return terms


def test_criterion_7_symmetry_parity_of_contact_orders():
    g = np.random.default_rng(20260823)
    anti = refl = 0
    while anti < 200:
        f = PolyVectorField.from_stream(Poly2.from_terms(_random_even_stream(g)))
        assert f.check_antisymmetric()
        d = extract_degeneracy(f, (0.0, 0.0))
        assert d.case_label != "S1"
        assert d.k % 2 == 1 and d.n % 2 == 1, (d.k, d.n)
        anti += 1
    while refl < 200:
        f = PolyVectorField.from_stream(Poly2.from_terms(_random_even_x_stream(g)))
        assert f.check_reflectional()
        d = extract_degeneracy(f, (0.0, 0.0))
        assert d.k % 2 == 0 and d.n % 2 == 1, (d.k, d.n)
        refl += 1
    _report("criterion 7 (parity over 200 anti + 200 reflectional fields): PASS")


# criterion 8: one generic family per symmetry class, then single violations
ANTI_OK = TimeFamily(make_normal_form(1, 1, 1, 3, 3), field({}, {(1, 0): 1.0}))
REFL_OK = TimeFamily(make_normal_form(1, 1, 1, 2, 3), field({(0, 0): 1.0}, {}))
VIOLATIONS = [
    # anti class: break exactly one of k, n, nondegeneracy, lambda2
    (TimeFamily(make_normal_form(1, 1, 1, 5, 3), field({}, {(1, 0): 1.0})),
     "contact order k = 3"),
    (TimeFamily(make_normal_form(1, 1, 1, 3, 5), field({}, {(1, 0): 1.0})),
     "contact order n = 3"),
    (TimeFamily(make_normal_form(1, -3, 1, 3, 3), field({}, {(1, 0): 1.0})),
     "lam^2*k + alpha*beta != 0"),
    (TimeFamily(make_normal_form(1, 1, 1, 3, 3), field({}, {(3, 0): 1.0})),
     "lambda2 != 0"),
    # reflectional class
    (TimeFamily(make_normal_form(1, 1, 1, 4, 3), field({(0, 0): 1.0}, {})),
     "contact order k = 2"),
    (TimeFamily(make_normal_form(1, 1, 1, 2, 5), field({(0, 0): 1.0}, {})),
     "contact order n = 3"),
    (TimeFamily(make_normal_form(1, -2, 1, 2, 3), field({(0, 0): 1.0}, {})),
     "lam^2*k + alpha*beta != 0"),
    (TimeFamily(make_normal_form(1, 1, 1, 2, 3), field({(2, 0): 1.0}, {(1, 1): -2.0})),
     "2*lam*lambda1 + alpha*lambda2 != 0"),
]


def test_criterion_8_genericity_membership():
    rep = check_generic_membership(ANTI_OK, (0.0, 0.0))
    assert (rep.symmetry, rep.in_generic_subset) == ("anti", True)

    rep = check_generic_membership(REFL_OK, (0.0, 0.0))
    assert (rep.symmetry, rep.in_generic_subset) == ("reflectional", True)

    for fam, want in VIOLATIONS:
        rep = check_generic_membership(fam, (0.0, 0.0))
        assert not rep.in_generic_subset
        assert rep.failed_conditions == (want,), rep.failed_conditions
    _report("criterion 8 (genericity membership and single violations): PASS")


def _scaled(fam, a, b):
    return TimeFamily(fam.base * a, fam.accel * b, fam.t0)


def test_decision_is_amplitude_invariant():
    # the decisions ask whether coefficients vanish, which no amplitude changes
    amplitudes = (1e-14, 1e-7, 1.0, 1e7, 1e14)
    changed = []
    for path in sorted(GALLERY.glob("*.family")):
        fam = parse_field_file(path)
        answers = {}
        for a in amplitudes:
            for b in amplitudes:
                rep = analyze(_scaled(fam, a, b), (0.0, 0.0), run_verification=False)
                d = rep.degeneracy
                answers[a, b] = (rep.decision, rep.side, d.case_label, d.index)
        want = answers[1.0, 1.0]
        changed += [(path.stem, *ab, got) for ab, got in answers.items() if got != want]
    assert changed == []

    for fam in (ANTI_OK, REFL_OK, *(f for f, _ in VIOLATIONS)):
        want = check_generic_membership(fam, (0.0, 0.0))
        for a in (1e-14, 1e14):
            assert check_generic_membership(_scaled(fam, a, a), (0.0, 0.0)) == want, a
    _report("amplitude invariance (5 gallery families x 25 scalings, criterion 8): PASS")


def test_criterion_9_decision_matches_signature_change():
    families = {"persistent": PERSISTENT, **SPLITS}
    for name, fam in families.items():
        d, p, pred = None, None, None
        d = extract_degeneracy(fam.base, (0.0, 0.0))
        p = extract_perturbation(fam.accel, d.frame)
        decision = decide(d, p)
        pred = branch_asymptotics(d, p)
        h = 10.0 * pred.x_magnitude(1e-3)
        box = (-h, -h, h, h)
        sides = [
            signature(fam.at_offset(1e-3), box),
            signature(fam.at_offset(-1e-3), box),
        ]
        changed = not equivalent(*sides)
        assert changed == (decision != "no-bifurcation"), (name, decision)
    _report("criterion 9 (decision iff signature change, 6 families): PASS")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
