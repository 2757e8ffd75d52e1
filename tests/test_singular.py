import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbif import (
    BudgetExceededError,
    FlowbifError,
    Frame,
    NotSimpleError,
    Poly2,
    PolyVectorField,
    TimeFamily,
    classify_point,
    extract_degeneracy,
    find_singular_points,
    winding_index,
)
from flowbif import singular
from flowbif.singular import (
    CASE_INDEX,
    _cluster,
    _polish,
    case_label,
    make_normal_form,
)

from conftest import field
from newton_reference import Reference

BOX = (-1.0, -1.0, 1.0, 1.0)

CASE_PARAMS = {
    "S1": (1, 1, 1, 2, 2),
    "S2": (1, 1, 1, 3, 3),
    "S3": (1, -1, 1, 3, 3),
    "S4": (1, 1, 1, 2, 3),
    "S5": (1, -2, 1, 2, 3),
    "S6": (1, -3, 1, 2, 3),
    "S7": (1, 1, 1, 2, 5),
}


# ---------------------------------------------------------------------------
# case labelling


@pytest.mark.parametrize("label,params", sorted(CASE_PARAMS.items()))
def test_case_label_table(label, params):
    assert case_label(*params) == (label, CASE_INDEX[label])


def test_case_label_branches_exhaustive():
    # 2k > n+1 splits on parity of n and the sign of alpha*beta
    assert case_label(1, 1, 1, 3, 4)[0] == "S1"
    assert case_label(1, 1, 1, 4, 3)[0] == "S2"
    assert case_label(-1, 1, 1, 4, 3)[0] == "S3"
    # 2k = n+1 splits on lam^2*k + alpha*beta
    assert case_label(1, 1, 2, 3, 5)[0] == "S4"
    assert case_label(1, -12, 2, 3, 5)[0] == "S5"
    assert case_label(1, -13, 2, 3, 5)[0] == "S6"
    # 2k < n+1: always S7, whatever the sign of alpha*beta
    assert case_label(1, 1, 1, 3, 7)[0] == "S7"
    assert case_label(1, -1, 1, 3, 7)[0] == "S7"


@pytest.mark.parametrize("label,params", sorted(CASE_PARAMS.items()))
def test_extract_degeneracy_on_normal_forms(label, params):
    alpha, beta, lam, k, n = params
    d = extract_degeneracy(make_normal_form(*params), (0.0, 0.0))
    assert d.case_label == label
    assert (d.k, d.n) == (k, n)
    assert d.alpha * d.beta == pytest.approx(alpha * beta, rel=1e-9)
    assert d.index == CASE_INDEX[label]


@given(
    st.floats(0.0, 2 * np.pi),
    st.sampled_from(sorted(CASE_PARAMS)),
    st.floats(-0.5, 0.5),
    st.floats(-0.5, 0.5),
)
@settings(max_examples=40)
def test_case_label_rotation_invariant(theta, label, ox, oy):
    f = make_normal_form(*CASE_PARAMS[label])
    rotated = f.in_frame(Frame.rotation((0.0, 0.0), theta))
    d = extract_degeneracy(rotated, (0.0, 0.0))
    assert d.case_label == label
    assert (d.k, d.n) == CASE_PARAMS[label][3:]

    # rigid motion p -> o + R p moves the zero to o
    o = np.array([ox, oy])
    rot = Frame.rotation((0.0, 0.0), theta).rot
    moved = f.in_frame(Frame.rotation(-rot.T @ o, -theta))
    d = extract_degeneracy(moved, o)
    assert d.case_label == label
    assert (d.k, d.n) == CASE_PARAMS[label][3:]
    assert d.index == CASE_INDEX[label]
    assert classify_point(moved, o).kind == "degenerate"
    if label != "S5":
        assert winding_index(moved, o, 0.1).winding == CASE_INDEX[label]


def test_extract_degeneracy_off_origin():
    f = make_normal_form(1, 1, 1, 2, 3).in_frame(Frame((-0.4, 0.3), (1.0, 0.0), (0.0, 1.0)))
    d = extract_degeneracy(f, (0.4, -0.3))
    assert d.case_label == "S4"


def test_not_simple_rejected():
    # zero Jacobian at origin: all terms quadratic or higher
    f = field({(2, 0): 1.0}, {(1, 1): -2.0})
    with pytest.raises(NotSimpleError):
        extract_degeneracy(f, (0.0, 0.0))


@pytest.mark.parametrize("amp", [1e-5, 1e-200, 1e200])
def test_s4_label_does_not_depend_on_amplitude(amp):
    # every tolerance is relative to the field's amplitude; 1e-5 read S5 before
    f = make_normal_form(1, 1, 1, 2, 3) * amp
    assert extract_degeneracy(f, (0.0, 0.0)).case_label == "S4"
    pts = find_singular_points(f, BOX)
    assert [(p.kind, p.degeneracy.case_label) for p in pts] == [("degenerate", "S4")]


def test_source_is_not_a_center():
    # u = (x + 0.1, y): det J = 1 but trace 2, so neither a center nor a saddle
    f = field({(1, 0): 1.0, (0, 0): 0.1}, {(0, 1): 1.0})
    (pt,) = find_singular_points(f, BOX)
    assert pt.kind == "unresolved"
    assert "divergence-free" in pt.note
    assert np.allclose(pt.location, (-0.1, 0.0))


def test_classify_nondegenerate():
    assert classify_point(field({(1, 0): 1.0}, {(0, 1): -1.0}), (0, 0)).kind == "saddle"
    assert classify_point(field({(0, 1): -1.0}, {(1, 0): 1.0}), (0, 0)).kind == "center"
    pt = classify_point(make_normal_form(1, 1, 1, 2, 3), (0, 0))
    assert pt.kind == "degenerate"
    assert pt.degeneracy.case_label == "S4"


# ---------------------------------------------------------------------------
# newton polishing


def test_newton_polish_converges():
    f = field({(2, 0): 1.0, (0, 0): -1.0}, {(1, 1): -2.0})
    (p,), (residual,) = _polish(f, np.array([(1.2, 0.1)]))
    assert residual < 1e-13
    assert np.allclose(p, (1.0, 0.0), atol=1e-12)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _polish_scenes(g, degree):
    """(field, seeds) batches for one random stream function of degree + 1.

    The first field has an exact zero at the origin, the second an exactly
    singular Jacobian there (the least-squares step), the third is a
    degenerate normal form whose flat valley stalls Newton (slow rounds);
    seeds that converge to a simple zero end when the halvings run out.
    """
    psi = np.zeros((degree + 2, degree + 2))
    for i, j in np.ndindex(psi.shape):
        if i + j <= degree + 1:
            psi[i, j] = g.choice((-1.0, 1.0)) * 10.0 ** g.uniform(-1.0, 1.0)
    on_zero = psi.copy()
    on_zero[1, 0] = on_zero[0, 1] = 0.0
    singular = psi.copy()
    singular[1, 1] = singular[0, 2] = 0.0  # J(0) = [[0, 0], [-2 psi_20, 0]]
    k, n = int(g.integers(2, 4)), int(g.integers(2, 6))
    valley = make_normal_form(*g.choice((-1.0, 1.0), 3) * g.uniform(0.5, 2.0, 3), k, n)

    def seeds(half):
        return np.vstack([(0.0, 0.0), g.uniform(-half, half, (12, 2))])

    return [
        (PolyVectorField.from_stream(Poly2(on_zero)), seeds(1.0)),
        (PolyVectorField.from_stream(Poly2(singular)), seeds(1.0)),
        (valley, seeds(0.1)),
    ]


@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_lockstep_polish_is_bitwise_the_per_seed_reference(degree, seed):
    g = np.random.default_rng(seed)
    for f, seeds in _polish_scenes(g, degree):
        ref = Reference(f)
        want = [ref.polish(s)[:2] for s in seeds]
        x, r = _polish(f, seeds)
        for (px, pr), qx, qr in zip(want, x, r):
            assert (_bits(px) == _bits(qx)).all() and _bits(pr) == _bits(qr)
        # alone, or in another batch order, a seed gives the same bits
        order = g.permutation(len(seeds))
        xs, rs = _polish(f, seeds[order])
        assert (_bits(xs) == _bits(x[order])).all() and (_bits(rs) == _bits(r[order])).all()
        for s, qx, qr in zip(seeds, x, r):
            (px,), (pr,) = _polish(f, s[None, :])
            assert (_bits(px) == _bits(qx)).all() and _bits(pr) == _bits(qr)


def test_polish_scenes_take_every_exit():
    g = np.random.default_rng(7)
    exits, lstsq = set(), 0
    for degree in (2, 4):
        for f, seeds in _polish_scenes(g, degree):
            ref = Reference(f)
            exits |= {ref.polish(s)[2] for s in seeds}
            lstsq += ref.lstsq_steps
    assert {"zero", "halvings", "slow", "step"} <= exits
    assert lstsq > 0


# ---------------------------------------------------------------------------
# global search


def test_find_single_degenerate_point(s4_field):
    pts = find_singular_points(s4_field, BOX)
    assert len(pts) == 1
    assert pts[0].kind == "degenerate"
    assert pts[0].degeneracy.case_label == "S4"
    assert np.allclose(pts[0].location, 0.0, atol=1e-9)


def test_find_split_roots(s4_field, saddle_split_family):
    eps = 1e-4
    pts = find_singular_points(saddle_split_family.at_offset(eps), (-0.1, -0.1, 0.1, 0.1))
    assert [p.kind for p in pts] == ["saddle", "center", "saddle"]
    xs = sorted(float(p.location[0]) for p in pts)
    expect = np.sqrt(2 * eps / 3)
    assert xs[0] == pytest.approx(-expect, rel=2e-2)
    assert xs[2] == pytest.approx(expect, rel=2e-2)


def test_find_nothing_in_empty_box():
    f = field({(0, 0): 1.0}, {(0, 0): 2.0})
    assert find_singular_points(f, BOX) == []


def test_find_separated_zeros():
    # u = (y, 1 - x^2): saddle at (-1, 0), center at (1, 0)
    f = field({(0, 1): 1.0}, {(0, 0): 1.0, (2, 0): -1.0})
    pts = find_singular_points(f, (-2.0, -1.0, 2.0, 1.0))
    assert [p.kind for p in pts] == ["saddle", "center"]
    assert np.allclose([p.location[0] for p in pts], [-1.0, 1.0], atol=1e-10)


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(singular, "_MAX_CELLS", 8)
    with pytest.raises(BudgetExceededError):
        find_singular_points(make_normal_form(1, 1, 1, 2, 3), BOX)


def test_search_rejects_non_finite_boxes():
    f = make_normal_form(1, 1, 1, 2, 3)
    with pytest.raises(ValueError, match="finite"):
        find_singular_points(f, (0.0, 0.0, np.inf, 1.0))
    # finite corners, but the field's expansion on the cells overflows
    with pytest.raises(FlowbifError, match="field is not finite on the box"):
        find_singular_points(f, (-1.0, -1.0, 1.0, 1e308))


@pytest.mark.parametrize("box", [(-0.3, -0.3, 0.3, 0.3), (-0.9, -0.2, 0.3, 0.6)])
def test_search_finds_zeros_on_cell_edges_and_corners(box):
    # the k3n7 rung's saddle sits exactly at the origin: the corner of four cells
    # at every depth of the symmetric box, and corner (24, 8) of the depth-5 grid
    # of the other; rounded cell centres leave gaps of about 1e-17 around it
    fam = TimeFamily(make_normal_form(1, 1, 1, 3, 7), field({}, {(1, 0): 1.0}))
    pts = find_singular_points(fam.at_offset(-1e-3), box)
    assert [(p.kind, tuple(p.location.tolist())) for p in pts] == [("saddle", (0.0, 0.0))]


def _exact_bernstein(coef, x0, y0, w):
    """Bernstein coefficients of the polynomial on [x0, x0 + w] x [y0, y0 + w], exactly.

    Degrees are those of ``coef``'s shape; the cell is mapped to [0, 1]^2.
    """
    c = [[Fraction(v) for v in row] for row in coef.tolist()]
    x0, y0, w = Fraction(x0), Fraction(y0), Fraction(w)
    dx, dy = len(c) - 1, len(c[0]) - 1
    # monomial coefficients a[k][l] of p(x0 + w s, y0 + w t)
    rows = [[sum(c[i][j] * comb(i, k) * x0 ** (i - k) * w**k for i in range(k, dx + 1))
             for j in range(dy + 1)] for k in range(dx + 1)]
    a = [[sum(r[j] * comb(j, l) * y0 ** (j - l) * w**l for j in range(l, dy + 1))
          for l in range(dy + 1)] for r in rows]
    return [
        sum(
            Fraction(comb(m, k) * comb(n, l), comb(dx, k) * comb(dy, l)) * a[k][l]
            for k in range(m + 1)
            for l in range(n + 1)
        )
        for m in range(dx + 1)
        for n in range(dy + 1)
    ]


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda ij: sum(ij) <= 6),
        st.integers(-64, 64),
        min_size=1,
        max_size=8,
    ),
    st.integers(-64, 64),
    st.integers(-64, 64),
    st.integers(0, 12),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_exclusion_drops_only_cells_of_one_strict_bernstein_sign(terms, mx, my, q, vanish):
    # dyadic coefficients k/64, a point (mx, my)/32 and 3 x 3 cells of width 2^-q
    # around it; with ``vanish`` the point is an exact zero and a corner of 4 cells
    px, py, w = mx / 32, my / 32, 2.0**-q
    coef = {ij: k / 64 for ij, k in terms.items()}
    if vanish:
        at = sum(Fraction(c) * Fraction(px) ** i * Fraction(py) ** j for (i, j), c in coef.items())
        coef[(0, 0)] = float(Fraction(coef.get((0, 0), 0.0)) - at)  # exact: few bits
    p = Poly2.from_terms(coef)
    corners = [(px + a * w, py + b * w) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    cx = np.array([x + w / 2 for x, _ in corners])
    cy = np.array([y + w / 2 for _, y in corners])
    live = singular._may_vanish(PolyVectorField(p, Poly2.zero()), cx, cy, w / 2, w / 2)
    for (x0, y0), kept in zip(corners, live):
        b = _exact_bernstein(p.coef, x0, y0, w)
        one_sign = all(v > 0 for v in b) or all(v < 0 for v in b)
        if not kept:
            assert one_sign, (x0, y0)
        # and not vacuous: the margin is below 2^-40 S at degree 6
        s = sum(abs(Fraction(c)) * (abs(Fraction(x0)) + Fraction(w)) ** i
                * (abs(Fraction(y0)) + Fraction(w)) ** j for (i, j), c in coef.items())
        if one_sign and min(abs(v) for v in b) > s / 2**40:
            assert not kept, (x0, y0)


def test_cluster_radius_merges_near_roots(saddle_split_family):
    # at tiny eps the three roots straddle the dedup radius
    w = saddle_split_family.at_offset(1e-14)
    pts = find_singular_points(w, (-0.01, -0.01, 0.01, 0.01))
    assert len(pts) == 1  # merged: separation ~8e-8 < cluster radius



@pytest.mark.parametrize("cells", [2, 3, 6, 40, 80])
def test_search_resolves_close_pairs(cells):
    # u = (y, x^2 - d^2): a center at (-d, 0) and a saddle at (d, 0), 2d apart,
    # with the separation counted in finest search cells of [-1, 1]^2; at
    # (-0.31, 0.27) unturned, one coarse cell holds both zeros (winding 0)
    d = cells * (2.0 / 2**14) / 2
    pair = field({(0, 1): 1.0}, {(2, 0): 1.0, (0, 0): -d * d})
    for theta in (0.0, np.pi / 4):
        rot = Frame.rotation((0.0, 0.0), theta).rot
        for o in ((3.7e-5, -2.1e-5), (0.123, 0.456), (-0.31, 0.27)):
            moved = pair.in_frame(Frame.rotation(-rot.T @ np.array(o), -theta))
            kinds = sorted(p.kind for p in find_singular_points(moved, BOX))
            assert kinds == ["center", "saddle"], (cells, theta, o)


def _moved(label, theta, ox, oy, exponent):
    """10**exponent * R f(R^T (p - o)) for the normal form of ``label``: its zero moves to o."""
    rot = Frame.rotation((0.0, 0.0), theta).rot
    o = np.array([ox, oy])
    f = make_normal_form(*CASE_PARAMS[label])
    return f.in_frame(Frame.rotation(-rot.T @ o, -theta)) * 10.0**exponent, o


@given(
    st.sampled_from(sorted(CASE_PARAMS)),
    st.floats(0.0, 2 * np.pi),
    st.floats(-0.5, 0.5),
    st.floats(-0.5, 0.5),
    st.floats(-6.0, 6.0),
)
@settings(max_examples=12, deadline=None)
def test_search_invariant_under_rigid_motion_and_scale(label, theta, ox, oy, exponent):
    f, o = _moved(label, theta, ox, oy, exponent)
    if label == "S5":
        pt = classify_point(f, o)
        assert pt.kind == "unresolved" or pt.degeneracy.case_label == "S5"
        return
    box = (ox - 0.5, oy - 0.5, ox + 0.5, oy + 0.5)
    near = [p for p in find_singular_points(f, box) if np.hypot(*(p.location - o)) <= 0.3]
    assert len(near) == 1
    (pt,) = near
    assert pt.kind == "degenerate"
    d = pt.degeneracy
    assert (d.case_label, d.k, d.n) == (label, *CASE_PARAMS[label][3:])
    assert pt.index == CASE_INDEX[label] == winding_index(f, pt.location, 0.1).winding


# ---------------------------------------------------------------------------
# candidate clustering


def _linked(p, q, radius):
    return float(np.hypot(*(p - q))) <= radius


def _union_find_partition(cands, radius):
    """All-pairs single linkage by union-find: the reference partition."""
    parent = list(range(len(cands)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(cands)):
        for j in range(i):
            if _linked(cands[i][0], cands[j][0], radius):
                parent[find(i)] = find(j)
    groups: dict[int, set[int]] = {}
    for i in range(len(cands)):
        groups.setdefault(find(i), set()).add(i)
    return sorted(sorted(g) for g in groups.values())


def _pairwise_member_ids(cands, radius):
    """All-pairs linkage, each merge into the oldest hit cluster: the reference member order."""
    clusters = []
    for c in sorted(cands, key=lambda c: (c[0][0], c[0][1], c[1])):
        hits = [cl for cl in clusters if any(_linked(c[0], q, radius) for q, _ in cl)]
        if not hits:
            clusters.append([c])
            continue
        hits[0].append(c)
        for other in hits[1:]:
            hits[0].extend(other)
        clusters = [cl for cl in clusters if not any(cl is o for o in hits[1:])]
    return [[id(c[0]) for c in cl] for cl in clusters]


def _chain(start, theta, spacing, m):
    step = spacing * np.array([np.cos(theta), np.sin(theta)])
    return [start + k * step for k in range(m)]


@st.composite
def _candidate_scenes(draw):
    """Blobs, chains, pairs at exactly the radius, shared x, tied residuals."""
    radius = draw(st.sampled_from([2.0**-20, 2.0**-10, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([3.0, 30.0])) * radius
    residuals = [0.0, 1e-12, 1e-11]
    pts = []
    for _ in range(draw(st.integers(1, 6))):  # dense blobs
        sigma = radius * draw(st.sampled_from([1e-2, 0.3, 1.0]))
        centre = rng.uniform(-spread, spread, 2)
        pts += list(centre + sigma * rng.standard_normal((draw(st.integers(1, 30)), 2)))
    # chains that run mostly along x, across many 2*radius windows
    theta = draw(st.floats(-0.3, 0.3))
    near = _chain(rng.uniform(-spread, spread, 2), theta, 0.99 * radius, 40)
    far = _chain(rng.uniform(-spread, spread, 2), theta, 1.01 * radius, 40)
    # a pair exactly one radius apart in x, and a column of equal x
    x, y = (float(v) for v in np.round(rng.uniform(-spread, spread, 2) / radius))
    exact = [np.array([x * radius, y * radius]), np.array([(x + 1) * radius, y * radius])]
    column = [np.array([x * radius, (y + k) * radius]) for k in range(-2, 3)]
    pts += near + far + exact + column + [np.array([0.0, 0.0]), np.array([-0.0, 0.0])]
    cands = [(p, residuals[int(rng.integers(3))]) for p in pts]
    rng.shuffle(cands)
    return cands, radius, near, far, exact


@given(_candidate_scenes())
@settings(max_examples=60)
def test_cluster_matches_all_pairs_single_linkage(scene):
    cands, radius, near, far, exact = scene
    clusters = _cluster(cands, radius)
    index = {id(p): i for i, (p, _) in enumerate(cands)}
    found = sorted(sorted(index[id(p)] for p, _ in cl) for cl in clusters)
    assert found == _union_find_partition(cands, radius)
    # the same member order as the loop it replaced, so ties pick the same point
    assert [[id(p) for p, _ in cl] for cl in clusters] == _pairwise_member_ids(cands, radius)

    assert len(_cluster([(p, 0.0) for p in near], radius)) == 1
    assert len(_cluster([(p, 0.0) for p in far], radius)) == len(far)
    assert len(_cluster([(p, 0.0) for p in exact], radius)) == 1  # inclusive


def test_cluster_merges_behind_an_equal_sized_cluster():
    # s links q and r; the older singleton p has r's size, and removing r by
    # list equality compared p's and r's arrays and raised ValueError
    r = 1e-6
    xy = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.6 * r), (1.0 + 0.5 * r, 0.8 * r))
    p, q, rr, s = (np.array(v) for v in xy)
    clusters = _cluster([(pt, 0.0) for pt in (p, q, rr, s)], r)
    assert [[id(pt) for pt, _ in cl] for cl in clusters] == [[id(p)], [id(q), id(s), id(rr)]]


def test_cluster_work_is_not_quadratic():
    # 6,000 candidates in four tight blobs; an all-pairs loop takes tens of seconds
    rng = np.random.default_rng(0)
    cands = [
        (np.array([1e-3 * b, 0.0]) + 1e-8 * rng.standard_normal(2), 1e-12)
        for b in range(4)
        for _ in range(1500)
    ]
    t0 = time.perf_counter()
    clusters = _cluster(cands, 1e-6)
    assert time.perf_counter() - t0 < 2.0
    assert sorted(len(cl) for cl in clusters) == [1500] * 4


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_found_points_have_small_residual(seed):
    g = np.random.default_rng(seed)
    coef = {
        (i, j): float(c)
        for (i, j), c in np.ndenumerate(g.normal(size=(3, 3)))
    }
    f = PolyVectorField.from_stream(Poly2.from_terms(coef))
    scale = max(1.0, f.u.max_abs_coef(), f.v.max_abs_coef())
    for pt in find_singular_points(f, BOX):
        assert np.hypot(*f(pt.location)) <= 1e-8 * scale
