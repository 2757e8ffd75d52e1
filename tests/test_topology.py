import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowbif import (
    FlowbifError,
    Poly2,
    PolyVectorField,
    TimeFamily,
    TopologySignature,
    branch_asymptotics,
    classify_point,
    decide,
    equivalent,
    extract_degeneracy,
    extract_perturbation,
    integrate_streamline,
    separatrices,
    separatrix_portrait,
    signature,
)
from flowbif.singular import make_normal_form

from conftest import field

BOX = (-1.0, -1.0, 1.0, 1.0)
SADDLE = {(1, 0): 1.0}, {(0, 1): -1.0}
CENTER = {(0, 1): -1.0}, {(1, 0): 1.0}


# ---------------------------------------------------------------------------
# orbit integration


def test_center_orbit_closes():
    orbit = integrate_streamline(field(*CENTER), (0.5, 0.0), BOX)
    assert orbit.end_kind == "closed"
    radii = np.hypot(orbit.points[:, 0], orbit.points[:, 1])
    assert np.max(np.abs(radii - 0.5)) < 1e-5
    assert np.hypot(*(orbit.points[-1] - orbit.points[0])) < 1e-4


def test_saddle_orbit_exits_box():
    orbit = integrate_streamline(field(*SADDLE), (0.1, 0.4), BOX)
    assert orbit.end_kind == "box-exit"
    last = orbit.points[-1]
    assert np.isclose(np.max(np.abs(last)), 1.0, atol=1e-9)
    # xy is conserved along orbits of (x, -y); the clipped endpoint is
    # linearly interpolated, so it gets a looser bound
    prods = orbit.points[:, 0] * orbit.points[:, 1]
    assert np.max(np.abs(prods[:-1] - 0.04)) < 1e-6
    assert abs(prods[-1] - 0.04) < 1e-3


def test_orbit_ends_at_node_capture():
    nodes = [np.array([0.0, 0.0])]
    orbit = integrate_streamline(field(*SADDLE), (0.0, 0.7), BOX, nodes=nodes)
    assert orbit.end_kind == "node:0"


def test_slow_approach_to_degenerate_zero_is_captured():
    # on the psi = 0 parabola of S4 the speed falls like distance^2, so it
    # drops below the capture speed far outside the attribution ball
    a = np.sqrt(1.5) - 1.0
    f = make_normal_form(1, 1, 1, 2, 3)
    orbit = integrate_streamline(f, (-0.5, a * 0.25), BOX, nodes=[(0.0, 0.0)])
    assert orbit.end_kind == "node:0"
    assert orbit.flags == ()


def test_backward_orbit_is_flow_aligned():
    orbit = integrate_streamline(field(*SADDLE), (0.1, 0.4), BOX, backward=True)
    # stored with the flow: the seed is now the final vertex
    assert orbit.end_kind == "seed"
    assert np.allclose(orbit.points[-1], (0.1, 0.4))


def test_orbit_segments_tangent_to_field():
    f = field({(0, 1): 1.0, (2, 0): 1.0}, {(3, 0): 1.0, (1, 1): -2.0})
    orbit = integrate_streamline(f, (0.3, 0.2), BOX)
    pts = orbit.points
    worst = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        seg = b - a
        L = np.hypot(*seg)
        if L < 1e-12:
            continue
        vec = f((a + b) / 2.0)
        s = float(np.hypot(*vec))
        if s == 0.0:
            continue
        cosang = float(seg @ vec) / (L * s)
        worst = max(worst, np.degrees(np.arccos(np.clip(cosang, -1, 1))))
    assert worst < 5.0


def test_step_never_jumps_a_known_node():
    # on the S4 normal form psi = 0 on the parabola y = a x^2, and the flow
    # runs along +x on both sides of the zero, so a long step would carry the
    # orbit across the zero and on to the box edge
    f = make_normal_form(1, 1, 1, 2, 3)
    a = np.sqrt(1.5) - 1.0
    for x in np.linspace(-1.9, -0.1, 19):
        orbit = integrate_streamline(f, (x, a * x * x), (-2, -2, 2, 2), nodes=[(0.0, 0.0)])
        assert orbit.end_kind != "box-exit", x
        last = orbit.points[-1]
        assert last[0] < 0.0 and np.hypot(*last) < 0.05


def test_seed_must_lie_in_box():
    f = field(*SADDLE)
    with pytest.raises(FlowbifError, match="outside the box"):
        integrate_streamline(f, (5.0, 5.0), BOX)
    # the closed box: a seed on the boundary is allowed
    orbit = integrate_streamline(f, (1.0, 0.5), BOX)
    assert orbit.end_kind == "box-exit"
    assert np.allclose(orbit.points[0], (1.0, 0.5))


def test_seed_on_zero_is_an_error():
    with pytest.raises(FlowbifError, match="singular point"):
        integrate_streamline(field(*SADDLE), (0.0, 0.0), BOX)


def test_each_accepted_point_evaluated_once(monkeypatch):
    # the field at an accepted point is the corrector's last evaluation and
    # gives the next predictor direction; it is not evaluated again
    calls = []
    call = PolyVectorField.__call__

    def counted(self, p):
        calls.append(1)
        return call(self, p)

    monkeypatch.setattr(PolyVectorField, "__call__", counted)
    f = make_normal_form(1, 1, 1, 2, 3)
    orbit = integrate_streamline(f, (0.3, 0.2), BOX)
    assert len(orbit.points) > 10
    assert len(calls) < 7 * len(orbit.points)


# u = (x + 0.1, y): a source, so no stream function exists
SOURCE = {(1, 0): 1.0, (0, 0): 0.1}, {(0, 1): 1.0}


def test_field_without_stream_function_is_refused():
    f = field(*SOURCE)
    with pytest.raises(FlowbifError, match="not divergence-free"):
        integrate_streamline(f, (0.3, 0.2), BOX)
    with pytest.raises(FlowbifError, match=r"violation 2 at monomial x\^0 y\^0"):
        signature(f, BOX)


@pytest.mark.parametrize("scale", [1e6, 1e-6])
def test_refusal_is_scale_free(scale):
    orbit = integrate_streamline(make_normal_form(1, 1, 1, 2, 3) * scale, (0.3, 0.2), BOX)
    assert orbit.end_kind == "box-exit"


@st.composite
def stream_fields(draw):
    """A random stream function of degree <= 5 and a seed away from zeros."""
    deg = draw(st.integers(1, 5))
    coef = np.zeros((deg + 1, deg + 1))
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            if i + j:  # a constant would only add rounding to psi's values
                coef[i, j] = draw(st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 1e-6 or not c))
    psi = Poly2(coef)
    f = PolyVectorField.from_stream(psi)
    seed = np.array([draw(st.floats(-0.95, 0.95)) for _ in range(2)])
    grid = np.linspace(-1.0, 1.0, 25)
    X, Y = np.meshgrid(grid, grid)
    U, V = f.evaluate_many(X, Y)
    assume(np.hypot(*f(seed)) > 1e-2 * np.max(np.hypot(U, V)))
    return psi, f, seed, float(np.ptp(psi(X, Y)))


@given(stream_fields(), st.booleans())
@settings(max_examples=60)
def test_orbit_stays_on_its_stream_function_level(drawn, backward):
    psi, f, seed, psi_range = drawn
    orbit = integrate_streamline(f, seed, BOX, backward=backward)
    drift = np.abs(psi(orbit.points[:, 0], orbit.points[:, 1]) - psi(*seed))
    # the box-exit vertex is clipped by linear interpolation
    exits = [i for i, kind in ((0, orbit.start_kind), (-1, orbit.end_kind)) if kind == "box-exit"]
    assert np.max(np.delete(drift, exits)) <= 1e-9 * psi_range
    assert np.max(drift) <= 1e-3 * psi_range


# ---------------------------------------------------------------------------
# separatrices


def test_saddle_has_four_alternating_separatrices():
    f = field(*SADDLE)
    pt = classify_point(f, (0.0, 0.0))
    orbits = separatrices(f, pt, BOX, nodes=[pt.location], self_index=0)
    assert len(orbits) == 4
    # flow-aligned: the unstable pair starts at the saddle, the stable pair
    # ends there, and all four leave through the box boundary
    starts = sorted(o.start_kind for o in orbits)
    ends = sorted(o.end_kind for o in orbits)
    assert starts == ["box-exit", "box-exit", "node:0", "node:0"]
    assert ends == ["box-exit", "box-exit", "node:0", "node:0"]
    for o in orbits:
        assert (o.start_kind == "node:0") != (o.end_kind == "node:0")


def test_separatrices_reject_center():
    f = field(*CENTER)
    with pytest.raises(ValueError):
        separatrices(f, classify_point(f, (0.0, 0.0)), BOX)


# ---------------------------------------------------------------------------
# signatures


def test_single_saddle_signature():
    sig = signature(field(*SADDLE), BOX)
    assert sig.nodes == ("saddle",)
    assert sig.edges == ((0, "B", 4),)
    assert sig.loops == 0
    assert sig.index_total == -1
    assert sig.flags == ()


def test_single_center_signature():
    sig = signature(field(*CENTER), BOX)
    assert sig.nodes == ("center",)
    assert sig.edges == ()
    assert sig.loops == 1
    assert sig.index_total == 1


def test_saddle_split_signatures_inequivalent(saddle_split_family):
    box = (-0.3, -0.3, 0.3, 0.3)
    three = signature(saddle_split_family.at_offset(1e-2), box)
    one = signature(saddle_split_family.at_offset(-1e-2), box)
    assert three.nodes == ("saddle", "center", "saddle")
    assert (0, 2, 2) in three.edges  # the two saddles share two connections
    assert one.nodes == ("saddle",)
    assert not equivalent(three, one)
    assert three.index_total == one.index_total == -1


def test_figure_eight_signature(center_split_family):
    h = 10 * np.sqrt(1e-3)
    sig = signature(center_split_family.at_offset(-1e-3), (-h, -h, h, h))
    assert sorted(sig.nodes) == ["center", "center", "saddle"]
    saddle = sig.nodes.index("saddle")
    assert sig.edges == ((saddle, saddle, 2),)  # two homoclinic loops
    assert sig.loops == 2
    assert sig.index_total == 1


def test_rotation_preserves_signature(saddle_split_family):
    from flowbif import Frame

    box = (-0.3, -0.3, 0.3, 0.3)
    w = saddle_split_family.at_offset(1e-2)
    rotated = w.in_frame(Frame.rotation((0.0, 0.0), 0.9))
    assert equivalent(signature(w, box), signature(rotated, box))


def test_no_bifurcation_signatures_equivalent(persistent_family):
    box = (-0.2, -0.2, 0.2, 0.2)
    a = signature(persistent_family.at_offset(1e-3), box)
    b = signature(persistent_family.at_offset(-1e-3), box)
    assert equivalent(a, b)


def test_homoclinic_orbit_closes(center_split_family):
    w = center_split_family.at_offset(-1e-3)
    orbit = integrate_streamline(
        w, (0.02, 0.0), (-0.4, -0.4, 0.4, 0.4), nodes=[np.array([0.0, 0.0])]
    )
    assert orbit.end_kind == "closed"


def test_k3n7_portrait_work():
    # criterion 9's k3n7 family: |u| is far below a gradient bound times the
    # distance near its flat saddles, so steps sized by such a bound are tiny
    fam = TimeFamily(make_normal_form(1, 1, 1, 3, 7), field({}, {(1, 0): 1.0}))
    d = extract_degeneracy(fam.base, (0.0, 0.0))
    p = extract_perturbation(fam.accel, d.frame)
    h = 10.0 * branch_asymptotics(d, p).x_magnitude(1e-3)
    box = (-h, -h, h, h)
    sig, _, orbits = separatrix_portrait(fam.at_offset(-1e-3), box)
    assert sum(len(o.points) for o in orbits) < 2000
    assert sig.nodes == ("saddle",) and sig.edges == ((0, "B", 4),)
    other = signature(fam.at_offset(1e-3), box)
    assert decide(d, p) != "no-bifurcation"
    assert not equivalent(sig, other)


def test_graph_boundary_node():
    sig = signature(field(*SADDLE), BOX)
    assert sig.nodes == ("saddle",)
    assert sig.edges == ((0, "B", 4),)


# ---------------------------------------------------------------------------
# signature equivalence

KINDS = ("saddle", "center", "degenerate", "unresolved")


def sig(nodes, edges):
    return TopologySignature(tuple(nodes), tuple(edges), 0, None)


# two saddles joined twice, each also meeting the boundary twice, and a center
TWO_SADDLES = sig(("saddle", "saddle", "center"), ((0, 1, 2), (0, "B", 2), (1, "B", 2)))


@st.composite
def signatures(draw):
    n = draw(st.integers(0, 5))
    nodes = tuple(draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n)))
    end = st.sampled_from([*range(n), "B"])
    edges = draw(st.lists(st.tuples(end, end, st.integers(1, 3)), max_size=6))
    return TopologySignature(nodes, tuple(edges), 0, None)


def relabel(sig, perm, flip):
    """The same graph with node i renamed perm[i] and edge ends maybe swapped."""
    m = {**dict(enumerate(perm)), "B": "B"}
    nodes = [""] * len(sig.nodes)
    for i, kind in enumerate(sig.nodes):
        nodes[perm[i]] = kind
    edges = tuple(
        (m[b], m[a], c) if flip else (m[a], m[b], c) for a, b, c in sig.edges
    )
    return TopologySignature(tuple(nodes), edges[::-1], sig.loops, sig.index_total)


def nx_graph(nx, sig):
    g = nx.MultiGraph()
    for i, kind in enumerate(sig.nodes):
        g.add_node(i, kind=kind)
    g.add_node("B", kind="boundary")
    for a, b, mult in sig.edges:
        g.add_edges_from([(a, b)] * mult)
    return g


@given(signatures(), signatures(), st.data())
@settings(max_examples=300)
def test_equivalent_agrees_with_networkx(a, other, data):
    nx = pytest.importorskip("networkx")
    match = nx.algorithms.isomorphism.categorical_node_match("kind", None)
    perm = data.draw(st.permutations(range(len(a.nodes))))
    b = relabel(a, perm, data.draw(st.booleans()))
    assert equivalent(a, b)
    # same kinds and multiplicities as b, rearranged: only the matcher can tell
    kinds = data.draw(st.permutations(b.nodes))
    mults = data.draw(st.permutations([m for _, _, m in b.edges]))
    rearranged = sig(kinds, [(x, y, m) for (x, y, _), m in zip(b.edges, mults)])
    for c in (b, other, rearranged):
        assert equivalent(a, c) == nx.is_isomorphic(
            nx_graph(nx, a), nx_graph(nx, c), node_match=match
        )


@pytest.mark.parametrize(
    "a, b",
    [
        # a changed multiplicity
        (TWO_SADDLES, sig(TWO_SADDLES.nodes, ((0, 1, 3), (0, "B", 2), (1, "B", 2)))),
        # a swapped kind: the center carries saddle 1's edges
        (TWO_SADDLES, sig(("saddle", "center", "saddle"), TWO_SADDLES.edges)),
        # a boundary edge turned into a saddle-saddle edge
        (
            TWO_SADDLES,
            sig(TWO_SADDLES.nodes, ((0, 1, 2), (0, "B", 2), (1, "B", 1), (0, 1, 1))),
        ),
        # equal kind and multiplicity multisets, arranged differently
        (
            sig(("saddle", "center"), ((0, "B", 1), (1, "B", 2))),
            sig(("saddle", "center"), ((0, "B", 2), (1, "B", 1))),
        ),
        (
            sig(("saddle",) * 3, ((0, 1, 1), (1, 2, 2), (0, "B", 1))),
            sig(("saddle",) * 3, ((0, 1, 2), (1, 2, 1), (0, "B", 1))),
        ),
    ],
)
def test_equivalent_rejects(a, b):
    assert equivalent(a, a) and equivalent(b, b)
    assert not equivalent(a, b)


def test_equivalent_ignores_isolated_centers():
    # isolated nodes are never permuted, so 20 centers cost nothing
    a = TopologySignature(("saddle",) + ("center",) * 20, ((0, "B", 4),), 20, 1)
    b = TopologySignature(
        ("center",) * 10 + ("saddle",) + ("center",) * 10, ((10, "B", 4),), 20, 1
    )
    t0 = time.perf_counter()
    assert equivalent(a, b)
    assert not equivalent(a, TopologySignature(b.nodes, ((10, "B", 3),), 20, 1))
    assert time.perf_counter() - t0 < 1.0


def test_import_leaves_networkx_out():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import flowbif, sys; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
