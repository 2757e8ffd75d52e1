import numpy as np
import pytest

from flowbif import (
    FlowbifError,
    PolyVectorField,
    classify_point,
    equivalent,
    integrate_streamline,
    separatrices,
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
    # Dormand-Prince: 6 new stages per accepted step when stage 7 (at the
    # accepted point) is reused as the next stage 1, 8 without the reuse
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


def test_graph_boundary_node():
    sig = signature(field(*SADDLE), BOX)
    g = sig.graph()
    assert set(g.nodes) == {0, "B"}
    assert g.nodes["B"]["kind"] == "boundary"
    assert g.number_of_edges(0, "B") == 4
