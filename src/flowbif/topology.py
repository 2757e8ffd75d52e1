"""Streamline topology around singular points.

Orbits of a divergence-free field are traced with an adaptive
Dormand-Prince 4(5) integrator on the arc-length-normalized dynamics
dx/ds = u/|u|.  A dynamic step cap of 0.5*|u|/Lambda (Lambda a gradient
bound over the box) keeps steps from overshooting singular points, so a
drop of |u| below the capture threshold is always observed.  The 7th
stage of a step is evaluated at the accepted point and is reused as the
next step's 1st (first same as last), so each accepted point has its
field computed once.  The local structure is summarized as a graph:
saddle nodes, center nodes, a boundary node, and separatrix edges; two
fields are topologically equivalent here when those graphs are
isomorphic respecting node kinds and edge multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurveZeroError, FlowbifError, StepLimitError
from .field import PolyVectorField
from .singular import DEFAULT_SEARCH, SearchOptions, SingularPoint, find_singular_points
from .winding import index_sum

# Dormand-Prince 4(5) tableau; row 7 equals the 5th-order weights, so the
# 7th stage is evaluated at the accepted point.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = _DP_A[6] + (0.0,)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


# Tolerances, as fractions of the box size L / peak field magnitude.
_ERR_TOL = 1e-9  # local truncation error per step (x max(1, L))
_MAX_STEP_FRAC = 0.02
_CAPTURE_SPEED_FRAC = 1e-5  # |u| below this x peak => capture
_CAPTURE_RADIUS_FRAC = 1e-5  # node attribution / near-miss radius
_CLOSURE_FRAC = 1e-6
_DELTA_FRAC = 1e-6  # separatrix launch offset
_MAX_STEPS = 100_000


@dataclass(frozen=True)
class Orbit:
    """A traced streamline, stored flow-aligned.

    start_kind / end_kind: "seed", "node:<i>", "box-exit", "closed", or
    "stalled".  Backward-integrated orbits are reversed before storage, so
    the polyline always runs with the flow.
    """

    points: np.ndarray
    start_kind: str
    end_kind: str
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Scales:
    L: float
    max_step: float
    err_abs: float
    capture_speed: float
    capture_radius: float
    closure_tol: float
    delta: float
    lam: float


def _scales(field: PolyVectorField, box) -> _Scales:
    x0, y0, x1, y1 = (float(b) for b in box)
    L = max(x1 - x0, y1 - y0)
    xs = np.linspace(x0, x1, 25)
    ys = np.linspace(y0, y1, 25)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    U, V = field.evaluate_many(X, Y)
    peak = float(np.max(np.hypot(U, V)))
    peak = max(peak, 1e-300)
    half = max(abs(x0), abs(x1), abs(y0), abs(y1), 1e-12)
    bu, bv = field.gradient_bound(half)
    lam = max(float(np.hypot(bu, bv)), 1e-300)
    return _Scales(
        L=L,
        max_step=_MAX_STEP_FRAC * L,
        err_abs=_ERR_TOL * max(1.0, L),
        capture_speed=_CAPTURE_SPEED_FRAC * peak,
        capture_radius=_CAPTURE_RADIUS_FRAC * L,
        closure_tol=_CLOSURE_FRAC * L,
        delta=_DELTA_FRAC * L,
        lam=lam,
    )


def _seg_point_dist(a: np.ndarray, b: np.ndarray, p) -> tuple[float, float]:
    """(distance, t) from point p to segment a + t*(b-a), t clipped to [0,1]."""
    d = b - a
    dd = float(d @ d)
    if dd == 0.0:
        return float(np.hypot(*(p - a))), 0.0
    t = float(np.clip((p - a) @ d / dd, 0.0, 1.0))
    q = a + t * d
    return float(np.hypot(*(p - q))), t


def _clip_to_box(a: np.ndarray, b: np.ndarray, box) -> np.ndarray:
    """First intersection of segment a->b with the box boundary (b outside)."""
    x0, y0, x1, y1 = box
    t_best = 1.0
    d = b - a
    for lo, hi, i in ((x0, x1, 0), (y0, y1, 1)):
        if d[i] != 0.0:
            for edge in (lo, hi):
                t = (edge - a[i]) / d[i]
                if 0.0 <= t < t_best:
                    q = a + t * d
                    j = 1 - i
                    if (x0, y0)[j] - 1e-12 <= q[j] <= (x1, y1)[j] + 1e-12:
                        t_best = t
    return a + t_best * d


def _trace(field, box, sc, nodes, seed, sign) -> tuple[np.ndarray, str, tuple[str, ...]]:
    """Integrate dx/ds = sign*u/|u| from seed.

    Returns the points in integration order, the end kind and the flags.
    """

    def rhs(p):
        u = field(p)
        speed = float(np.hypot(*u))
        if speed < 1e-300:
            return None, 0.0
        return sign * u / speed, speed

    box = tuple(float(b) for b in box)
    x0b, y0b, x1b, y1b = box
    nodes = [np.asarray(n, dtype=float) for n in nodes]
    x = np.asarray(seed, dtype=float).reshape(2).copy()
    k1, speed = rhs(x)
    if k1 is None:
        raise FlowbifError("seed lies on a singular point")
    pts = [x]
    flags: set[str] = set()
    start, start_dir = x, k1
    armed_speed = speed >= 2.0 * sc.capture_speed
    closure_armed = False
    near_nodes: set[int] = set()
    left_ball = [False] * len(nodes)
    h = sc.max_step
    end = "stalled"
    for _ in range(_MAX_STEPS):
        h = min(h, sc.max_step, 0.5 * speed / sc.lam)
        if h < 1e-15 * sc.L:
            flags.add("step-floor")
            break
        # stage 1 is the previous step's stage 7, evaluated at x
        ks = [k1]
        for row in _DP_A[1:]:
            xi = x + h * sum(a * k for a, k in zip(row, ks) if a != 0.0)
            ki, si = rhs(xi)
            if ki is None:
                break
            ks.append(ki)
        if ki is None:
            h *= 0.5
            continue
        # row 7 of _DP_A is _DP_B5, so the last stage point is the 5th-order update
        x_new = xi
        err = h * float(
            np.hypot(
                *sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, ks))
            )
        )
        en = err / sc.err_abs
        if en > 1.0:
            h *= max(0.2, 0.9 * en ** -0.2)
            continue

        # box exit
        if not (x0b <= x_new[0] <= x1b and y0b <= x_new[1] <= y1b):
            pts.append(_clip_to_box(x, x_new, box))
            end = "box-exit"
            break

        # node proximity bookkeeping (near-miss flags, used by signature);
        # only re-entries count, so launch segments next to their own
        # node stay silent
        for j, nd in enumerate(nodes):
            d, _ = _seg_point_dist(x, x_new, nd)
            if d > 10.0 * sc.capture_radius:
                left_ball[j] = True
            elif left_ball[j]:
                near_nodes.add(j)

        # closure: segment passing the start point again, same direction
        dseg, t = _seg_point_dist(x, x_new, start)
        step_dir = (x_new - x) / max(float(np.hypot(*(x_new - x))), 1e-300)
        if (
            closure_armed
            and dseg < sc.closure_tol
            and float(step_dir @ start_dir) > 0.5
        ):
            pts.append(x + t * (x_new - x))
            end = "closed"
            break
        if float(np.hypot(*(x_new - start))) > 50.0 * sc.closure_tol:
            closure_armed = True

        k1, speed = ki, si
        if speed >= 2.0 * sc.capture_speed:
            armed_speed = True
        pts.append(x_new)
        x = x_new
        if armed_speed and speed < sc.capture_speed:
            # nearest node, the first one on a tie, within 100 capture radii
            j = min(
                range(len(nodes)),
                key=lambda i: float(np.hypot(*(x - nodes[i]))),
                default=None,
            )
            if j is None or float(np.hypot(*(x - nodes[j]))) > 100.0 * sc.capture_radius:
                flags.add("capture-without-node")
            else:
                end = f"node:{j}"
            break
        h *= min(5.0, max(0.2, 0.9 * max(en, 1e-12) ** -0.2))
    else:
        raise StepLimitError(
            f"orbit exceeded {_MAX_STEPS} steps",
            orbit=Orbit(np.array(pts), "seed", "stalled", ("step-limit",)),
        )

    for j in near_nodes:
        if end != f"node:{j}":
            flags.add(f"near-miss:{j}")
    return np.array(pts), end, tuple(sorted(flags))


def _flow_aligned(pts, end, flags, backward: bool, seed_kind: str) -> Orbit:
    """Orbit stored with the flow: a backward run is reversed, so it ends at its seed."""
    if backward:
        return Orbit(pts[::-1].copy(), end, seed_kind, flags)
    return Orbit(pts, seed_kind, end, flags)


def integrate_streamline(
    field: PolyVectorField,
    seed,
    box,
    *,
    nodes=(),
    backward: bool = False,
) -> Orbit:
    """Trace one streamline until box exit, closure, or capture.

    ``seed`` must lie in the closed box.  ``nodes`` are known singular
    points used for capture attribution.  Backward runs are reversed before
    return, so the stored polyline is always flow-aligned (start/end kinds
    swap accordingly).
    """
    sx, sy = (float(c) for c in np.asarray(seed, dtype=float).reshape(2))
    x0, y0, x1, y1 = (float(b) for b in box)
    if not (x0 <= sx <= x1 and y0 <= sy <= y1):
        raise FlowbifError(f"seed ({sx:g}, {sy:g}) lies outside the box")
    sc = _scales(field, box)
    pts, end, flags = _trace(field, box, sc, nodes, seed, -1.0 if backward else 1.0)
    return _flow_aligned(pts, end, flags, backward, "seed")


def separatrices(
    field: PolyVectorField,
    saddle: SingularPoint,
    box,
    *,
    nodes=(),
    self_index: int | None = None,
) -> list[Orbit]:
    """The four separatrix orbits of a nondegenerate saddle.

    Unstable pair launched forward, stable pair backward, each offset by
    delta along the eigenvector; around the saddle the four launch
    directions alternate stable/unstable.  Orbits are flow-aligned: the
    stable pair ends at the saddle.
    """
    jac = saddle.jac
    det = float(np.linalg.det(jac))
    if det >= 0.0:
        raise ValueError(f"separatrices need a saddle (det = {det:g} >= 0)")
    vals, vecs = np.linalg.eig(jac)
    vals = np.real(vals)
    vecs = np.real(vecs)
    iu = int(np.argmax(vals))
    v_unstable = vecs[:, iu] / np.hypot(*vecs[:, iu])
    v_stable = vecs[:, 1 - iu] / np.hypot(*vecs[:, 1 - iu])

    sc = _scales(field, box)
    loc = np.asarray(saddle.location, dtype=float)
    tag = "node:?" if self_index is None else f"node:{self_index}"

    launches = []
    for sgn in (1.0, -1.0):
        launches.append((loc + sgn * sc.delta * v_unstable, False))
        launches.append((loc + sgn * sc.delta * v_stable, True))
    # deterministic angular order; eigen-directions alternate by construction
    launches.sort(
        key=lambda sv: np.arctan2(sv[0][1] - loc[1], sv[0][0] - loc[0])
    )
    stability_pattern = [stable for _, stable in launches]
    if stability_pattern not in (
        [True, False, True, False],
        [False, True, False, True],
    ):
        raise ValueError("separatrix launch directions do not alternate")

    orbits = []
    for seed, stable in launches:
        try:
            pts, end, flags = _trace(
                field, box, sc, nodes, seed, -1.0 if stable else 1.0
            )
        except StepLimitError as exc:
            pts, end, flags = exc.orbit.points, "stalled", exc.orbit.flags
        orbits.append(_flow_aligned(pts, end, flags, stable, tag))
    return orbits


# ---------------------------------------------------------------------------
# signature graphs


@dataclass(frozen=True)
class TopologySignature:
    """Separatrix graph of a field restricted to a box.

    nodes: kinds of the singular points (sorted by position); edges:
    undirected saddle-saddle / saddle-boundary connections with
    multiplicity, node "B" being the box boundary; loops: number of
    centers.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[object, object, int], ...]  # (a, b, multiplicity)
    loops: int
    index_total: int | None
    flags: tuple[str, ...] = ()


def _edge_order(x):
    return (1, 0) if isinstance(x, str) else (0, x)


def _edge_key(a, b) -> tuple:
    return tuple(sorted((a, b), key=_edge_order))


def _build_signature(
    field: PolyVectorField,
    box,
    search_opts: SearchOptions,
) -> tuple[TopologySignature, list[SingularPoint], list[Orbit]]:
    points = find_singular_points(field, box, search_opts)
    kinds = tuple(pt.kind for pt in points)
    positions = [pt.location for pt in points]
    flags: set[str] = set()

    index_total = None
    x0, y0, x1, y1 = (float(b) for b in box)
    for bump in (0.0, 1.3e-3, 2.9e-3):
        bx = (x0 - bump * (x1 - x0), y0 - bump * (y1 - y0),
              x1 + bump * (x1 - x0), y1 + bump * (y1 - y0))
        try:
            index_total = index_sum(field, bx)
            break
        except CurveZeroError:
            continue
    if index_total is None:
        flags.add("boundary-index-unavailable")

    directed: dict[tuple[int, int], int] = {}
    edge_mult: dict[tuple[object, object], int] = {}
    orbits: list[Orbit] = []
    for i, pt in enumerate(points):
        if pt.kind != "saddle":
            continue
        seps = separatrices(field, pt, box, nodes=positions, self_index=i)
        for orb in seps:
            orbits.append(orb)
            far = orb.end_kind if orb.start_kind == f"node:{i}" else orb.start_kind
            for fl in orb.flags:
                if fl.startswith("near-miss:"):
                    j = int(fl.split(":")[1])
                    if kinds[j] == "saddle" and far != f"node:{j}":
                        flags.add(f"ambiguous-near-miss:{i}-{j}")
            if far == "box-exit":
                edge_mult[(i, "B")] = edge_mult.get((i, "B"), 0) + 1
            elif far.startswith("node:"):
                j = int(far.split(":")[1])
                if kinds[j] == "saddle":
                    # keyed by flow direction
                    key = (i, j) if orb.start_kind == f"node:{i}" else (j, i)
                    directed[key] = directed.get(key, 0) + 1
                else:
                    flags.add(f"separatrix-ends-at-{kinds[j]}")
            else:
                flags.add(f"separatrix-{far}")

    for (a, b), cnt in directed.items():
        if cnt % 2 == 1:
            flags.add(f"unpaired-connection:{a}-{b}")
        key = _edge_key(a, b)
        edge_mult[key] = edge_mult.get(key, 0) + (cnt + 1) // 2

    edges = tuple(
        sorted(
            ((a, b, m) for (a, b), m in edge_mult.items()),
            key=lambda t: (_edge_order(t[0]), _edge_order(t[1])),
        )
    )
    loops = sum(1 for k in kinds if k == "center")
    sig = TopologySignature(
        kinds, edges, loops, index_total, tuple(sorted(flags))
    )
    return sig, points, orbits


def signature(
    field: PolyVectorField,
    box,
    search_opts: SearchOptions = DEFAULT_SEARCH,
) -> TopologySignature:
    """Separatrix graph of the field restricted to the box."""
    sig, _, _ = _build_signature(field, box, search_opts)
    return sig


def separatrix_portrait(
    field: PolyVectorField,
    box,
    search_opts: SearchOptions = DEFAULT_SEARCH,
) -> tuple[TopologySignature, list[SingularPoint], list[Orbit]]:
    """Signature together with the singular points and traced separatrices."""
    return _build_signature(field, box, search_opts)


def _edge_multiset(sig: TopologySignature) -> dict[tuple, int]:
    mult: dict[tuple, int] = {}
    for a, b, m in sig.edges:
        mult[_edge_key(a, b)] = mult.get(_edge_key(a, b), 0) + m
    return mult


def equivalent(a: TopologySignature, b: TopologySignature) -> bool:
    """Graph isomorphism respecting node kinds and edge multiplicities.

    The boundary "B" maps to itself.  Only edge-carrying nodes are
    relabelled; nodes without edges are matched by their kinds alone.
    """
    ea, eb = _edge_multiset(a), _edge_multiset(b)
    na = sorted({n for key in ea for n in key if n != "B"})
    nb = sorted({n for key in eb for n in key if n != "B"})
    if (
        sorted(a.nodes) != sorted(b.nodes)
        or sorted(ea.values()) != sorted(eb.values())
        or sorted(a.nodes[i] for i in na) != sorted(b.nodes[j] for j in nb)
    ):
        return False

    def extend(m: dict) -> bool:
        # m maps nodes of a to nodes of b; edges between mapped nodes must match
        if any(
            eb.get(_edge_key(m[x], m[y])) != c
            for (x, y), c in ea.items()
            if x in m and y in m
        ):
            return False
        if len(m) > len(na):
            return True
        i = na[len(m) - 1]
        return any(
            extend({**m, i: j})
            for j in nb
            if b.nodes[j] == a.nodes[i] and j not in m.values()
        )

    return extend({"B": "B"})
