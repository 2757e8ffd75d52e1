"""Streamline topology around singular points.

Every orbit of a divergence-free field lies on a level curve of its stream
function psi, so an orbit is traced as the level curve psi = c through its
seed (a separatrix: through its saddle) by predictor-corrector continuation
(Allgower & Georg): a step of length h along the flow, then Newton steps
along grad psi = (-v, u) back onto psi = c.  A step is taken again with h
halved unless the corrector converges close to the prediction and the
tangent turns little; h never exceeds half the distance to a known
singular point the orbit has left, so it cannot jump over one, and a step
that leaves the box is short, so the clipped exit vertex stays close to the
curve.  A closed orbit is recognised when it crosses, with the flow, the
line through its seed normal to the flow; psi is monotone along that line,
so the crossing is the seed itself.  A field that is not divergence-free
has no stream function and is refused.  The local structure is summarized
as a graph: saddle nodes, center nodes, a boundary node, and separatrix
edges; two fields are topologically equivalent here when those graphs are
isomorphic respecting node kinds and edge multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurveZeroError, FlowbifError, StepLimitError
from .field import PolyVectorField
from .singular import DEFAULT_SEARCH, SearchOptions, SingularPoint, find_singular_points
from .winding import index_sum

# Tolerances, as fractions of the box size L / peak field magnitude / peak
# |psi| on the box.
_MAX_STEP_FRAC = 0.02
_EXIT_STEP_FRAC = 1e-3  # longest step that may leave the box
_LEVEL_FRAC = 1e-12  # corrector converged: |psi - c| below this x peak |psi|
_CAPTURE_SPEED_FRAC = 1e-5  # |u| below this x peak => capture
_CAPTURE_RADIUS_FRAC = 1e-5  # node attribution / near-miss radius
_DELTA_FRAC = 1e-6  # separatrix launch offset
_CORRECTOR_STEPS = 4
_COS_MAX_TURN = float(np.cos(0.15))  # tangent turn allowed per step
_MAX_STEPS = 100_000


@dataclass(frozen=True)
class Orbit:
    """A traced streamline, stored flow-aligned.

    start_kind / end_kind: "seed", "node:<i>", "box-exit", "closed", or
    "stalled".  Backward-traced orbits are reversed before storage, so
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
    level_tol: float
    capture_speed: float
    capture_radius: float
    delta: float


def _scales(field: PolyVectorField, psi, box) -> _Scales:
    x0, y0, x1, y1 = (float(b) for b in box)
    L = max(x1 - x0, y1 - y0)
    X, Y = np.meshgrid(np.linspace(x0, x1, 25), np.linspace(y0, y1, 25), indexing="ij")
    U, V = field.evaluate_many(X, Y)
    peak = max(float(np.max(np.hypot(U, V))), 1e-300)
    psi_peak = max(float(np.max(np.abs(psi(X, Y)))), 1e-300)
    return _Scales(
        L=L,
        max_step=_MAX_STEP_FRAC * L,
        level_tol=_LEVEL_FRAC * psi_peak,
        capture_speed=_CAPTURE_SPEED_FRAC * peak,
        capture_radius=_CAPTURE_RADIUS_FRAC * L,
        delta=_DELTA_FRAC * L,
    )


def _seg_point_dist(a: np.ndarray, b: np.ndarray, p) -> float:
    """Distance from point p to the segment a->b."""
    d = b - a
    dd = float(d @ d)
    t = 0.0 if dd == 0.0 else float(np.clip((p - a) @ d / dd, 0.0, 1.0))
    return float(np.hypot(*(p - (a + t * d))))


def _clip_to_box(a: np.ndarray, b: np.ndarray, lo, hi) -> np.ndarray:
    """Where the segment a->b, from inside the box [lo, hi] to outside, leaves it."""
    out = (b < lo) | (b > hi)
    edge = np.where(b > hi, hi, lo)
    t = min((edge[out] - a[out]) / (b[out] - a[out]))
    return a + max(t, 0.0) * (b - a)


def _correct(field, psi, q, level, tol):
    """Newton steps along grad psi = (-v, u) from q onto psi = level.

    Returns the point and the field there, or None if the corrector does
    not converge in _CORRECTOR_STEPS steps.
    """
    for k in range(_CORRECTOR_STEPS + 1):
        u = field(q)
        r = float(psi(q[0], q[1])) - level
        speed = float(np.hypot(*u))
        if speed == 0.0:
            return None
        if abs(r) <= tol:
            return q, u
        if k < _CORRECTOR_STEPS:
            q = q - (r / speed) * np.array([-u[1], u[0]]) / speed
    return None


def _trace(field, psi, level, box, sc, nodes, seed, sign) -> tuple[np.ndarray, str, tuple[str, ...]]:
    """Follow the level curve psi = level from seed along sign*u.

    Returns the points in tracing order, the end kind and the flags.
    """
    lo, hi = np.array(box[:2], dtype=float), np.array(box[2:], dtype=float)
    nodes = [np.asarray(n, dtype=float) for n in nodes]
    x = np.asarray(seed, dtype=float).reshape(2).copy()
    u = field(x)
    speed = float(np.hypot(*u))
    if speed < 1e-300:
        raise FlowbifError("seed lies on a singular point")
    t = sign * u / speed
    pts = [x]
    flags: set[str] = set()
    start, start_dir = x, t
    armed_speed = speed >= 2.0 * sc.capture_speed
    near_nodes: set[int] = set()
    left_ball = [float(np.hypot(*(x - nd))) > 10.0 * sc.capture_radius for nd in nodes]
    h = sc.max_step
    end = "stalled"
    for _ in range(_MAX_STEPS):
        # a step never reaches past half the distance to a node the orbit has left
        gaps = [float(np.hypot(*(x - nd))) for nd, left in zip(nodes, left_ball) if left]
        h = min(h, sc.max_step, 0.5 * min(gaps, default=np.inf))
        if h < 1e-15 * sc.L:
            flags.add("step-floor")
            break
        pred = x + h * t
        got = _correct(field, psi, pred, level, sc.level_tol)
        if got is None:
            h *= 0.5
            continue
        x_new, u = got
        speed = float(np.hypot(*u))
        t_new = sign * u / speed
        if (
            float(np.hypot(*(x_new - pred))) > 0.1 * h
            or float(t_new @ t) < _COS_MAX_TURN
        ):
            h *= 0.5
            continue

        # box exit, on a short step: the exit vertex is clipped on its chord
        if not np.all((lo <= x_new) & (x_new <= hi)):
            if h > _EXIT_STEP_FRAC * sc.L:
                h *= 0.5
                continue
            pts.append(_clip_to_box(x, x_new, lo, hi))
            end = "box-exit"
            break

        # node proximity bookkeeping (near-miss flags, used by signature);
        # only re-entries count, so launch segments next to their own
        # node stay silent
        for j, nd in enumerate(nodes):
            d = _seg_point_dist(x, x_new, nd)
            if d > 10.0 * sc.capture_radius:
                left_ball[j] = True
            elif left_ball[j]:
                near_nodes.add(j)

        # closure: the step crosses, with the flow, the section through the
        # start normal to the flow; psi is monotone along that section, so
        # the level curve crosses it at the start itself
        a = float((x - start) @ start_dir)
        b = float((x_new - start) @ start_dir)
        if a < 0.0 <= b:
            cross = x + (a / (a - b)) * (x_new - x)
            if float(np.hypot(*(cross - start))) <= float(np.hypot(*(x_new - x))):
                pts.append(start.copy())
                end = "closed"
                break

        pts.append(x_new)
        x_old, x, t = x, x_new, t_new
        if speed >= 2.0 * sc.capture_speed:
            armed_speed = True
        if armed_speed and speed < sc.capture_speed:
            # nearest node, the first one on a tie, within 100 capture radii
            j = min(
                range(len(nodes)),
                key=lambda i: float(np.hypot(*(x - nodes[i]))),
                default=None,
            )
            gap = np.inf if j is None else float(np.hypot(*(x - nodes[j])))
            if gap <= 100.0 * sc.capture_radius:
                end = f"node:{j}"
                break
            # keep stepping while a slow orbit still closes on a node it has
            # left (speed ~ gap^k at a degenerate zero): the half-gap step
            # cap walks it into the ball
            if j is None or not left_ball[j] or gap >= float(np.hypot(*(x_old - nodes[j]))):
                flags.add("capture-without-node")
                break
        h *= 2.0
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
    psi = field.stream_function()
    sc = _scales(field, psi, box)
    level = float(psi(sx, sy))
    pts, end, flags = _trace(
        field, psi, level, box, sc, nodes, (sx, sy), -1.0 if backward else 1.0
    )
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
    delta along the eigenvector and traced on the level psi(saddle), which
    grad psi = 0 makes insensitive to the saddle's location error; around
    the saddle the four launch directions alternate stable/unstable.
    Orbits are flow-aligned: the stable pair ends at the saddle.
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

    psi = field.stream_function()
    sc = _scales(field, psi, box)
    loc = np.asarray(saddle.location, dtype=float)
    level = float(psi(loc[0], loc[1]))
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
                field, psi, level, box, sc, nodes, seed, -1.0 if stable else 1.0
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


def separatrix_portrait(
    field: PolyVectorField,
    box,
    search_opts: SearchOptions = DEFAULT_SEARCH,
) -> tuple[TopologySignature, list[SingularPoint], list[Orbit]]:
    """Signature together with the singular points and traced separatrices."""
    field.stream_function()  # refuse a field without one before searching
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
    return separatrix_portrait(field, box, search_opts)[0]


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
