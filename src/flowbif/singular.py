"""Locating and classifying singular points of planar polynomial fields.

Nondegenerate zeros of a divergence-free field are saddles (negative
Jacobian determinant) or centers (positive); the trace-free Jacobian rules
out foci.  A *simple degenerate* zero has det = 0 but nonzero Jacobian; it
carries an intrinsic frame (e1 spanning the kernel, e2 = perp) in which the
field looks like

    w1 = alpha*y + lam*x^k + h.o.t.,    w2 = beta*x^n - k*lam*x^(k-1)*y + h.o.t.

The invariants (alpha, beta, lam, k, n) decide one of seven cases:

    S1: 2k > n+1, n even            -> index 0
    S2: 2k > n+1, n odd, a*b > 0    -> index -1
    S3: 2k > n+1, n odd, a*b < 0    -> index +1
    S4: 2k = n+1, lam^2*k + a*b > 0 -> index -1
    S5: 2k = n+1, lam^2*k + a*b = 0 -> indeterminate (zeros may be non-isolated)
    S6: 2k = n+1, lam^2*k + a*b < 0 -> index +1
    S7: 2k < n+1                    -> index -1

where a*b abbreviates alpha*beta.  Root finding uses recursive box
subdivision: cells are discarded when a coefficient-level gradient bound
proves a component nonzero, or when the boundary winding is reliably zero
with no paired sign changes; surviving cells are refined to the finest
level and polished with damped Newton.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BudgetExceededError,
    InvalidCaseDataError,
    IsolationOrderError,
    NotSimpleError,
)
from .field import Frame, PolyVectorField
from .poly import Poly2
from .winding import _ANGLE_CAP, _angle_steps

_MAG_RATIO = 1e-3  # boundary magnitude ratio below which a cell winding is unreliable
_MAX_DEPTH = 14  # finest subdivision level
_CLUSTER_RADIUS = 1e-6  # candidates closer than this are one zero
_DET_TOL = 1e-9  # |det J| at or below this (x max(1, |J|)^2) is degenerate
_COEF_TOL = 1e-9  # invariants and frame coefficients at or below this are zero
_S5_TOL = 1e-9  # |lam^2*k + alpha*beta| at or below this is S5

CASE_INDEX = {"S1": 0, "S2": -1, "S3": 1, "S4": -1, "S5": None, "S6": 1, "S7": -1}


@dataclass(frozen=True)
class SearchOptions:
    """Tunables for root isolation and classification."""

    res_tol: float = 1e-10
    max_cells: int = 1_000_000
    newton_max_iter: int = 50


DEFAULT_SEARCH = SearchOptions()


@dataclass(frozen=True)
class DegeneracyData:
    """Frame-invariant data of a simple degenerate zero."""

    frame: Frame
    alpha: float
    beta: float
    lam: float
    k: int
    n: int
    case_label: str
    index: int | None  # None when indeterminate (S5)


@dataclass(frozen=True)
class SingularPoint:
    location: np.ndarray
    jac: np.ndarray
    kind: str  # "saddle" | "center" | "degenerate" | "unresolved"
    degeneracy: DegeneracyData | None = None
    note: str = ""

    @property
    def index(self) -> int | None:
        """Brouwer index: saddle -1, center +1, else that of the degeneracy case (or None)."""
        if self.kind == "saddle":
            return -1
        if self.kind == "center":
            return 1
        return None if self.degeneracy is None else self.degeneracy.index


def make_normal_form(alpha: float, beta: float, lam: float, k: int, n: int) -> PolyVectorField:
    """Divergence-free field with the given degeneracy invariants at the origin."""
    if k < 2 or n < 2:
        raise InvalidCaseDataError(f"tangency orders must be >= 2, got k={k}, n={n}")
    u = Poly2.from_terms({(0, 1): alpha, (k, 0): lam})
    v = Poly2.from_terms({(n, 0): beta, (k - 1, 1): -k * lam})
    return PolyVectorField(u, v)


def case_label(
    alpha: float,
    beta: float,
    lam: float,
    k: int,
    n: int,
) -> tuple[str, int | None]:
    """Case label and Brouwer index from the degeneracy invariants."""
    if k < 2 or n < 2 or k != int(k) or n != int(n):
        raise InvalidCaseDataError(f"tangency orders must be integers >= 2, got k={k}, n={n}")
    if abs(alpha) <= _COEF_TOL or abs(beta) <= _COEF_TOL or abs(lam) <= _COEF_TOL:
        raise InvalidCaseDataError("alpha, beta and lam must all be nonzero")
    if 2 * k > n + 1:
        label = "S1" if n % 2 == 0 else ("S2" if alpha * beta > 0 else "S3")
    elif 2 * k == n + 1:
        disc = lam * lam * k + alpha * beta
        label = "S5" if abs(disc) <= _S5_TOL else ("S4" if disc > 0 else "S6")
    else:
        label = "S7"
    return label, CASE_INDEX[label]


# ---------------------------------------------------------------------------
# degeneracy extraction


def extract_degeneracy(
    field: PolyVectorField, p, opts: SearchOptions = DEFAULT_SEARCH
) -> DegeneracyData:
    """Frame and Taylor invariants of a simple degenerate zero at p.

    The frame is right-handed with e1 spanning ker(Du); e1's sign is fixed
    by making its largest component positive, which keeps results
    deterministic.  alpha = e1 . (Du e2) is frame-independent, and the case
    tests only use the orientation-invariant products alpha*beta and
    lam^2*k + alpha*beta, so the label does not depend on the e1 choice.
    """
    p = np.asarray(p, dtype=float).reshape(2)
    res = float(np.hypot(*field(p)))
    if res > max(opts.res_tol, 1e-12):
        raise InvalidCaseDataError(f"point is not a zero: |field| = {res:.3g}")

    jac = field.jacobian(p)
    jnorm = float(np.max(np.abs(jac)))
    if jnorm <= _COEF_TOL:
        raise NotSimpleError("Jacobian vanishes at the zero; not a simple degenerate point")
    det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
    if abs(det) > _DET_TOL * max(1.0, jnorm) ** 2:
        raise InvalidCaseDataError(f"Jacobian is nondegenerate (det = {det:.3g})")

    _, _, vt = np.linalg.svd(jac)
    e1 = vt[1]  # kernel direction (smallest singular value)
    if (abs(e1[0]) >= abs(e1[1]) and e1[0] < 0) or (abs(e1[0]) < abs(e1[1]) and e1[1] < 0):
        e1 = -e1
    e2 = np.array([-e1[1], e1[0]])  # right-handed completion
    alpha = float(e1 @ (jac @ e2))

    frame = Frame(p, e1, e2)
    w = field.in_frame(frame)
    coef_scale = max(1.0, w.u.max_abs_coef(), w.v.max_abs_coef())
    thresh = _COEF_TOL * coef_scale

    k = lam = None
    for m in range(2, w.u.coef.shape[0]):
        c = w.u.coefficient(m, 0)
        if abs(c) > thresh:
            k, lam = m, c
            break
    if k is None:
        raise IsolationOrderError(
            "first component has no pure-x term above tolerance; tangency order undefined"
        )

    n = beta = None
    for m in range(2, w.v.coef.shape[0]):
        c = w.v.coefficient(m, 0)
        if abs(c) > thresh:
            n, beta = m, c
            break
    if n is None:
        raise IsolationOrderError(
            "second component has no pure-x term above tolerance; contact order undefined"
        )

    label, index = case_label(alpha, beta, lam, k, n)
    return DegeneracyData(frame, alpha, beta, lam, k, n, label, index)


def classify_point(
    field: PolyVectorField, p, opts: SearchOptions = DEFAULT_SEARCH
) -> SingularPoint:
    """Classify a zero as saddle/center or route it to degeneracy extraction."""
    p = np.asarray(p, dtype=float).reshape(2)
    jac = field.jacobian(p)
    jnorm = float(np.max(np.abs(jac)))
    det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
    det_tol = _DET_TOL * max(1.0, jnorm) ** 2
    if det < -det_tol:
        return SingularPoint(p, jac, "saddle")
    if det > det_tol:
        return SingularPoint(p, jac, "center")
    try:
        data = extract_degeneracy(field, p, opts)
    except (NotSimpleError, IsolationOrderError, InvalidCaseDataError) as exc:
        return SingularPoint(p, jac, "unresolved", note=str(exc))
    return SingularPoint(p, jac, "degenerate", degeneracy=data)


# ---------------------------------------------------------------------------
# Newton polishing


def newton_polish(
    field: PolyVectorField, p0, opts: SearchOptions = DEFAULT_SEARCH
) -> tuple[np.ndarray, float]:
    """Damped Newton from p0, iterated to numerical convergence.

    Damping halves the step while the residual would increase.  Near simple
    degenerate zeros convergence is geometric with ratio (k-1)/k, which the
    default iteration count covers comfortably.
    """
    x = np.asarray(p0, dtype=float).reshape(2).copy()
    f = field(x)
    r = float(np.hypot(*f))
    slow_rounds = 0
    for _ in range(opts.newton_max_iter):
        if r == 0.0:
            break
        jac = field.jacobian(x)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            break
        xt = x + step
        ft = field(xt)
        rt = float(np.hypot(*ft))
        halvings = 0
        while rt >= r and halvings < 12:
            step *= 0.5
            xt = x + step
            ft = field(xt)
            rt = float(np.hypot(*ft))
            halvings += 1
        if rt >= r:
            break
        # valley creep: residual barely moves under heavy damping; bail out
        # early, the structured refinement handles these candidates
        slow_rounds = slow_rounds + 1 if rt > 0.9 * r else 0
        x, f, r = xt, ft, rt
        if slow_rounds >= 2:
            break
        if float(np.hypot(*step)) <= 1e-16 * (1.0 + float(np.hypot(*x))):
            break
    return x, r


def _constrained_refine(field: PolyVectorField, p0, iters: int = 120) -> np.ndarray:
    """Polish a near-degenerate candidate by 1-D Newton along the kernel curve.

    Plain Newton stalls in the curved residual valley around a degenerate
    zero (heavy damping, geometric creep).  Here the point is kept on the
    curve {e1 . field = 0}, which is well conditioned transversally, and the
    remaining scalar e2 . field is driven to zero along the curve tangent.
    An m-fold tangency converges at ratio (m-1)/m per step.
    """
    p = np.asarray(p0, dtype=float).reshape(2).copy()

    def onto_curve(q, e1, e2):
        for _ in range(50):
            val = float(e1 @ field(q))
            der = float(e1 @ (field.jacobian(q) @ e2))
            if der == 0.0 or not np.isfinite(der):
                return q, False
            ds = -val / der
            q = q + ds * e2
            if abs(ds) <= 1e-17 * (1.0 + float(np.hypot(*q))):
                break
        return q, True

    prev_step = None
    for _ in range(iters):
        # Re-derive the frame from the current Jacobian: a frame frozen at the
        # starting point carries an O(|p0|^{k-1}) kernel error that puts an
        # absolute noise floor under the 1-D derivative and stalls the loop
        # well short of the zero.
        jac = field.jacobian(p)
        _, _, vt = np.linalg.svd(jac)
        e1 = vt[1]
        e2 = np.array([-e1[1], e1[0]])
        q, ok = onto_curve(p, e1, e2)
        if not ok:
            break
        jac = field.jacobian(q)
        grad1 = jac.T @ e1
        grad2 = jac.T @ e2
        transversal = float(grad1 @ e2)
        if transversal == 0.0:
            p = q
            break
        tangent = e1 - (float(grad1 @ e1) / transversal) * e2
        g = float(e2 @ field(q))
        gp = float(grad2 @ tangent)
        if gp == 0.0 or not np.isfinite(gp):
            p = q
            break
        step = -(g / gp) * tangent
        p_new = q + step
        # An m-fold tangency contracts at a steady ratio, so two consecutive
        # steps determine the geometric limit (Aitken).  Jump there when the
        # on-curve residual confirms the prediction; this turns ~120 creeping
        # iterations into a handful.
        if prev_step is not None:
            n1 = float(np.hypot(*prev_step))
            n2 = float(np.hypot(*step))
            if n1 > 0.0 and n2 > 0.0 and float(step @ prev_step) > 0.0:
                rho = n2 / n1
                if 0.05 < rho < 0.995:
                    ext = p_new + step * (rho / (1.0 - rho))
                    ext_q, ok2 = onto_curve(ext, e1, e2)
                    if ok2 and abs(float(e2 @ field(ext_q))) < abs(g):
                        p = ext_q
                        prev_step = None
                        continue
        moved = float(np.hypot(*(p_new - p)))
        p = p_new
        prev_step = step
        if moved <= 1e-17 * (1.0 + float(np.hypot(*p))):
            break
    return p


# ---------------------------------------------------------------------------
# subdivision search

# Unit-square boundary offsets, counterclockwise, corners included once.
_EDGE_SAMPLES = 8


def _boundary_offsets(m: int = _EDGE_SAMPLES) -> np.ndarray:
    t = np.arange(m) / m
    bottom = np.column_stack([-1 + 2 * t, -np.ones(m)])
    right = np.column_stack([np.ones(m), -1 + 2 * t])
    top = np.column_stack([1 - 2 * t, np.ones(m)])
    left = np.column_stack([-np.ones(m), 1 - 2 * t])
    return np.concatenate([bottom, right, top, left])


_OFFSETS = _boundary_offsets()


def _sign_changes(a: np.ndarray) -> np.ndarray:
    """Rows with any sign change along axis 1 (wraparound included)."""
    s = np.sign(a)
    s[s == 0] = 1.0
    wrapped = np.concatenate([s, s[:, :1]], axis=1)
    return np.any(wrapped[:, 1:] != wrapped[:, :-1], axis=1)


def _cluster(cands: list[tuple[np.ndarray, float]], radius: float):
    """Single-linkage grouping of (point, residual) candidates."""
    clusters: list[list[tuple[np.ndarray, float]]] = []
    for pt, res in sorted(cands, key=lambda c: (c[0][0], c[0][1], c[1])):
        hits = [
            cl
            for cl in clusters
            if any(float(np.hypot(*(pt - q))) <= radius for q, _ in cl)
        ]
        if not hits:
            clusters.append([(pt, res)])
        else:
            hits[0].append((pt, res))
            for other in hits[1:]:
                hits[0].extend(other)
                clusters.remove(other)
    return clusters


def find_singular_points(
    field: PolyVectorField, box, opts: SearchOptions = DEFAULT_SEARCH
) -> list[SingularPoint]:
    """All zeros of the field inside the box, classified and sorted by (x, y).

    Completeness is claimed for zeros whose pairwise separation exceeds the
    finest subdivision cell (box diameter / 2**max_depth); zeros hidden
    behind cancelling boundary data finer than that can in principle be
    missed, which the brute-force checks in the test-suite guard against
    for the families analysed here.
    """
    x0, y0, x1, y1 = (float(b) for b in box)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("box must satisfy x0 < x1 and y0 < y1")
    w, h = x1 - x0, y1 - y0
    half_extent = max(abs(x0), abs(x1), abs(y0), abs(y1))
    bound_u, bound_v = field.gradient_bound(half_extent)

    start_depth = 2
    max_depth = max(_MAX_DEPTH, start_depth)
    ncell0 = 1 << start_depth
    cx, cy = np.meshgrid(
        x0 + (np.arange(ncell0) + 0.5) * w / ncell0,
        y0 + (np.arange(ncell0) + 0.5) * h / ncell0,
    )
    cx, cy = cx.ravel(), cy.ravel()

    seeds: list[np.ndarray] = []
    cells_seen = 0
    for depth in range(start_depth, max_depth + 1):
        if cx.size == 0:
            break
        cells_seen += cx.size
        if cells_seen > opts.max_cells:
            raise BudgetExceededError(f"subdivision exceeded {opts.max_cells} cells")
        hx = 0.5 * w / (1 << depth)
        hy = 0.5 * h / (1 << depth)
        r_cell = float(np.hypot(hx, hy))

        fu, fv = field.evaluate_many(cx, cy)
        possible = ~((np.abs(fu) > bound_u * r_cell) | (np.abs(fv) > bound_v * r_cell))
        cx, cy = cx[possible], cy[possible]
        if cx.size == 0:
            continue

        px = cx[:, None] + _OFFSETS[None, :, 0] * hx
        py = cy[:, None] + _OFFSETS[None, :, 1] * hy
        bu, bv = field.evaluate_many(px, py)
        bu = np.concatenate([bu, bu[:, :1]], axis=1)
        bv = np.concatenate([bv, bv[:, :1]], axis=1)
        mag = np.hypot(bu, bv)
        minmag = mag.min(axis=1)
        maxmag = mag.max(axis=1)
        steps = _angle_steps(bu, bv)
        with np.errstate(invalid="ignore"):
            winding = np.rint(steps.sum(axis=1) / (2 * np.pi)).astype(int)
        reliable = (np.abs(steps).max(axis=1) < _ANGLE_CAP) & (
            minmag > _MAG_RATIO * np.maximum(maxmag, 1e-300)
        )
        paired = _sign_changes(bu[:, :-1]) & _sign_changes(bv[:, :-1])
        discard = reliable & (winding == 0) & ~paired
        cx, cy = cx[~discard], cy[~discard]

        if depth == max_depth:
            seeds.extend(np.column_stack([cx, cy]))
            break
        # split survivors into 4 children
        if cx.size:
            qx = np.concatenate([cx - hx / 2, cx + hx / 2, cx - hx / 2, cx + hx / 2])
            qy = np.concatenate([cy - hy / 2, cy - hy / 2, cy + hy / 2, cy + hy / 2])
            cx, cy = qx, qy

    # polish, filter, dedup
    slack = 1e-9 * max(w, h)
    candidates: list[tuple[np.ndarray, float]] = []
    for seed in seeds:
        pt, res = newton_polish(field, seed, opts)
        if res > opts.res_tol:
            continue
        if not (x0 - slack <= pt[0] <= x1 + slack and y0 - slack <= pt[1] <= y1 + slack):
            continue
        candidates.append((pt, res))

    # Near-degenerate candidates stall short of the true zero; give them the
    # structured polish, then dedup again since stalled copies collapse.
    refined: list[tuple[np.ndarray, float]] = []
    for cluster in _cluster(candidates, _CLUSTER_RADIUS):
        pt, res = min(cluster, key=lambda c: (c[1], c[0][0], c[0][1]))
        jac = field.jacobian(pt)
        det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
        if abs(det) <= 1e-4 * max(1.0, float(np.max(np.abs(jac)))) ** 2:
            cand = _constrained_refine(field, pt)
            cres = float(np.hypot(*field(cand)))
            if cres <= res and np.all(np.isfinite(cand)):
                pt, res = cand, cres
        refined.append((pt, res))

    points = []
    for cluster in _cluster(refined, _CLUSTER_RADIUS):
        best = min(cluster, key=lambda c: (c[1], c[0][0], c[0][1]))
        points.append(classify_point(field, best[0], opts))
    points.sort(key=lambda s: (s.location[0], s.location[1]))
    return points


def with_options(**kw) -> SearchOptions:
    """Convenience: DEFAULT_SEARCH with the given fields replaced."""
    return replace(DEFAULT_SEARCH, **kw)
