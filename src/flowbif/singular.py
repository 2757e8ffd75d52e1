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
subdivision: a cell is discarded only when the Bernstein coefficients of u
or of v on it prove it free of zeros (``_no_zero``), so no cell that holds
a zero is discarded.  Surviving cells are refined to the finest level, and
damped Newton polishes the centres of all of them at once: the seeds
advance in lockstep on arrays, each under its own step rules, so a seed
ends on the same bits as it would alone (``_polish``).
Polished candidates within ``_CLUSTER_RADIUS`` of each other are merged by
single linkage into one zero.
Near-degenerate groups are then solved from the frame coefficients that
the invariants are read from (``_refine_degenerate``).  Every tolerance is
relative to the field's largest coefficient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    FlowbifError,
    InvalidCaseDataError,
    IsolationOrderError,
    NotSimpleError,
)
from .field import Frame, PolyVectorField
from .poly import Poly2

_MAX_DEPTH = 14  # finest subdivision level
_CLUSTER_RADIUS = 1e-6  # candidates closer than this are one zero
_DET_TOL = 1e-9  # |det(J / |J|)| at or below this is degenerate
_NEWTON_MAX_ITER = 50  # damped Newton steps per seed
_COEF_TOL = 1e-9  # x the largest coefficient: a frame coefficient or invariant this small is 0
_MAX_CELLS = 1_000_000  # subdivision cells one search may visit

CASE_INDEX = {"S1": 0, "S2": -1, "S3": 1, "S4": -1, "S5": None, "S6": 1, "S7": -1}


@dataclass(frozen=True)
class SearchOptions:
    """Tunables for root isolation and classification."""

    res_tol: float = 1e-10  # x the largest coefficient: Newton residual a zero must reach


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


def _net_sum(a: float, b: float) -> float:
    """a + b, or exactly 0.0 when it is at most ``_COEF_TOL`` x (|a| + |b|).

    The cancellation test of every two-term combination a decision reads: a
    sum that small is rounding left by terms that cancel, at any amplitude.
    """
    total = a + b
    return 0.0 if abs(total) <= _COEF_TOL * (abs(a) + abs(b)) else total


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
    scale = max(abs(alpha), abs(beta), abs(lam))
    if min(abs(alpha), abs(beta), abs(lam)) <= _COEF_TOL * scale:
        raise InvalidCaseDataError("alpha, beta and lam must all be nonzero")
    alpha, beta, lam = alpha / scale, beta / scale, lam / scale  # products cannot overflow
    if 2 * k > n + 1:
        label = "S1" if n % 2 == 0 else ("S2" if alpha * beta > 0 else "S3")
    elif 2 * k == n + 1:
        disc = _net_sum(lam * lam * k, alpha * beta)
        label = "S5" if disc == 0.0 else ("S4" if disc > 0 else "S6")
    else:
        label = "S7"
    return label, CASE_INDEX[label]


def _scaled_det(jac: np.ndarray) -> tuple[float, float]:
    """det(J / |J|) and |J| (largest entry): cannot overflow, and does not change with scale."""
    jnorm = float(np.max(np.abs(jac)))
    a = jac / (jnorm or 1.0)
    return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]), jnorm


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
    amp = field.max_abs_coef()
    res = float(np.hypot(*field(p)))
    if res > max(opts.res_tol, 1e-12) * amp:
        raise InvalidCaseDataError(f"point is not a zero: |field| = {res:.3g}")

    jac = field.jacobian(p)
    det, jnorm = _scaled_det(jac)
    if jnorm <= _COEF_TOL * amp:
        raise NotSimpleError("Jacobian vanishes at the zero; not a simple degenerate point")
    if abs(det) > _DET_TOL:
        raise InvalidCaseDataError(f"Jacobian is nondegenerate (det = {det * jnorm * jnorm:.3g})")

    _, _, vt = np.linalg.svd(jac)
    e1 = vt[1]  # kernel direction (smallest singular value)
    if (abs(e1[0]) >= abs(e1[1]) and e1[0] < 0) or (abs(e1[0]) < abs(e1[1]) and e1[1] < 0):
        e1 = -e1
    e2 = np.array([-e1[1], e1[0]])  # right-handed completion
    alpha = float(e1 @ (jac @ e2))

    frame = Frame(p, e1, e2)
    w = field.in_frame(frame)
    thresh = _COEF_TOL * w.max_abs_coef()

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
    det, jnorm = _scaled_det(jac)
    if abs(jac[0, 0] + jac[1, 1]) > _DET_TOL * jnorm:
        return SingularPoint(p, jac, "unresolved", note="field is not divergence-free here")
    if det < -_DET_TOL:
        return SingularPoint(p, jac, "saddle")
    if det > _DET_TOL:
        return SingularPoint(p, jac, "center")
    try:
        data = extract_degeneracy(field, p, opts)
    except (NotSimpleError, IsolationOrderError, InvalidCaseDataError) as exc:
        return SingularPoint(p, jac, "unresolved", note=str(exc))
    return SingularPoint(p, jac, "degenerate", degeneracy=data)


# ---------------------------------------------------------------------------
# Newton polishing


def _steps(jac: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Newton steps -J^-1 f for stacked (n, 2, 2) Jacobians and (n, 2) values.

    One stacked solve; if any matrix is singular, every seed is solved on
    its own and a singular one takes the least-squares step instead.
    """
    try:
        return np.linalg.solve(jac, -f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.empty_like(f)
        for i, (a, b) in enumerate(zip(jac, -f)):
            try:
                steps[i] = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                steps[i] = np.linalg.lstsq(a, b, rcond=None)[0]
        return steps


def _polish(field: PolyVectorField, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton from every row of ``seeds`` (n, 2) in lockstep: (points, residuals).

    The seeds share array evaluations and one stacked solve per step, but
    each follows its own rules, so its bits do not depend on the batch.  A
    seed stops when its residual is 0 or its step is not finite; when 12
    halvings of the step leave the residual no lower; after two rounds in a
    row that cut the residual by less than 10% (valley creep near a
    degenerate zero, which ``_refine_degenerate`` handles); when its step
    falls below 1e-16 of |x| + 1; or after ``_NEWTON_MAX_ITER`` steps.
    """
    x = np.array(seeds, dtype=float).reshape(-1, 2)
    f = np.column_stack(field.evaluate_many(x[:, 0], x[:, 1]))
    r = np.hypot(f[:, 0], f[:, 1])
    slow = np.zeros(len(x), dtype=int)
    live = np.flatnonzero(r != 0.0)  # seeds still iterating
    for _ in range(_NEWTON_MAX_ITER):
        if live.size == 0:
            break
        step = _steps(field.jacobian_many(x[live, 0], x[live, 1]), f[live])
        finite = np.isfinite(step).all(axis=1)
        live, step = live[finite], step[finite]
        x0, r0 = x[live], r[live]
        xt = x0 + step
        ft = np.column_stack(field.evaluate_many(xt[:, 0], xt[:, 1]))
        rt = np.hypot(ft[:, 0], ft[:, 1])
        for _ in range(12):  # halve the steps that do not lower the residual
            up = np.flatnonzero(rt >= r0)
            if up.size == 0:
                break
            step[up] *= 0.5
            xt[up] = x0[up] + step[up]
            ft[up] = np.column_stack(field.evaluate_many(xt[up, 0], xt[up, 1]))
            rt[up] = np.hypot(ft[up, 0], ft[up, 1])
        down = ~(rt >= r0)  # the others stop where they are
        live, step, r0 = live[down], step[down], r0[down]
        x[live], f[live], r[live] = xt[down], ft[down], rt[down]
        slow[live] = np.where(r[live] > 0.9 * r0, slow[live] + 1, 0)
        size = np.hypot(x[live, 0], x[live, 1])
        tiny = np.hypot(step[:, 0], step[:, 1]) <= 1e-16 * (1.0 + size)
        live = live[(slow[live] < 2) & ~tiny & (r[live] != 0.0)]
    return x, r


def _gauss_newton(system, p, phi, tol, anchor, radius):
    """Gauss-Newton on ``system(p, phi) -> (r, A)``; A's columns are the derivatives
    of r along e1, along e2 and in the frame angle.  Steps are taken while they
    stay within ``radius`` of ``anchor`` and cut the largest residual by 10%;
    returns (p, phi) if that residual then is at most ``tol``, else None."""
    r, a = system(p, phi)
    best = float(np.max(np.abs(r)))
    for _ in range(_NEWTON_MAX_ITER):
        step = np.linalg.lstsq(a, -r, rcond=None)[0]
        c, s = np.cos(phi), np.sin(phi)  # e1 = (c, s), e2 = (-s, c)
        pt, phit = p + (c * step[0] - s * step[1], s * step[0] + c * step[1]), phi + step[2]
        if not float(np.hypot(*(pt - anchor))) <= radius:
            break
        r, a = system(pt, phit)
        res = float(np.max(np.abs(r)))
        if not res < 0.9 * best:
            break
        p, phi, best = pt, phit, res
    return (p, phi) if best <= tol else None


def _refine_degenerate(field: PolyVectorField, p0, radius: float, known: dict) -> np.ndarray:
    """The degenerate zero near p0, solved from the frame coefficients that define it.

    Newton stalls about 1e-6 short of a flat zero, which leaves frame
    coefficients that extraction reads as nonzero.  Deflated Newton (Leykin,
    Verschelde & Zhao, TCS 2006) solves for the point and the frame angle
    instead: first u = v = 0 and J e1 = 0 (orders (2, 2)); then the orders
    are raised one at a time by adding w1(k, 0) = 0, or else w2(n, 0) = 0,
    read from one ``in_frame`` per step.  A raise counts only if it solves
    within ``radius`` of the order-(2, 2) solution, closer than the search
    tells zeros apart.  Residuals converge at the threshold extraction uses.
    ``known`` maps the order-(2, 2) solutions already raised to their zeros.
    Returns p0 if the order-(2, 2) solve fails.
    """
    tol = _COEF_TOL * field.max_abs_coef()
    second = [(c.dx().dx(), c.dx().dy(), c.dy().dy()) for c in (field.u, field.v)]

    def order22(p, phi):
        cos, sin = np.cos(phi), np.sin(phi)
        rot = np.array([[cos, -sin], [sin, cos]])  # columns e1, e2
        jac, x, y = field.jacobian(p), float(p[0]), float(p[1])
        hess = np.array([[[a(x, y), b(x, y)], [b(x, y), c(x, y)]] for a, b, c in second])
        jm = np.vstack([jac, hess @ rot[:, 0]])  # J, then d(J e1)/dp: rows Hu e1, Hv e1
        turn = np.concatenate([(0.0, 0.0), jac @ rot[:, 1]])
        return np.concatenate([field(p), jm[:2] @ rot[:, 0]]), np.column_stack([jm @ rot, turn])

    @functools.lru_cache(maxsize=2)  # a raise starts where the last solve ended
    def frame_field(x, y, phi):
        return field.in_frame(Frame.rotation((x, y), phi))

    def jet(p, phi, k, n):  # rows w1(i, 0) for i < k, w2(i, 0) for i < n; w(-1, j) is 0
        w = frame_field(float(p[0]), float(p[1]), phi)
        c1, c2 = w.u.coefficient, w.v.coefficient
        rows = [(c1(i, 0), (i + 1) * c1(i + 1, 0), c1(i, 1), c2(i, 0) + (i and c1(i - 1, 1)))
                for i in range(k)]
        rows += [(c2(i, 0), (i + 1) * c2(i + 1, 0), c2(i, 1), (i and c2(i - 1, 1)) - c1(i, 0))
                 for i in range(n)]
        rows = np.array(rows)
        return rows[:, 0], rows[:, 1:]

    p0 = np.asarray(p0, dtype=float).reshape(2)
    e1 = np.linalg.svd(field.jacobian(p0))[2][1]
    sol = _gauss_newton(order22, p0, float(np.arctan2(e1[1], e1[0])), tol, p0, np.inf)
    if sol is None:
        return p0
    anchor = sol[0]
    for q, zero in known.items():
        if float(np.hypot(*(anchor - q))) <= radius:
            return zero
    k = n = 2
    while max(k, n) <= field.max_degree:  # beyond the degree every coefficient is zero
        for dk, dn in ((1, 0), (0, 1)):
            up = _gauss_newton(lambda q, a: jet(q, a, k + dk, n + dn), *sol, tol, anchor, radius)
            if up is not None:
                sol, k, n = up, k + dk, n + dn
                break
        else:
            break
    known[tuple(anchor)] = sol[0]
    return sol[0]


# ---------------------------------------------------------------------------
# subdivision search

_BLOCK_CELLS = 4096  # cells expanded at once, so that memory stays flat at degree 18


@functools.cache
def _bernstein(n: int) -> np.ndarray:
    """M with s^k = sum_m M[k, m] C(n, m) t^m (1 - t)^(n - m), t = (s + 1) / 2.

    Each entry is an exact integer sum divided once; |M| <= 1 (Vandermonde).
    """
    def entry(k, m):
        terms = (math.comb(k, p) * (-1) ** (k - p) * math.comb(n - k, m - p) for p in range(m + 1))
        return sum(terms) / math.comb(n, m)

    out = np.array([[entry(k, m) for m in range(n + 1)] for k in range(n + 1)])
    out.setflags(write=False)  # cached: shared by every search
    return out


def _taylor_shift(c: np.ndarray, h: float, n: int) -> np.ndarray:
    """Stacked V[i, a] = C(i, a) c^(i - a) h^a: x^i = sum_a V[i, a] s^a at x = c + h s."""
    i, a = np.indices((n, n))
    binom = np.frompyfunc(math.comb, 2, 1)(i, a).astype(float)
    powers = np.cumprod(np.column_stack([np.ones_like(c)] + [c] * (n - 1)), axis=1)
    return binom * np.cumprod([1.0] + [h] * (n - 1)) * powers[:, np.maximum(i - a, 0)]


def _no_zero(coef: np.ndarray, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Cells, given by their Taylor shifts, on which the polynomial provably has no zero.

    On a cell, the polynomial is a convex combination of its Bernstein
    coefficients B = Mxᵀ Vxᵀ C Vy My, so B of one strict sign exclude a
    zero (Mourrain & Pavone, JSC 2009).  Rounding, with dx, dy the degrees
    and u = eps / 2: an entry of Vx takes at most dx roundings (of Vy, dy),
    each of the four products one per term of its inner length (dx + 1 or
    dy + 1) and an entry of M one; as |M| <= 1, a computed B is within
    (3 dx + 3 dy + 6) u S of the exact one, where
    S = sum |C[i, j]| (|cx| + hx)^i (|cy| + hy)^j.  The margin is
    4 (dx + dy + 4) eps S, over twice that, plus
    2^(2 dx + 2 dy - 1000) (1 + max |C|) max(1, X^dx) max(1, Y^dy) with
    X = |cx| + hx, Y = |cy| + hy, which bounds what results that underflow
    (at most 2^-1075 each) can add.  A cell goes when its B all exceed the
    margin with one sign.
    """
    nx, ny = coef.shape
    tx, ty = vx[:, :nx, :nx], vy[:, :ny, :ny]
    b = _bernstein(nx - 1).T @ (tx.transpose(0, 2, 1) @ coef @ ty) @ _bernstein(ny - 1)
    px, py = np.abs(tx).sum(axis=2), np.abs(ty).sum(axis=2)  # (|c| + h)^i
    s = ((px @ np.abs(coef)) * py).sum(axis=1)
    if not (np.isfinite(s).all() and np.isfinite(b).all()):
        raise FlowbifError("field is not finite on the box")
    under = np.ldexp(1.0 + np.abs(coef).max(), 2 * (nx + ny - 2) - 1000)
    margin = 4 * (nx + ny + 2) * np.finfo(float).eps * s
    margin = (margin + under * np.maximum(px[:, -1], 1) * np.maximum(py[:, -1], 1))[:, None, None]
    return (b > margin).all(axis=(1, 2)) | (b < -margin).all(axis=(1, 2))


def _may_vanish(field: PolyVectorField, cx: np.ndarray, cy: np.ndarray, hx: float, hy: float):
    """Cells [cx ± hx] x [cy ± hy] not proven free of zeros of u or of v."""
    n = max(field.u.coef.shape + field.v.coef.shape)
    live = np.ones(cx.size, dtype=bool)
    for lo in range(0, cx.size, _BLOCK_CELLS):
        with np.errstate(over="ignore", invalid="ignore"):  # _no_zero reports overflow
            vx = _taylor_shift(cx[lo : lo + _BLOCK_CELLS], hx, n)
            vy = _taylor_shift(cy[lo : lo + _BLOCK_CELLS], hy, n)
            block = ~_no_zero(field.u.coef, vx, vy)
            block[block] = ~_no_zero(field.v.coef, vx[block], vy[block])
        live[lo : lo + _BLOCK_CELLS] = block
    return live


def _cluster(cands: list[tuple[np.ndarray, float]], radius: float):
    """Single-linkage grouping of (point, residual) candidates.

    Two candidates are linked when ``hypot(dx, dy) <= radius``; the clusters
    are the connected components of that graph, a partition that does not
    depend on the order in which pairs are tested.  The sweep visits the
    candidates in (x, y, residual) order and tests candidate i only against
    the earlier ones whose x lies within 2*radius (found by binary search):
    any candidate outside that window is more than radius away in x alone,
    and the factor 2 keeps the rounding of ``x - 2*radius`` from cutting off
    a link.  Each window is tested in one vectorised ``np.hypot`` on the same
    differences as a pairwise test, so the links are the same floats.

    A cluster is named by its first member in sweep order.  When candidate
    i links several clusters, it is appended to the oldest and the others
    follow, oldest first; clusters are returned oldest first.  Callers pick
    a member by (residual, x, y), so this order decides only exact ties.
    """
    order = sorted(cands, key=lambda c: (c[0][0], c[0][1], c[1]))
    xs = np.array([c[0][0] for c in order], dtype=float)
    ys = np.array([c[0][1] for c in order], dtype=float)
    starts = np.searchsorted(xs, xs - 2.0 * radius)
    label = np.arange(len(order))  # each candidate's cluster, by first member
    clusters: dict[int, list[int]] = {}
    for i, lo in enumerate(starts.tolist()):
        near = np.hypot(xs[i] - xs[lo:i], ys[i] - ys[lo:i]) <= radius
        hits = sorted(set(label[lo:i][near].tolist()))
        if not hits:
            clusters[i] = [i]
            continue
        first = clusters[hits[0]]
        first.append(i)
        label[i] = hits[0]
        for other in hits[1:]:
            members = clusters.pop(other)
            label[members] = hits[0]
            first.extend(members)
    return [[order[j] for j in members] for members in clusters.values()]


def find_singular_points(
    field: PolyVectorField, box, opts: SearchOptions = DEFAULT_SEARCH
) -> list[SingularPoint]:
    """All zeros of the field inside the box, classified and sorted by (x, y).

    Every finest-level cell that survives the subdivision seeds damped
    Newton; the seeds are polished together in lockstep (``_polish``) and
    each ends where a polish from it alone would.

    No cell that holds a zero is discarded (``_no_zero``), and the cells,
    padded against the rounding of their centres, cover the box.
    Completeness is claimed for zeros whose pairwise separation exceeds the
    finest subdivision cell (box diameter / 2**max_depth): closer zeros can
    share the leaves that seed them, and Newton need not reach each, which
    the brute-force checks in the test-suite guard against for the
    families analysed here.  A box that is not finite raises
    ``ValueError``, a field that overflows on it ``FlowbifError``.
    """
    x0, y0, x1, y1 = (float(b) for b in box)
    w, h = x1 - x0, y1 - y0
    if not np.isfinite([x0, y0, x1, y1, w, h]).all():
        raise ValueError("box corners and extent must be finite")
    if not (x1 > x0 and y1 > y0):
        raise ValueError("box must satisfy x0 < x1 and y0 < y1")
    # rounded centres leave gaps between cells; padded, the cells cover the box
    pad = 64 * np.finfo(float).eps * max(abs(x0), abs(x1), abs(y0), abs(y1))

    start_depth = 2
    max_depth = max(_MAX_DEPTH, start_depth)
    ncell0 = 1 << start_depth
    cx, cy = np.meshgrid(
        x0 + (np.arange(ncell0) + 0.5) * (w / ncell0),
        y0 + (np.arange(ncell0) + 0.5) * (h / ncell0),
    )
    cx, cy = cx.ravel(), cy.ravel()

    cells_seen = 0
    for depth in range(start_depth, max_depth + 1):
        cells_seen += cx.size
        if cells_seen > _MAX_CELLS:
            raise BudgetExceededError(f"subdivision exceeded {_MAX_CELLS} cells")
        hx = 0.5 * w / (1 << depth)
        hy = 0.5 * h / (1 << depth)
        live = _may_vanish(field, cx, cy, hx + pad, hy + pad)
        cx, cy = cx[live], cy[live]
        if depth < max_depth:  # split survivors into 4 children
            cx = np.concatenate([cx - hx / 2, cx + hx / 2, cx - hx / 2, cx + hx / 2])
            cy = np.concatenate([cy - hy / 2, cy - hy / 2, cy + hy / 2, cy + hy / 2])
    seeds = np.column_stack([cx, cy])

    # polish, filter, group; groups that refine to one zero share its array
    amp = field.max_abs_coef()
    slack = 1e-9 * max(w, h)
    pts, res = _polish(field, seeds)
    keep = ~(res > opts.res_tol * amp)
    keep &= (x0 - slack <= pts[:, 0]) & (pts[:, 0] <= x1 + slack)
    keep &= (y0 - slack <= pts[:, 1]) & (pts[:, 1] <= y1 + slack)
    candidates = list(zip(pts[keep], res[keep].tolist()))

    cell = float(np.hypot(w, h)) / (1 << max_depth)
    known, zeros = {}, {}
    for cluster in _cluster(candidates, _CLUSTER_RADIUS):
        pt, _ = min(cluster, key=lambda c: (c[1], c[0][0], c[0][1]))
        if abs(_scaled_det(field.jacobian(pt))[0]) <= 1e-4:
            pt = _refine_degenerate(field, pt, cell, known)
        zeros.setdefault(tuple(pt), pt)
    points = [classify_point(field, pt, opts) for pt in zeros.values()]
    points.sort(key=lambda s: (s.location[0], s.location[1]))
    return points
