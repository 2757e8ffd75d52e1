"""Bifurcation decision, branch asymptotics, and numerical verification.

For a one-parameter family u(t) = u0 + (t - t0) u1 whose base field has a
simple degenerate zero, the local root structure for small eps = -(t - t0)
is controlled by four Taylor coefficients of u1 in the degeneracy frame.
When lambda0 = u1(x0).e2 is nonzero the zero persists as a single
nondegenerate zero on both sides of t0.  When lambda0 vanishes and one
genericity combination is nonzero, the zero splits on exactly one side
into three nondegenerate zeros whose kinds are forced by the index:
two saddles and a center at index -1, two centers and a saddle at +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AnalysisRefusal,
    FlowbifError,
    InvalidCaseDataError,
    UnsupportedCaseError,
)
from .field import Frame, PolyVectorField, TimeFamily
from .singular import (
    DEFAULT_SEARCH,
    DegeneracyData,
    SearchOptions,
    extract_degeneracy,
    find_singular_points,
)

DEFAULT_LADDER = (1e-2, 1e-3, 1e-4)
DECISION_TOL = 1e-9  # coefficients at or below this count as zero in decisions

@dataclass(frozen=True)
class PerturbationData:
    """First-order data of the perturbing field at the degenerate zero.

    In the degeneracy frame the e2-component of u1 expands as
    lambda0 + lambda2*x + lambda3*y + O(2), and the e1-component starts at
    lambda1.  lambda3 never enters a leading-order formula but is kept for
    completeness of the first-order jet.
    """

    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float


def extract_perturbation(u1: PolyVectorField, frame: Frame) -> PerturbationData:
    """Taylor coefficients of u1 at the frame origin, in frame coordinates."""
    w = u1.in_frame(frame)
    return PerturbationData(
        lambda0=w.v.coefficient(0, 0),
        lambda1=w.u.coefficient(0, 0),
        lambda2=w.v.coefficient(1, 0),
        lambda3=w.v.coefficient(0, 1),
    )


# ---------------------------------------------------------------------------
# decision


def genericity_value(d: DegeneracyData, p: PerturbationData) -> float:
    """The combination whose nonvanishing licenses a split at lambda0 = 0."""
    if d.k == 2:
        return 2.0 * d.lam * p.lambda1 + d.alpha * p.lambda2
    return p.lambda2


def decide(d: DegeneracyData, p: PerturbationData, *, tol: float = DECISION_TOL) -> str:
    """One of no-bifurcation | saddle-split | center-split | indeterminate.

    Raises UnsupportedCaseError for S1 (the zero breaks into a
    saddle/center pair whose branch asymptotics are out of scope here)
    and for S5 (the case data leave the split undetermined).
    """
    if d.case_label == "S1":
        raise UnsupportedCaseError(
            "case S1 (even contact order n, 2k > n+1): splits into one saddle "
            "and one center; branch asymptotics not provided"
        )
    if d.case_label == "S5":
        raise UnsupportedCaseError(
            "case S5: lam^2*k + alpha*beta = 0, structure depends on "
            "indeterminate higher-order terms"
        )
    if abs(p.lambda0) > tol:
        return "no-bifurcation"
    if abs(genericity_value(d, p)) <= tol:
        return "indeterminate"
    return "saddle-split" if d.index == -1 else "center-split"


# ---------------------------------------------------------------------------
# branch asymptotics


@dataclass(frozen=True)
class Branch:
    """One root branch x(eps) ~ leading_coefficient * |eps|**leading_exponent.

    leading_coefficient None marks the order-eps middle branch whose
    coefficient depends on higher-order terms.  For the persistent branch of
    a no-bifurcation family the convention is
    x(eps) = leading_coefficient * sign(eps) * |eps|**leading_exponent.
    """

    label: str  # "x0" | "x+" | "x-"
    leading_exponent: Fraction
    leading_coefficient: float | None
    kind: str  # "saddle" | "center"


@dataclass(frozen=True)
class BranchPrediction:
    branches: tuple[Branch, ...]
    side: str  # sign of t - t0 carrying 3 roots: "t<t0" | "t>t0" | "n/a"
    eps_sign: int  # sign of eps on the 3-root side; 0 when there is no split
    notes: tuple[str, ...] = ()

    def x_magnitude(self, eps: float) -> float:
        """Predicted |x| of the outer branches (or the persistent root)."""
        outer = [b for b in self.branches if b.label != "x0"]
        b = outer[0] if outer else self.branches[0]
        return abs(b.leading_coefficient) * abs(eps) ** float(b.leading_exponent)


def _split_radicand(d: DegeneracyData, p: PerturbationData) -> tuple[float, int]:
    """(A, e) with outer branches x+- = +-(A*eps)**(1/e) on the side A*eps > 0."""
    k, n = d.k, d.n
    a, b, lam = d.alpha, d.beta, d.lam
    if k == 2 and n == 3:
        return (2 * lam * p.lambda1 + a * p.lambda2) / (a * b + 2 * lam**2), 2
    if k == 2:  # n odd > 3
        return (2 * lam * p.lambda1 + a * p.lambda2) / (2 * lam**2), 2
    if 2 * k < n + 1:
        return a * p.lambda2 / (k * lam**2), 2 * k - 2
    if 2 * k > n + 1:
        return p.lambda2 / b, n - 1
    return a * p.lambda2 / (a * b + k * lam**2), 2 * k - 2


def _persistent_branch(d: DegeneracyData, p: PerturbationData) -> Branch:
    k, n = d.k, d.n
    if n < 2 * k - 1:
        m, den = n, d.beta
    elif n > 2 * k - 1:
        m, den = 2 * k - 1, d.lam**2 * k / d.alpha
    else:
        m, den = n, d.beta + d.lam**2 * k / d.alpha
    rad = p.lambda0 / den
    coeff = float(np.copysign(abs(rad) ** (1.0 / m), rad))
    kind = "saddle" if d.index == -1 else "center"
    return Branch("x0", Fraction(1, m), coeff, kind)


def branch_asymptotics(
    d: DegeneracyData, p: PerturbationData, *, tol: float = DECISION_TOL
) -> BranchPrediction:
    """Predicted branches for the decided family.

    Split decisions yield three branches (x-, x0, x+); no-bifurcation
    yields the single persistent branch.  Indeterminate families carry no
    leading-order prediction and raise InvalidCaseDataError.
    """
    decision = decide(d, p, tol=tol)
    if decision == "indeterminate":
        raise InvalidCaseDataError(
            "indeterminate family: no leading-order branch data"
        )
    if decision == "no-bifurcation":
        return BranchPrediction((_persistent_branch(d, p),), "n/a", 0)

    A, e = _split_radicand(d, p)
    eps_sign = 1 if A > 0 else -1
    side = "t<t0" if eps_sign > 0 else "t>t0"
    cmag = abs(A) ** (1.0 / e)
    outer_kind = "saddle" if d.index == -1 else "center"
    middle_kind = "center" if d.index == -1 else "saddle"
    branches = (
        Branch("x-", Fraction(1, e), -cmag, outer_kind),
        Branch("x0", Fraction(1, 1), None, middle_kind),
        Branch("x+", Fraction(1, e), cmag, outer_kind),
    )
    notes = ()
    if eps_sign < 0:
        notes = (
            "three-root side determined by the radicand sign: eps < 0 (t > t0)",
        )
    return BranchPrediction(branches, side, eps_sign, notes)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class Verification:
    eps_list: tuple[float, ...]
    root_counts: tuple[int, ...]
    type_counts: tuple[tuple[str, ...], ...]
    index_sums: tuple[int | None, ...]
    asymptotic_errors: tuple[tuple[float, ...], ...]
    verdict: str  # "confirmed" | "refuted" | "inconclusive"
    details: tuple[str, ...] = ()


@dataclass(frozen=True)
class BifurcationReport:
    decision: str
    side: str
    branches: tuple[Branch, ...]
    degeneracy: DegeneracyData
    perturbation: PerturbationData
    verification: Verification | None
    notes: tuple[str, ...] = ()


def _expected_kinds(index: int, three: bool) -> tuple[str, ...]:
    if three:
        if index == -1:
            return ("center", "saddle", "saddle")
        return ("center", "center", "saddle")
    return ("saddle",) if index == -1 else ("center",)


def _errors_nonincreasing(seq: list[float], slack: float, floor: float) -> bool:
    # noise floor: branch values exact to rounding make the error a float
    # artifact; anything at or below the floor counts as converged
    for prev, nxt in zip(seq, seq[1:]):
        if nxt > max(prev * (1.0 + slack), floor):
            return False
    return True


def _run_ladder(
    family: TimeFamily,
    d: DegeneracyData,
    decision: str,
    pred: BranchPrediction,
    opts: SearchOptions,
    eps_scale: float,
    ladder,
) -> Verification:
    mags = sorted((abs(m) for m in (ladder or DEFAULT_LADDER)), reverse=True)
    if len(mags) < 2:
        # the verdict compares the two smallest rungs on each side
        raise FlowbifError(f"eps ladder needs at least two values, got {len(mags)}")
    eps_list: list[float] = []
    for m in mags:
        eps_list.extend((m * eps_scale, -m * eps_scale))

    counts, kindsets, sums, errsets = [], [], [], []
    details: list[str] = []
    for eps in eps_list:
        w = family.at_offset(eps).in_frame(d.frame)
        half = max(10.0 * pred.x_magnitude(eps), 1e3 * opts.res_tol)
        points = find_singular_points(w, (-half, -half, half, half), opts)
        counts.append(len(points))
        kindsets.append(tuple(sorted(pt.kind for pt in points)))
        idxs = [pt.index for pt in points]
        sums.append(None if any(i is None for i in idxs) else int(sum(idxs)))

        errs: tuple[float, ...] = ()
        if decision == "no-bifurcation" and len(points) == 1:
            b = pred.branches[0]
            xpred = (
                b.leading_coefficient
                * float(np.copysign(1.0, eps))
                * abs(eps) ** float(b.leading_exponent)
            )
            xfound = float(points[0].location[0])
            errs = (abs(xfound / xpred - 1.0),)
        elif (
            decision in ("saddle-split", "center-split")
            and np.sign(eps) == pred.eps_sign
            and len(points) == 3
        ):
            xmag = pred.x_magnitude(eps)
            ordered = sorted(points, key=lambda pt: pt.location[0])
            errs = (
                abs(-ordered[0].location[0] / xmag - 1.0),
                abs(ordered[2].location[0] / xmag - 1.0),
            )
        errsets.append(errs)

    # verdict: compare the two smallest-magnitude rungs on each side with the
    # predicted counts/kinds; the index sum must match on every rung
    verdict = "confirmed"
    for sign in (1, -1):
        rows = [i for i, e in enumerate(eps_list) if np.sign(e) == sign]
        small = rows[-2:]
        if counts[small[0]] != counts[small[1]]:
            details.append(
                f"root counts disagree between the two smallest eps on side "
                f"{'+' if sign > 0 else '-'}: "
                f"{counts[small[0]]} vs {counts[small[1]]}"
            )
            verdict = "inconclusive"
            continue
        three = decision != "no-bifurcation" and sign == pred.eps_sign
        want_n = 3 if three else 1
        want_kinds = _expected_kinds(d.index, three)
        for i in small:
            if counts[i] != want_n or kindsets[i] != want_kinds:
                details.append(
                    f"eps={eps_list[i]:g}: found {counts[i]} roots {kindsets[i]},"
                    f" expected {want_n} {want_kinds}"
                )
                if verdict == "confirmed":
                    verdict = "refuted"
    for i, s in enumerate(sums):
        if s != d.index:
            details.append(
                f"eps={eps_list[i]:g}: index sum {s} != {d.index}"
            )
            if verdict == "confirmed":
                verdict = "refuted"
    for sign in (1, -1):
        per_branch = [[], []]
        for i, e in enumerate(eps_list):
            if np.sign(e) == sign and len(errsets[i]) == 2:
                per_branch[0].append(errsets[i][0])
                per_branch[1].append(errsets[i][1])
        for seq, lbl in zip(per_branch, ("x-", "x+")):
            if not _errors_nonincreasing(seq, 0.10, 1e-9):
                details.append(
                    f"asymptotic error for {lbl} not decreasing on side "
                    f"{'+' if sign > 0 else '-'}: {seq}"
                )
                if verdict == "confirmed":
                    verdict = "refuted"
    for sign in (1, -1):
        persistent = [
            errsets[i][0]
            for i, e in enumerate(eps_list)
            if np.sign(e) == sign and len(errsets[i]) == 1
        ]
        if not _errors_nonincreasing(persistent, 0.10, 1e-9):
            details.append(
                f"persistent-root asymptotic error not decreasing on side "
                f"{'+' if sign > 0 else '-'}: {persistent}"
            )
            if verdict == "confirmed":
                verdict = "refuted"

    return Verification(
        tuple(eps_list),
        tuple(counts),
        tuple(kindsets),
        tuple(sums),
        tuple(errsets),
        verdict,
        tuple(details),
    )


def verify(
    family: TimeFamily,
    p0,
    opts: SearchOptions = DEFAULT_SEARCH,
    *,
    tol: float = DECISION_TOL,
    eps_scale: float = 1.0,
    ladder=None,
) -> Verification:
    """Root counts/kinds/index sums across an eps ladder, with a verdict.

    The base field must have a simple degenerate zero at p0.  Each rung
    searches the frame-local field at offset eps in a box scaled to the
    predicted branch separation.
    """
    return analyze(
        family, p0, opts, tol=tol, eps_scale=eps_scale, ladder=ladder,
        run_verification=True,
    ).verification


def analyze(
    family: TimeFamily,
    p0,
    opts: SearchOptions = DEFAULT_SEARCH,
    *,
    tol: float = DECISION_TOL,
    eps_scale: float = 1.0,
    ladder=None,
    run_verification: bool = True,
) -> BifurcationReport:
    """Full decision + branch table + optional ladder verification."""
    d = extract_degeneracy(family.base, p0, opts)
    p = extract_perturbation(family.accel, d.frame)
    decision = decide(d, p, tol=tol)
    if decision == "indeterminate":
        verification = None
        if run_verification:
            verification = Verification(
                (), (), (), (), (), "inconclusive",
                ("indeterminate family: nothing to verify against",),
            )
        return BifurcationReport(
            decision, "n/a", (), d, p, verification,
            ("lambda0 = 0 and the genericity combination vanishes; "
             "the split is not determined at first order",),
        )
    pred = branch_asymptotics(d, p, tol=tol)
    verification = None
    if run_verification:
        verification = _run_ladder(
            family, d, decision, pred, opts, eps_scale, ladder
        )
    return BifurcationReport(
        decision, pred.side, pred.branches, d, p, verification, pred.notes
    )


# ---------------------------------------------------------------------------
# genericity classes of symmetric families


@dataclass(frozen=True)
class GenericityReport:
    symmetry: str  # "anti" | "reflectional" | "none"
    in_generic_subset: bool
    failed_conditions: tuple[str, ...]


def check_generic_membership(
    family: TimeFamily,
    p0,
    opts: SearchOptions = DEFAULT_SEARCH,
    *,
    tol: float = DECISION_TOL,
) -> GenericityReport:
    """Membership in the generic subset of the family's symmetry class.

    Anti-symmetric families (both fields odd about p0) are generic when the
    degenerate zero has k = 3, n = 3, lam^2*k + alpha*beta != 0 and
    lambda2 != 0; axis-symmetric families (first component even, second odd
    across the axis through p0) when k = 2, n = 3, lam^2*k + alpha*beta != 0
    and 2*lam*lambda1 + alpha*lambda2 != 0.  Both symmetries force
    lambda0 = 0, so membership settles the split/no-split question.
    """
    base, accel = family.base, family.accel
    anti = base.check_antisymmetric(p0) and accel.check_antisymmetric(p0)

    d = None
    refusal = ""
    try:
        d = extract_degeneracy(base, p0, opts)
    except (AnalysisRefusal, InvalidCaseDataError) as exc:
        refusal = str(exc)

    refl = False
    if not anti:
        refl = base.check_reflectional(p0) and accel.check_reflectional(p0)
        if not refl and d is not None:
            wb = base.in_frame(d.frame)
            wa = accel.in_frame(d.frame)
            refl = wb.check_reflectional((0.0, 0.0)) and wa.check_reflectional(
                (0.0, 0.0)
            )

    symmetry = "anti" if anti else ("reflectional" if refl else "none")
    if symmetry == "none":
        return GenericityReport(
            "none", False, ("anti- or axis-symmetry of base and perturbation",)
        )
    if d is None:
        return GenericityReport(
            symmetry, False, (f"simple degenerate zero at the point ({refusal})",)
        )

    p = extract_perturbation(accel, d.frame)
    nondeg = d.lam**2 * d.k + d.alpha * d.beta
    if symmetry == "anti":
        checks = [
            ("contact order k = 3", d.k == 3),
            ("contact order n = 3", d.n == 3),
            ("lam^2*k + alpha*beta != 0", abs(nondeg) > tol),
            ("lambda2 != 0", abs(p.lambda2) > tol),
        ]
    else:
        checks = [
            ("contact order k = 2", d.k == 2),
            ("contact order n = 3", d.n == 3),
            ("lam^2*k + alpha*beta != 0", abs(nondeg) > tol),
            (
                "2*lam*lambda1 + alpha*lambda2 != 0",
                abs(2 * d.lam * p.lambda1 + d.alpha * p.lambda2) > tol,
            ),
        ]
    failed = tuple(name for name, ok in checks if not ok)
    return GenericityReport(symmetry, not failed, failed)
