"""Seeded rigid motions and amplitude scales of the normal forms.

Each case moves one gallery normal form (S5 excluded) by a rotation about
a random origin within +-0.5 and scales its amplitude by 10^e with e in
[-6, 6].  The search box is the +-0.5 square around the moved zero.  The
expected answer is the moved image of every closed-form zero that falls in
the box: the degenerate zero keeps its label and index, the others keep
their Jacobian sign.  The package only ever sees the resulting coefficients.
"""

from __future__ import annotations

import ast
import math
import random
from dataclasses import dataclass

import normalform as nf
from ops import Op, match_points

FORMS = ("s1", "s2", "s3", "s4", "s6", "s7")
HALF = 0.5
# a zero this close to the box edge makes "inside the box" ill-posed
EDGE_MARGIN = 0.02
# rounding the moved coefficients shifts a zero of multiplicity m <= 3 by
# about (1e-16)^(1/m); anything within this distance is the same zero
LOCATE_TOL = 1e-4
# The timed catalogue.  Seed-drawn catalogues differ up to 9x in cost (one
# s6 case alone can take a minute), which no bound could absorb, so every
# run times the same one: catalogue 1 is the median by total
# find_singular_points time of catalogues 1-11 (15.3 s of 6.9-61.9 s, on a
# 2-core x86-64 host); 5 of its 6 cases come back wrong, against 54 of all
# 66 cases.
CATALOGUE = 1
# Cases of CATALOGUE answered wrongly today (ROADMAP item 2: the search is
# not invariant under rigid motions and amplitude scale).  Only these may
# fail without failing the run.
BASELINE_WRONG = {"s2@e+0.19", "s3@e+5.52", "s4@e-5.54", "s6@e+2.05", "s7@e-3.57"}


@dataclass(frozen=True)
class Case:
    name: str
    u_terms: dict
    v_terms: dict
    box: tuple
    expected: tuple  # ((x, y, kind, case, index), ...) sorted by (x, y)


def _mul(a, b):
    out = {}
    for (i, j), c in a.items():
        for (p, q), d in b.items():
            out[(i + p, j + q)] = out.get((i + p, j + q), 0.0) + c * d
    return out


def _add(a, b, sb=1.0):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0.0) + sb * c
    return out


def _compose(poly, xi, eta):
    """poly(xi(x, y), eta(x, y)) for affine xi, eta given as term maps."""
    out = {}
    for (i, j), c in poly.items():
        term = {(0, 0): c}
        for _ in range(i):
            term = _mul(term, xi)
        for _ in range(j):
            term = _mul(term, eta)
        out = _add(out, term)
    return {key: c for key, c in out.items() if c != 0.0}


def moved_terms(params, origin, theta, amp):
    """Coefficients of amp * R f(R^T (p - origin))."""
    c, s = math.cos(theta), math.sin(theta)
    ox, oy = origin
    xi = {(1, 0): c, (0, 1): s, (0, 0): -(c * ox + s * oy)}
    eta = {(1, 0): -s, (0, 1): c, (0, 0): s * ox - c * oy}
    fu_t, fv_t = nf.terms(params)
    fu, fv = _compose(fu_t, xi, eta), _compose(fv_t, xi, eta)
    wu = _add({k: amp * c * v for k, v in fu.items()}, {k: amp * s * v for k, v in fv.items()}, -1.0)
    wv = _add({k: amp * s * v for k, v in fu.items()}, {k: amp * c * v for k, v in fv.items()})
    return wu, wv


def _draw(rng, form):
    params, label, index = nf.GALLERY_FIELDS[form]
    while True:
        origin = (rng.uniform(-HALF, HALF), rng.uniform(-HALF, HALF))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        expected = [(origin[0], origin[1], "degenerate", label, index)]
        ill_posed = False
        for zx, zy in nf.zeros(params)[1:]:
            # rotated offset from the box centre; the box is +-HALF around it
            dx, dy = c * zx - s * zy, s * zx + c * zy
            gap = HALF - max(abs(dx), abs(dy))
            if abs(gap) < EDGE_MARGIN:
                ill_posed = True
            elif gap > 0:
                expected.append(
                    (origin[0] + dx, origin[1] + dy, nf.kind(params, zx, zy), "", None)
                )
        if not ill_posed:
            return origin, theta, tuple(sorted(expected))


def generate(seed: int):
    """One case per form; the six amplitude exponents are stratified over
    [-6, 6] and dealt to the forms in seeded order."""
    rng = random.Random(seed)
    strata = list(range(len(FORMS)))
    rng.shuffle(strata)
    cases = []
    for form, stratum in zip(FORMS, strata):
        exponent = -6.0 + 12.0 * (stratum + rng.random()) / len(FORMS)
        origin, theta, expected = _draw(rng, form)
        amp = 10.0**exponent
        wu, wv = moved_terms(nf.GALLERY_FIELDS[form][0], origin, theta, amp)
        box = (origin[0] - HALF, origin[1] - HALF, origin[0] + HALF, origin[1] + HALF)
        cases.append(Case(f"{form}@e{exponent:+.2f}", wu, wv, box, expected))
    return cases


def _row(pt):
    d = pt.degeneracy
    if d is not None:
        case, index = d.case_label, d.index
    else:
        case, index = "", {"saddle": -1, "center": 1}.get(pt.kind)
    return (float(pt.location[0]), float(pt.location[1]), pt.kind, case, index)


def build(pkg):
    """One find_singular_points operation per case."""
    ops = []
    for case in generate(CATALOGUE):
        field = pkg.PolyVectorField.from_terms(case.u_terms, case.v_terms)

        def call(field=field, box=case.box):
            return repr([_row(pt) for pt in pkg.find_singular_points(field, box)])

        def check(answer, expected=case.expected):
            return match_points(ast.literal_eval(answer), expected, LOCATE_TOL)

        known = case.name in BASELINE_WRONG
        ops.append(Op(f"classify {case.name}", "classify", call, check, known_defect=known))
    return ops
