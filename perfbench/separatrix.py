"""Workload ``separatrix``: ``signature`` on both sides of the split families.

The families are those of acceptance criterion 9, rebuilt here from their
normal-form parameters: base - eps*u1 at eps = +-1e-3, on the box of half
width 10 * |x| of the predicted outer root.  Expected nodes are the
closed-form zeros with their Jacobian signs; expected edges follow from the
split type:

- one saddle: its four separatrices leave the box;
- saddle split, three-root side: the two saddles are joined by two
  connections around the center, and each keeps two separatrices to the box;
- center split, three-root side: the saddle's separatrices close up into
  two homoclinic loops, one around each center (criterion 5).

A pair's signatures must differ exactly when a split is predicted.
``k3n5`` and ``k3n7`` are left out for run length: one side of ``k3n5``
alone takes twice as long as the eight signatures below together, and
``k3n7`` about 2.5 times as long again.
"""

from __future__ import annotations

import normalform as nf
from ops import Op

EPS = 1e-3
# name: (params, u1 as (a0, b0, b1), split type, half width of the box)
FAMILIES = {
    "persistent": ((1, 1, 1, 2, 3), (0, 1, 0), "none", 10 * (EPS / 3) ** (1 / 3)),
    "k2n3": ((1, 1, 1, 2, 3), (1, 0, 0), "saddle", 10 * (2 * EPS / 3) ** 0.5),
    "k2n5": ((1, 1, 1, 2, 5), (1, 0, 0), "saddle", 10 * EPS**0.5),
    "k3n3": ((1, -1, 1, 3, 3), (0, 0, 1), "center", 10 * EPS**0.5),
}
SIDES = (EPS, -EPS)


def offset_terms(params, shift, eps):
    u, v = nf.terms(params)
    a0, b0, b1 = shift
    u[(0, 0)] = u.get((0, 0), 0.0) - eps * a0
    v[(0, 0)] = v.get((0, 0), 0.0) - eps * b0
    v[(1, 0)] = v.get((1, 0), 0.0) - eps * b1
    return u, v


def expected_signature(name, eps):
    params, shift, split, half = FAMILIES[name]
    zeros = nf.family_zeros(params, shift, eps, half)
    kinds = tuple(z[2] for z in zeros)
    if kinds == ("saddle",):
        edges = ((0, "B", 4),)
    elif split == "saddle" and kinds == ("saddle", "center", "saddle"):
        edges = ((0, 2, 2), (0, "B", 2), (2, "B", 2))
    elif split == "center" and kinds == ("center", "saddle", "center"):
        edges = ((1, 1, 2),)
    elif kinds == ("center",):
        edges = ()
    else:
        raise ValueError(f"{name} at {eps:g}: no expected graph for {kinds}")
    index = kinds.count("center") - kinds.count("saddle")
    return kinds, edges, index, zeros


def _answer(nodes, edges, loops, index, flags):
    return repr((tuple(nodes), tuple(edges), loops, index, tuple(flags)))


def build(pkg):
    """The operations, and the pair checks to run after each pass."""
    ops, sigs = [], {}
    for name, (params, shift, _, half) in FAMILIES.items():
        box = (-half, -half, half, half)
        for eps in SIDES:
            field = pkg.PolyVectorField.from_terms(*offset_terms(params, shift, eps))
            kinds, edges, index, _ = expected_signature(name, eps)
            want = _answer(kinds, edges, kinds.count("center"), index, ())

            def call(field=field, box=box, key=(name, eps)):
                sig = sigs[key] = pkg.signature(field, box)
                return _answer(sig.nodes, sig.edges, sig.loops, sig.index_total, sig.flags)

            def check(answer, want=want):
                return None if answer == want else f"signature {answer}, expected {want}"

            ops.append(Op(f"signature {name} {eps:+g}", "signature", call, check))

    def pair_checks():
        """Criterion 9: a pair changes its graph exactly when it splits.

        The package's ``equivalent`` decides; the closed-form expectations
        of the two sides must agree with it.
        """
        results = []
        for name, (_, _, split, _) in FAMILIES.items():
            if any((name, eps) not in sigs for eps in SIDES):
                results.append((f"pair {name}", "missing", "a side failed"))
                continue
            a, b = (sigs[(name, eps)] for eps in SIDES)
            changed = not pkg.equivalent(a, b)
            want = split != "none"
            ea, eb = (expected_signature(name, eps)[:3] for eps in SIDES)
            ok = changed == want and (ea != eb) == want
            problem = None if ok else f"signature changed={changed}, split predicted={want}"
            results.append((f"pair {name}", f"changed={changed}", problem))
        return results

    return ops, pair_checks
