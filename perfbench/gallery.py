"""Workload ``gallery``: every CLI subcommand over gallery/, in-process.

Expected answers come from gallery/README.md (labels, indices, decisions,
sides, branch exponents) and from the closed-form normal form
(normalform.py), never from the package's own output.
"""

from __future__ import annotations

import glob
import re

import normalform as nf
from ops import Op, cli_call, match_points, parse_points, split_answer

FIELDS = ("s1", "s2", "s3", "s4", "s5", "s6", "s7")
DEFAULT_BOX = 1.0  # the CLI's default box is [-1, 1]^2

# gallery/README.md family table, plus branch exponents: the outer split
# branches move like |eps|^(1/2) or |eps|^(1/4) (README), the persistent
# root like (eps/3)^(1/3) (x^3 = eps/3 on u = 0).
FAMILIES = {
    "persistent_root": ("no-bifurcation", "n/a", {"x0": "1/3"}, ("S4", -1)),
    "saddle_split": ("saddle-split", "t<t0", {"x-": "1/2", "x+": "1/2"}, ("S4", -1)),
    "center_split": ("center-split", "t>t0", {"x-": "1/2", "x+": "1/2"}, ("S3", 1)),
    "quartic_split": ("saddle-split", "t<t0", {"x-": "1/4", "x+": "1/4"}, None),
    "slow_split": ("saddle-split", "t<t0", {"x-": "1/4", "x+": "1/4"}, None),
}
EPS_SCALE = {"center_split": "0.1"}  # README: keeps the boxes off a far saddle pair

# Separatrix graphs of the fields with saddles in the default box.  Nodes
# are sorted by (x, y); "B" is the box boundary.  s1: the saddle's level set
# psi = psi(saddle) misses the cusp (psi = 0), and a homoclinic loop would
# need index +1 inside, so all four separatrices leave the box.  s3: the
# field is odd, both saddles share one psi value and are joined by two
# connections around the S3 point; each keeps two separatrices to the box.
EDGES = {
    "s1": [(0, "B", 4)],
    "s3": [(0, 2, 2), (0, "B", 2), (2, "B", 2)],
}
RENDER_FIELD = "s1"
TRACE_SEED = (0.3, 0.2)


def expected_points(name, half=DEFAULT_BOX):
    """Closed-form zeros in the box as (x, y, kind, case, index) rows."""
    params, label, index = nf.GALLERY_FIELDS[name]
    rows = [(0.0, 0.0, "degenerate", label, index)]
    for x, y in nf.zeros(params)[1:]:
        if max(abs(x), abs(y)) < half:
            kind = nf.kind(params, x, y)
            rows.append((x, y, kind, "", -1 if kind == "saddle" else 1))
    return sorted(rows)


def _check_check(answer):
    rc, out = split_answer(answer)
    return None if rc == 0 and out.startswith("divergence: ok") else f"rc={rc} {out!r}"


def _check_index(name):
    want = nf.GALLERY_FIELDS[name][2]

    def check(answer):
        rc, out = split_answer(answer)
        if want is None:  # S5: the zero set is a curve through every circle
            return None if rc == 1 and not out else f"rc={rc} {out!r}, expected refusal"
        first = out.splitlines()[0] if out else ""
        return None if rc == 0 and first == f"index={want}" else f"rc={rc} {first!r}, expected index={want}"

    return check


def _check_classify(name):
    expected = expected_points(name)

    def check(answer):
        rc, out = split_answer(answer)
        if rc != 0:
            return f"rc={rc}"
        return match_points(parse_points(out), expected, 1e-6)

    return check


def check_s5_classify(rc, out):
    """S5 must be refused or reported without a confident non-S5 label."""
    if rc == 2:
        return None
    if rc != 0:
        return f"rc={rc}"
    for x, y, kind, case, _ in parse_points(out):
        if max(abs(x), abs(y)) < 1e-3 and (case not in ("", "S5") or kind in ("saddle", "center")):
            return f"origin labelled {kind} {case}"
    return None


def _check_signature(name):
    points = expected_points(name)
    kinds = [row[2] for row in points]
    edges = sorted(EDGES.get(name, []), key=str)
    index = sum(row[4] for row in points)

    def check(answer):
        rc, out = split_answer(answer)
        if rc != 0:
            return f"rc={rc}"
        got_kinds = re.findall(r"^node \d+: (\S+) at", out, re.M)
        got_edges = sorted(
            ((int(a) if a != "B" else a, int(b) if b != "B" else b, int(m))
             for a, b, m in re.findall(r"^edge (\w+)-(\w+) multiplicity (\d+)", out, re.M)),
            key=str,
        )
        want = f"loops={kinds.count('center')}\nindex={index}\n"
        flagged = re.search(r"^flags=", out, re.M)
        if got_kinds != kinds or got_edges != edges or want not in out or flagged:
            return f"signature {out!r}, expected nodes {kinds} edges {edges} {want!r} and no flags"
        return None

    return check


def _check_bifurcate(family):
    decision, side, exponents, base = FAMILIES[family]

    def check(answer):
        rc, out = split_answer(answer)
        problems = []
        if rc != 0:
            problems.append(f"rc={rc}")
        if f"decision={decision} side={side}\n" not in out:
            problems.append(f"expected decision={decision} side={side}")
        if "verification: verdict=confirmed\n" not in out:
            problems.append("verdict is not confirmed")
        for label, exp in exponents.items():
            if not re.search(rf"^  {re.escape(label)} exponent={exp} ", out, re.M):
                problems.append(f"branch {label} exponent is not {exp}")
        if base and f"case={base[0]} index={base[1]}\n" not in out:
            problems.append(f"base is not {base[0]} index {base[1]}")
        return "; ".join(problems) or None

    return check


def _check_render(out_dir):
    params = nf.GALLERY_FIELDS[RENDER_FIELD][0]
    saddle = nf.zeros(params)[1]
    psi0 = nf.stream(params, *saddle)

    def check(answer):
        rc, out = split_answer(answer)
        if rc != 0 or out.splitlines() != [f"{out_dir}/render.svg", f"{out_dir}/render.csv"]:
            return f"rc={rc} {out!r}"
        with open(f"{out_dir}/render.svg", encoding="utf-8") as fh:
            svg = fh.read()
        with open(f"{out_dir}/render.csv", encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if not svg.rstrip().endswith("</svg>") or svg.count("<circle") != 2 or svg.count("<polyline") != 4:
            return "svg does not hold 2 nodes and 4 separatrices"
        orbits = {}
        for row in rows[1:]:
            i, _, x, y = row.split(",")
            orbits.setdefault(i, []).append((float(x), float(y)))
        if rows[0] != "orbit,vertex,x,y" or sorted(orbits) != ["0", "1", "2", "3"]:
            return "csv does not hold 4 orbits"
        for pts in orbits.values():
            ends = (pts[0], pts[-1])
            near = [p for p in ends if abs(p[0] - saddle[0]) + abs(p[1] - saddle[1]) < 1e-2]
            far = [p for p in ends if max(abs(p[0]), abs(p[1])) >= DEFAULT_BOX - 1e-9]
            if len(near) != 1 or len(far) != 1:
                return f"orbit {pts[0]}..{pts[-1]} does not join the saddle to the box edge"
            drift = max(abs(nf.stream(params, *p) - psi0) for p in pts)
            if drift > 1e-3:
                return f"stream function drifts by {drift:.3g} along a separatrix"
        return None

    return check


def _check_trace(answer):
    rc, out = split_answer(answer)
    params = nf.GALLERY_FIELDS["s4"][0]
    m = re.search(r"^first=\((\S+), (\S+)\) last=\((\S+), (\S+)\)$", out, re.M)
    if rc != 0 or "start=seed end=box-exit" not in out or not m:
        return f"rc={rc} {out!r}"
    x0, y0, x1, y1 = map(float, m.groups())
    if (x0, y0) != TRACE_SEED or max(abs(x1), abs(y1)) < DEFAULT_BOX - 1e-9:
        return f"orbit {(x0, y0)}..{(x1, y1)} does not run from the seed to the box edge"
    drift = abs(nf.stream(params, x1, y1) - nf.stream(params, x0, y0))
    return None if drift <= 1e-3 else f"stream function drifts by {drift:.3g}"


def build(pkg, root, out_dir):
    """The in-process operations; ``classify s5`` runs apart, under a deadline."""
    g = f"{root}/gallery"
    ops = []
    for name in FIELDS:
        path = f"{g}/{name}.field"
        ops.append(Op(f"check {name}", "check", cli_call(pkg, ["check", path]), _check_check))
        ops.append(Op(
            f"index {name}", "index",
            cli_call(pkg, ["index", path, "--center", "0", "0", "--radius", "0.1"]),
            _check_index(name),
        ))
        if name == "s5":
            continue
        ops.append(Op(f"classify {name}", "classify", cli_call(pkg, ["classify", path]), _check_classify(name)))
        ops.append(Op(f"signature {name}", "signature", cli_call(pkg, ["signature", path]), _check_signature(name)))
    for family in FAMILIES:
        argv = ["bifurcate", f"{g}/{family}.family", "--point", "0", "0"]
        if family in EPS_SCALE:
            argv += ["--eps-scale", EPS_SCALE[family]]
        ops.append(Op(f"bifurcate {family}", "bifurcate", cli_call(pkg, argv), _check_bifurcate(family)))
    ops.append(Op(
        f"render {RENDER_FIELD}", "render",
        cli_call(pkg, ["render", f"{g}/{RENDER_FIELD}.field", "--out", f"{out_dir}/render.svg"]),
        _check_render(out_dir),
    ))
    ops.append(Op(
        "trace s4", "trace",
        cli_call(pkg, ["trace", f"{g}/s4.field", "--seed", *map(str, TRACE_SEED)]),
        _check_trace,
    ))
    return ops


def parse_inputs(pkg, root):
    """Set-up work: parse every gallery file once."""
    return [pkg.load_field_file(p) for p in sorted(glob.glob(f"{root}/gallery/*.f*"))]
