"""Command-line entry point.

Subcommands: check, classify, index, bifurcate, trace, signature, render.
Results go to stdout, warnings and errors to stderr, so CSV piping stays
clean.  Exit codes: 0 success, 1 operational error (bad file, bad flags,
zero-on-curve, step limit), 2 analysis refusal (S5, not-simple,
indeterminate verdicts).  All numbers are printed with 12 significant
digits and identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass

from . import __version__
from .bifurcation import DEFAULT_LADDER, analyze
from .errors import AnalysisRefusal, FlowbifError
from .field import PolyVectorField, TimeFamily
from .fieldfile import load_field_file
from .render import render_portrait, write_portrait
from .singular import DEFAULT_SEARCH, SearchOptions, find_singular_points
from .topology import integrate_streamline, separatrix_portrait
from .winding import winding_index

DEFAULT_BOX = (-1.0, -1.0, 1.0, 1.0)


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _pt(p) -> str:
    return f"({_fmt(p[0])}, {_fmt(p[1])})"


class _UsageError(Exception):
    pass


_DIGITS = r"\d(?:_?\d)*"
# any negative float literal; argparse 3.11 knows only -12 and -1.5, so it
# would read -1e-3 as an option (-inf and -nan then fail the finite check)
_NEGATIVE_NUMBER = re.compile(
    rf"^-(?:(?:{_DIGITS})?\.{_DIGITS}|{_DIGITS}\.?)(?:e[+-]?{_DIGITS})?$|^-(?:inf|infinity|nan)$",
    re.IGNORECASE,
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits 2 on bad flags; 2 is reserved for analysis refusals here
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated flags for one invocation."""

    subcommand: str
    path: str | None = None
    box: tuple[float, float, float, float] = DEFAULT_BOX
    tol: float | None = None
    ladder: tuple[float, ...] | None = None
    eps_scale: float = 1.0
    fmt: str = "text"
    out: str | None = None
    strict: bool = False
    point: tuple[float, float] | None = None
    radius: float | None = None
    backward: bool = False
    no_verify: bool = False

    def __post_init__(self):
        numbers = [*self.box, *(self.point or ()), *(self.ladder or ()), self.eps_scale]
        numbers += [x for x in (self.tol, self.radius) if x is not None]
        bad = [x for x in numbers if not math.isfinite(x)]
        if bad:
            raise _UsageError(f"numeric flags must be finite, got {bad[0]}")
        x0, y0, x1, y1 = self.box
        if not (x0 < x1 and y0 < y1):
            raise _UsageError(f"degenerate box {self.box}")
        if self.tol is not None and not self.tol > 0:
            raise _UsageError(f"tolerance must be positive, got {self.tol}")
        if self.radius is not None and not self.radius > 0:
            raise _UsageError(f"radius must be positive, got {self.radius}")
        if not self.eps_scale > 0:
            raise _UsageError(f"eps-scale must be positive, got {self.eps_scale}")
        if self.ladder is not None:
            if len(self.ladder) < 2:
                raise _UsageError("eps ladder needs at least two values")
            if any(e == 0 for e in self.ladder):
                raise _UsageError("eps ladder values must be nonzero")
            mags = [abs(e) for e in self.ladder]
            if mags != sorted(mags, reverse=True):
                raise _UsageError("eps ladder must be sorted by |eps| descending")
        if self.fmt not in ("text", "csv"):
            raise _UsageError(f"unknown format {self.fmt!r}")


def _load(cfg: RunConfig):
    parsed = load_field_file(cfg.path, strict=cfg.strict)
    for w in parsed.warnings:
        print(f"warning: {cfg.path}: {w}", file=sys.stderr)
    return parsed.value


def _need_field(cfg: RunConfig) -> PolyVectorField:
    value = _load(cfg)
    if isinstance(value, TimeFamily):
        raise FlowbifError(
            f"{cfg.subcommand} expects a single-field file, got a family"
        )
    return value


def _need_family(cfg: RunConfig) -> TimeFamily:
    value = _load(cfg)
    if not isinstance(value, TimeFamily):
        raise FlowbifError(
            f"{cfg.subcommand} expects a family file (t0 plus u0/u1 blocks)"
        )
    return value


def _search_opts(cfg: RunConfig) -> SearchOptions:
    return DEFAULT_SEARCH if cfg.tol is None else SearchOptions(res_tol=cfg.tol)


# ---------------------------------------------------------------------------
# subcommands


def _run_check(cfg: RunConfig) -> int:
    value = _load(cfg)
    report = value.check_divergence_free()
    if report.ok:
        print(f"divergence: ok (worst violation {_fmt(report.worst_violation)})")
        return 0
    i, j = report.worst_term
    print(
        f"divergence: violated ({_fmt(report.worst_violation)} "
        f"at monomial x^{i} y^{j})"
    )
    return 1


def _classify_row(pt) -> dict:
    row = {
        "x": _fmt(pt.location[0]),
        "y": _fmt(pt.location[1]),
        "kind": pt.kind,
        "index": "" if pt.index is None else str(pt.index),
        "case": "",
        "alpha": "",
        "beta": "",
        "lam": "",
        "k": "",
        "n": "",
    }
    d = pt.degeneracy
    if d is not None:
        row.update(
            case=d.case_label,
            alpha=_fmt(d.alpha),
            beta=_fmt(d.beta),
            lam=_fmt(d.lam),
            k=str(d.k),
            n=str(d.n),
        )
    return row


def _run_classify(cfg: RunConfig) -> int:
    field = _need_field(cfg)
    field.stream_function()  # refuse a field without one before searching
    points = find_singular_points(field, cfg.box, _search_opts(cfg))
    rows = [_classify_row(pt) for pt in points]
    cols = ["x", "y", "kind", "index", "case", "alpha", "beta", "lam", "k", "n"]
    if cfg.fmt == "csv":
        print(",".join(cols))
        for row in rows:
            print(",".join(row[c] for c in cols))
        return 0
    if not rows:
        print("no singular points in box")
        return 0
    for pt, row in zip(points, rows):
        parts = [f"x={row['x']} y={row['y']} kind={row['kind']}"]
        if row["case"]:
            parts.append(f"case={row['case']}")
        if row["index"]:
            parts.append(f"index={row['index']}")
        if row["case"]:
            parts.append(
                f"alpha={row['alpha']} beta={row['beta']} lam={row['lam']} "
                f"k={row['k']} n={row['n']}"
            )
        if pt.note:
            parts.append(f"note={pt.note!r}")
        print(" ".join(parts))
    return 0


def _run_index(cfg: RunConfig) -> int:
    field = _need_field(cfg)
    kw = {} if cfg.tol is None else {"zero_tol": cfg.tol}
    res = winding_index(field, cfg.point, cfg.radius, **kw)
    print(f"index={res.winding}")
    print(
        f"center={_pt(cfg.point)} radius={_fmt(cfg.radius)} "
        f"samples={res.samples} min|u|={_fmt(res.min_magnitude)} "
        f"max|u|={_fmt(res.max_magnitude)}"
    )
    return 0


def _branch_rows(report):
    rows = []
    for b in report.branches:
        rows.append(
            {
                "label": b.label,
                "exponent": str(b.leading_exponent),
                "exponent_float": _fmt(float(b.leading_exponent)),
                "coefficient": "-"
                if b.leading_coefficient is None
                else _fmt(b.leading_coefficient),
                "kind": b.kind,
            }
        )
    return rows


def _verification_rows(ver):
    rows = []
    for i, eps in enumerate(ver.eps_list):
        errs = ver.asymptotic_errors[i]
        rows.append(
            {
                "eps": _fmt(eps),
                "roots": str(ver.root_counts[i]),
                "types": "+".join(ver.type_counts[i]) or "-",
                "index_sum": "?" if ver.index_sums[i] is None else str(ver.index_sums[i]),
                "errors": "|".join(_fmt(e) for e in errs) or "-",
            }
        )
    return rows


def _run_bifurcate(cfg: RunConfig) -> int:
    family = _need_family(cfg)
    report = analyze(
        family,
        cfg.point,
        _search_opts(cfg),
        eps_scale=cfg.eps_scale,
        ladder=cfg.ladder,
        run_verification=not cfg.no_verify,
    )
    d = report.degeneracy
    p = report.perturbation
    head = (
        f"decision={report.decision} side={report.side} "
        f"case={d.case_label} index={d.index}"
    )
    if cfg.fmt == "csv":
        print(f"# {head}")
        print("label,exponent,coefficient,kind")
        for row in _branch_rows(report):
            print(
                f"{row['label']},{row['exponent_float']},"
                f"{row['coefficient']},{row['kind']}"
            )
        if report.verification is not None:
            print()
            print("eps,roots,types,index_sum,errors")
            for row in _verification_rows(report.verification):
                print(
                    f"{row['eps']},{row['roots']},{row['types']},"
                    f"{row['index_sum']},{row['errors']}"
                )
            print(f"# verdict={report.verification.verdict}")
    else:
        print(f"point={_pt(cfg.point)} case={d.case_label} index={d.index}")
        print(
            f"alpha={_fmt(d.alpha)} beta={_fmt(d.beta)} lam={_fmt(d.lam)} "
            f"k={d.k} n={d.n}"
        )
        print(
            f"lambda0={_fmt(p.lambda0)} lambda1={_fmt(p.lambda1)} "
            f"lambda2={_fmt(p.lambda2)} lambda3={_fmt(p.lambda3)}"
        )
        print(f"decision={report.decision} side={report.side}")
        for note in report.notes:
            print(f"note: {note}")
        if report.branches:
            print("branches:")
            for row in _branch_rows(report):
                print(
                    f"  {row['label']} exponent={row['exponent']} "
                    f"coefficient={row['coefficient']} kind={row['kind']}"
                )
        if report.verification is not None:
            ver = report.verification
            print(f"verification: verdict={ver.verdict}")
            for row in _verification_rows(ver):
                print(
                    f"  eps={row['eps']} roots={row['roots']} "
                    f"types={row['types']} index_sum={row['index_sum']} "
                    f"errors={row['errors']}"
                )
            for dline in ver.details:
                print(f"  {dline}")
    if report.decision == "indeterminate":
        return 2
    return 0


def _run_trace(cfg: RunConfig) -> int:
    field = _need_field(cfg)
    orbit = integrate_streamline(field, cfg.point, cfg.box, backward=cfg.backward)
    if cfg.fmt == "csv":
        print("vertex,x,y")
        for i, q in enumerate(orbit.points):
            print(f"{i},{_fmt(q[0])},{_fmt(q[1])}")
        return 0
    print(
        f"seed={_pt(cfg.point)} start={orbit.start_kind} end={orbit.end_kind} "
        f"vertices={len(orbit.points)}"
    )
    print(f"first={_pt(orbit.points[0])} last={_pt(orbit.points[-1])}")
    if orbit.flags:
        print("flags=" + ",".join(orbit.flags))
    return 0


def _run_signature(cfg: RunConfig) -> int:
    field = _need_field(cfg)
    sig, points, _ = separatrix_portrait(field, cfg.box, search_opts=_search_opts(cfg))
    if cfg.fmt == "csv":
        print("node,kind,x,y")
        for i, pt in enumerate(points):
            print(f"{i},{sig.nodes[i]},{_fmt(pt.location[0])},{_fmt(pt.location[1])}")
        print()
        print("from,to,multiplicity")
        for i, j, m in sig.edges:
            print(f"{i},{j},{m}")
        print(f"# loops={sig.loops} index={sig.index_total} flags={','.join(sig.flags)}")
        return 0
    for i, pt in enumerate(points):
        print(f"node {i}: {sig.nodes[i]} at {_pt(pt.location)}")
    for i, j, m in sig.edges:
        print(f"edge {i}-{j} multiplicity {m}")
    print(f"loops={sig.loops}")
    print(f"index={sig.index_total}")
    if sig.flags:
        print("flags=" + ",".join(sig.flags))
    return 0


def _run_render(cfg: RunConfig) -> int:
    field = _need_field(cfg)
    portrait = render_portrait(field, cfg.box, search_opts=_search_opts(cfg))
    svg_path, csv_path = write_portrait(portrait, cfg.out)
    print(svg_path)
    print(csv_path)
    return 0


_RUNNERS = {
    "check": _run_check,
    "classify": _run_classify,
    "index": _run_index,
    "bifurcate": _run_bifurcate,
    "trace": _run_trace,
    "signature": _run_signature,
    "render": _run_render,
}


def run(cfg: RunConfig) -> int:
    return _RUNNERS[cfg.subcommand](cfg)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub, *, box=False, fmt=False, tol=False):
    sub.add_argument("path", metavar="FILE", help="field or family file")
    sub.add_argument(
        "--strict", action="store_true",
        help="treat divergence violations as errors",
    )
    if box:
        sub.add_argument(
            "--box", nargs=4, type=float, metavar=("X0", "Y0", "X1", "Y1"),
            default=list(DEFAULT_BOX), help="axis-aligned search box",
        )
    if fmt:
        sub.add_argument(
            "--format", choices=("text", "csv"), default="text", dest="fmt",
            help="output format",
        )
    if tol:
        sub.add_argument("--tol", type=float, help="tolerance override")


def build_parser() -> _Parser:
    parser = _Parser(prog="flowbif", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    _add_common(subs.add_parser("check", help="divergence-free check"))

    sub = subs.add_parser("classify", help="find and classify singular points")
    _add_common(sub, box=True, fmt=True, tol=True)

    sub = subs.add_parser("index", help="winding index along a circle")
    _add_common(sub, tol=True)
    sub.add_argument(
        "--center", nargs=2, type=float, metavar=("X", "Y"), required=True
    )
    sub.add_argument("--radius", type=float, required=True)

    sub = subs.add_parser("bifurcate", help="predict and verify a bifurcation")
    _add_common(sub, fmt=True, tol=True)
    sub.add_argument(
        "--point", nargs=2, type=float, metavar=("X", "Y"), required=True,
        help="degenerate zero of the base field",
    )
    sub.add_argument(
        "--eps-ladder", nargs="+", type=float, metavar="EPS", dest="ladder",
        help="offset magnitudes, |eps| descending "
        f"(default {' '.join(str(e) for e in DEFAULT_LADDER)})",
    )
    sub.add_argument(
        "--eps-scale", type=float, default=1.0,
        help="shrink factor applied to the default ladder",
    )
    sub.add_argument(
        "--no-verify", action="store_true", help="skip the numerical ladder"
    )

    sub = subs.add_parser("trace", help="integrate one streamline")
    _add_common(sub, box=True, fmt=True)
    sub.add_argument(
        "--seed", nargs=2, type=float, metavar=("X", "Y"), required=True,
        dest="point",
    )
    sub.add_argument("--backward", action="store_true")

    sub = subs.add_parser("signature", help="separatrix-graph signature")
    _add_common(sub, box=True, fmt=True, tol=True)

    sub = subs.add_parser("render", help="emit SVG + CSV portrait")
    _add_common(sub, box=True, tol=True)
    sub.add_argument("--out", required=True, help="output path (.svg)")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # every flag is named after a RunConfig field, except --center (the point)
    kw = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in vars(args).items()
        if v is not None
    }
    if "center" in kw:
        kw["point"] = kw.pop("center")
    return RunConfig(**kw)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(cfg)
    except AnalysisRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (FlowbifError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
