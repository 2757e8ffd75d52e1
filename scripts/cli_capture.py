"""Run a fixed list of ``flowbif`` commands on ``gallery/`` and record their output.

    python scripts/cli_capture.py OUTDIR

The commands run in-process, against the package in the ``src/`` next to
this script.  For command number NNN the script writes ``NNN.cmd`` (the
arguments), ``NNN.out`` (stdout), ``NNN.err`` (stderr) and ``NNN.rc`` (the
exit code) to OUTDIR; the tree and OUTDIR paths are masked in all of them.
``render`` commands leave their SVG and CSV under ``OUTDIR/files/``.  To
compare two trees, copy this script into the other tree's ``scripts/``,
run both, and compare the two directories with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import shutil
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from flowbif import (  # noqa: E402
    Frame, Poly2, PolyVectorField, TimeFamily, family_to_text, field_to_text, parse_field_file,
)
from flowbif.cli import main  # noqa: E402
from flowbif.singular import make_normal_form  # noqa: E402

FIELDS = ("s1", "s2", "s3", "s4", "s5", "s6", "s7")
FAMILIES = ("center_split", "persistent_root", "quartic_split", "saddle_split", "slow_split")
TRACED = ("s1", "s3", "s4", "s6")
S4 = "{g}/s4.field"
SPLIT = "{g}/saddle_split.family"
LADDER = ("bifurcate", SPLIT, "--point", "0", "0", "--eps-ladder")

DEG18 = "u 0 1 1\nu 3 0 1\nu 10 8 0.09\nv 2 1 -3\nv 3 0 -1\nv 9 9 -0.1\n"


def _moved_s2() -> str:
    """1e-3 * R f(R^T (p - o)) for the S2 normal form f, angle 1 rad and o = (0.3, -0.2)."""
    rot = Frame.rotation((0.0, 0.0), 1.0).rot
    origin = -rot.T @ (0.3, -0.2)
    moved = make_normal_form(1, 1, 1, 3, 3).in_frame(Frame.rotation(origin, -1.0)) * 1e-3
    return field_to_text(moved, "moved_s2")


def _hidden_pair() -> str:
    """u = (y, x^2 - d^2), d = 40 * 2^-14, moved unturned to (-0.31, 0.27).

    Its center and saddle share one 0.5-wide cell of the search's first level.
    """
    d = 40 * 2.0**-14
    pair = PolyVectorField(
        Poly2.from_terms({(0, 1): 1.0}), Poly2.from_terms({(2, 0): 1.0, (0, 0): -d * d})
    )
    return field_to_text(pair.in_frame(Frame.rotation((0.31, -0.27), 0.0)), "hidden_pair")


def _scaled_center_split(a: float) -> str:
    """gallery/center_split.family with both blocks multiplied by a."""
    fam = parse_field_file(ROOT / "gallery" / "center_split.family")
    return family_to_text(TimeFamily(fam.base * a, fam.accel * a, fam.t0))


# written to OUTDIR/inputs before the run
INPUTS = {
    # u = (x + 0.1, y): a source, not divergence-free
    "source.field": "field source\nu 1 0 1\nu 0 0 0.1\nv 0 1 1\n",
    # a center of magnitude 1e200
    "big.field": "field big\nu 0 1 1e200\nv 1 0 -1e200\n",
    "missing_u1.family": "t0 0\nfield u0\nu 0 1 1\nv 1 0 1\n",
    # S3 plus the stream-function term 0.01 x^10 y^9: a field of degree 18
    "deg18.field": "field deg18\n" + DEG18,
    "deg18.family": "t0 0\nfield u0\n" + DEG18 + "field u1\nv 1 0 1\n",
    # S2 under a rigid motion and amplitude 1e-3: the zero sits at (0.3, -0.2)
    "moved_s2.field": _moved_s2(),
    # S4 at amplitude 1e-14 plus the source term 1e-20 x: not divergence-free
    "tiny_s4.field": "field tiny_s4\nu 0 1 1e-14\nu 2 0 1e-14\nu 1 0 1e-20\n"
    "v 1 1 -2e-14\nv 3 0 1e-14\n",
    # S4 at amplitude 1e6 with the x^2 coefficient one ulp above 1e6: divergence-free
    "big_s4.field": "field big_s4\nu 0 1 1e6\nu 2 0 1000000.0000000001\n"
    "v 1 1 -2e6\nv 3 0 1e6\n",
    "tiny_center_split.family": _scaled_center_split(1e-14),
    "hidden_pair.field": _hidden_pair(),
}

COMMANDS = (
    [("check", f"{{g}}/{f}.field") for f in FIELDS]
    + [("check", f"{{g}}/{f}.family") for f in FAMILIES]
    + [("index", f"{{g}}/{f}.field", "--center", "0", "0", "--radius", "0.1") for f in FIELDS]
    + [
        (sub, f"{{g}}/{f}.field", *fmt)
        for f in FIELDS
        if f != "s5"
        for sub in ("classify", "signature")
        for fmt in ((), ("--format", "csv"))
    ]
    + [("classify", S4, "--box", "-0.5", "-0.5", "0.5", "0.5")]
    + [
        ("bifurcate", f"{{g}}/{f}.family", "--point", "0", "0",
         *(("--eps-scale", "0.1") if f == "center_split" else ()), *extra)
        for f in FAMILIES
        for extra in ((), ("--format", "csv"), ("--no-verify",), ("--no-verify", "--format", "csv"))
    ]
    + [
        ("trace", f"{{g}}/{f}.field", "--seed", "0.3", "0.2", *extra)
        for f in TRACED
        for extra in ((), ("--format", "csv"), ("--backward",), ("--backward", "--format", "csv"))
    ]
    + [
        ("render", "{g}/s1.field", "--out", "{out}/files/s1.svg"),
        ("render", S4, "--box", "-0.5", "-0.5", "0.5", "0.5", "--out", "{out}/files/s4"),
        # flags
        ("classify", S4, "--tol", "1e-10"),
        ("signature", S4, "--tol", "1e-10", "--box", "-0.5", "-0.5", "0.5", "0.5"),
        ("signature", S4, "--box", "-0.5", "-0.5", "0.5", "0.5", "--format", "csv"),
        ("trace", S4, "--seed", "0.2", "0.1", "--box", "-0.5", "-0.5", "0.5", "0.5"),
        ("index", S4, "--center", "0", "0", "--radius", "0.1", "--tol", "1e-6"),
        ("check", S4, "--strict"),
        ("bifurcate", SPLIT, "--point", "0", "0", "--tol", "1e-6", "--no-verify"),
        (*LADDER, "0.01", "0.001"),
        (*LADDER, "-0.01", "0.001", "--format", "csv"),
        ("bifurcate", "{g}/center_split.family", "--point", "0", "0", "--eps-scale", "0.05"),
        # refusals and errors
        ("trace", S4, "--seed", "0", "0"),
        ("trace", S4, "--seed", "5", "5"),
        ("index", S4, "--center", "0", "0", "--radius", "1e300"),
        ("index", S4, "--center", "0.1", "0", "--radius", "0.1"),
        ("index", "{out}/inputs/big.field", "--center", "0", "0", "--radius", "1"),
        ("classify", "{out}/inputs/big.field"),
        ("check", "{out}/inputs/source.field"),
        ("classify", "{out}/inputs/source.field"),
        ("classify", "{out}/inputs/source.field", "--strict"),
        ("trace", "{out}/inputs/source.field", "--seed", "0.3", "0.2"),
        ("signature", "{out}/inputs/source.field"),
        ("render", "{out}/inputs/source.field", "--out", "{out}/files/source.svg"),
        ("bifurcate", "{out}/inputs/missing_u1.family", "--point", "0", "0"),
        ("classify", SPLIT),
        ("bifurcate", S4, "--point", "0", "0"),
        ("classify", "{g}/no-such-file.field"),
        # usage errors
        ("--version",),
        ("frobnicate",),
        ("classify", S4, "--box", "1", "1", "0", "0"),
        ("classify", S4, "--box", "nan", "-1", "1", "1"),
        ("trace", S4, "--seed", "0.3", "inf"),
        ("classify", S4, "--tol", "-1"),
        ("index", S4, "--center", "0", "0", "--radius", "0"),
        ("bifurcate", SPLIT, "--point", "0", "0", "--eps-scale", "0"),
        (*LADDER, "0.001", "0.01"),
        (*LADDER, "0.01"),
        (*LADDER, "0.01", "--format", "csv"),
        (*LADDER, "0.01", "0"),
        ("classify", S4, "--format", "json"),
        # degree 18
        ("classify", "{out}/inputs/deg18.field"),
        ("bifurcate", "{out}/inputs/deg18.family", "--point", "0", "0", "--no-verify"),
        # rigid motion and scale
        ("classify", "{out}/inputs/moved_s2.field"),
        # negative values in scientific notation
        ("classify", S4, "--box", "-1e-1", "-1e-1", "1e-1", "1e-1"),
        (*LADDER, "-1e-2", "-1e-3", "1e-2", "1e-3", "--no-verify"),
        ("trace", S4, "--seed", "-3e-1", "2e-1"),
        ("index", S4, "--center", "-1e-2", "0", "--radius", "0.1"),
        ("bifurcate", SPLIT, "--point", "-0e0", "0", "--no-verify"),
        # amplitude: every zero test is relative to the field's largest coefficient
        ("check", "{out}/inputs/tiny_s4.field"),
        ("classify", "{out}/inputs/tiny_s4.field"),
        ("check", "{out}/inputs/big_s4.field"),
        ("classify", "{out}/inputs/big_s4.field"),
        ("bifurcate", "{out}/inputs/tiny_center_split.family", "--point", "0", "0", "--no-verify"),
        # zeros the search must not discard: a close pair in one coarse cell, and
        # the flat-valley ladder rungs
        ("classify", "{out}/inputs/hidden_pair.field"),
        ("bifurcate", SPLIT, "--point", "0", "0", "--tol", "1e-5"),
    ]
)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:  # --version
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def capture(outdir: pathlib.Path) -> int:
    if outdir.exists():
        shutil.rmtree(outdir)
    (outdir / "files").mkdir(parents=True)
    (outdir / "inputs").mkdir()
    for name, text in INPUTS.items():
        (outdir / "inputs" / name).write_text(text)
    places = {"g": str(ROOT / "gallery"), "out": str(outdir)}
    masks = ((str(outdir), "<out>"), (str(ROOT), "<tree>"))

    def mask(text: str) -> str:
        for path, tag in masks:
            text = text.replace(path, tag)
        return text

    for n, cmd in enumerate(COMMANDS):
        argv = [a.format(**places) for a in cmd]
        rc, out, err = _run(argv)
        stem = outdir / f"{n:03d}"
        stem.with_suffix(".cmd").write_text(mask(" ".join(argv)) + "\n")
        stem.with_suffix(".out").write_text(mask(out))
        stem.with_suffix(".err").write_text(mask(err))
        stem.with_suffix(".rc").write_text(f"{rc}\n")
    shutil.rmtree(outdir / "inputs")
    return len(COMMANDS)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(f"{capture(pathlib.Path(sys.argv[1]).resolve())} commands")
