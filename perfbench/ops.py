"""One benchmark operation: a call into the package plus its answer check."""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Op:
    name: str
    kind: str
    call: Callable[[], str]  # runs the operation, returns its answer as text
    check: Callable[[str], str | None]  # None when the answer is right, else why not
    known_defect: bool = False  # a wrong answer here is a recorded baseline failure


def cli_call(pkg, argv):
    """Run ``flowbif.cli.main`` in-process; the answer is the exit code and stdout."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pkg.cli.main(list(argv))
        return f"rc={rc}\n{out.getvalue()}"

    return call


def split_answer(answer: str) -> tuple[int, str]:
    head, _, out = answer.partition("\n")
    return int(head[3:]), out


_NUM = r"[-+0-9.eEinfa]+"


def parse_points(text: str):
    """(x, y, kind, case, index) rows from ``classify`` text output."""
    rows = []
    for line in text.splitlines():
        m = re.match(rf"x=({_NUM}) y=({_NUM}) kind=(\S+)", line)
        if not m:
            raise ValueError(f"unparsed classify line {line!r}")
        case = re.search(r" case=(\S+)", line)
        index = re.search(r" index=(-?\d+)", line)
        rows.append((
            float(m.group(1)), float(m.group(2)), m.group(3),
            case.group(1) if case else "",
            int(index.group(1)) if index else None,
        ))
    return rows


def match_points(found, expected, tol):
    """None if found and expected zeros pair up one to one, else a reason.

    Rows are (x, y, kind, case, index); case and index are compared only
    where the expectation names them (degenerate zeros).
    """
    if len(found) != len(expected):
        return f"{len(found)} points, expected {len(expected)}: {found}"
    left = list(found)
    for ex, ey, kind, case, index in expected:
        hit = None
        for row in left:
            if abs(row[0] - ex) <= tol and abs(row[1] - ey) <= tol:
                hit = row
                break
        if hit is None:
            return f"no point within {tol:g} of ({ex:.6g}, {ey:.6g}): {found}"
        left.remove(hit)
        if hit[2] != kind or (case and (hit[3], hit[4]) != (case, index)):
            return f"({ex:.6g}, {ey:.6g}) is {hit[2:]}, expected {(kind, case, index)}"
    return None
