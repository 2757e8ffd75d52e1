"""Plain-text field and family files.

Line-oriented format, whitespace-separated tokens, ``#`` comments:

    field <name>        start a field block
    u i j c             coefficient c for x^i y^j in the first component
    v i j c             coefficient c for x^i y^j in the second component

A file with a single block parses to a :class:`PolyVectorField`.  A family
file carries a ``t0 <real>`` line plus exactly two blocks named ``u0`` and
``u1`` (base field and acceleration) and parses to a :class:`TimeFamily`.
Duplicate ``(component, i, j)`` lines inside one block are an error; the
divergence identity is checked after parsing and violations are reported as
warnings (or raised when ``strict``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldFileError
from .field import PolyVectorField, TimeFamily
from .poly import Poly2

# monomial-degree guard on input: nothing downstream caps the degree, but
# frame transforms re-expand every coefficient, so refuse absurd files early
_MAX_DEGREE = 64


@dataclass(frozen=True)
class ParsedFile:
    name: str
    value: "PolyVectorField | TimeFamily"
    warnings: tuple[str, ...]


def _real(tok: str, lineno: int, what: str) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise FieldFileError(f"bad {what} {tok!r}", lineno) from None
    if val != val or val in (float("inf"), float("-inf")):
        raise FieldFileError(f"non-finite {what} {tok!r}", lineno)
    return val


def _exponent(tok: str, lineno: int) -> int:
    try:
        val = int(tok)
    except ValueError:
        raise FieldFileError(f"bad exponent {tok!r}", lineno) from None
    if val < 0:
        raise FieldFileError(f"negative exponent {val}", lineno)
    return val


class _Block:
    def __init__(self, name: str, lineno: int):
        self.name = name
        self.lineno = lineno
        self.terms: dict[tuple[str, int, int], float] = {}

    def add(self, comp: str, i: int, j: int, c: float, lineno: int) -> None:
        key = (comp, i, j)
        if key in self.terms:
            raise FieldFileError(
                f"duplicate coefficient {comp} {i} {j} in block {self.name!r}",
                lineno,
            )
        self.terms[key] = c

    def field(self) -> PolyVectorField:
        u = {(i, j): c for (comp, i, j), c in self.terms.items() if comp == "u"}
        v = {(i, j): c for (comp, i, j), c in self.terms.items() if comp == "v"}
        return PolyVectorField(Poly2.from_terms(u), Poly2.from_terms(v))


def parse_field_text(
    text: str, *, strict: bool = False, default_name: str = "field"
) -> ParsedFile:
    """Parse field/family file content.  See the module docstring for grammar."""
    blocks: list[_Block] = []
    t0: float | None = None
    t0_line: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kw = tok[0]
        if kw == "field":
            if len(tok) != 2:
                raise FieldFileError("expected `field <name>`", lineno)
            if any(b.name == tok[1] for b in blocks):
                raise FieldFileError(f"duplicate block name {tok[1]!r}", lineno)
            blocks.append(_Block(tok[1], lineno))
        elif kw == "t0":
            if len(tok) != 2:
                raise FieldFileError("expected `t0 <real>`", lineno)
            if t0 is not None:
                raise FieldFileError("duplicate t0 line", lineno)
            t0 = _real(tok[1], lineno, "t0 value")
            t0_line = lineno
        elif kw in ("u", "v"):
            if not blocks:
                raise FieldFileError(
                    "coefficient line before any `field` header", lineno
                )
            if len(tok) != 4:
                raise FieldFileError(f"expected `{kw} i j c`", lineno)
            i = _exponent(tok[1], lineno)
            j = _exponent(tok[2], lineno)
            if i + j > _MAX_DEGREE:
                raise FieldFileError(f"monomial degree {i + j} too large", lineno)
            c = _real(tok[3], lineno, "coefficient")
            blocks[-1].add(kw, i, j, c, lineno)
        else:
            raise FieldFileError(f"unknown directive {kw!r}", lineno)

    if not blocks:
        raise FieldFileError("no `field` block found")

    if t0 is not None:
        names = sorted(b.name for b in blocks)
        if names != ["u0", "u1"]:
            raise FieldFileError(
                "family file needs exactly two blocks named u0 and u1, got "
                + ", ".join(repr(b.name) for b in blocks),
                t0_line,
            )
        base = next(b for b in blocks if b.name == "u0").field()
        accel = next(b for b in blocks if b.name == "u1").field()
        value: PolyVectorField | TimeFamily = TimeFamily(base, accel, t0)
        name = default_name
    else:
        if len(blocks) != 1:
            raise FieldFileError(
                f"{len(blocks)} field blocks but no t0 line (family files "
                "need one)",
                blocks[1].lineno,
            )
        value = blocks[0].field()
        name = blocks[0].name

    warnings = []
    report = value.check_divergence_free()
    if not report.ok:
        msg = (
            f"divergence violation {report.worst_violation:.3g} "
            f"at monomial x^{report.worst_term[0]} y^{report.worst_term[1]}"
        )
        if strict:
            raise FieldFileError(msg)
        warnings.append(msg)
    return ParsedFile(name, value, tuple(warnings))


def load_field_file(path, *, strict: bool = False) -> ParsedFile:
    """Parse a file from disk, keeping the name and divergence warnings."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stem = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    try:
        return parse_field_text(text, strict=strict, default_name=stem)
    except FieldFileError as exc:
        raise FieldFileError(f"{path}: {exc}") from None


def parse_field_file(path, *, strict: bool = False):
    """Parse a file to its ``PolyVectorField`` or ``TimeFamily``."""
    return load_field_file(path, strict=strict).value


def _poly_lines(comp: str, poly: Poly2) -> list[str]:
    out = []
    rows, cols = poly.coef.shape
    for i in range(rows):
        for j in range(cols):
            c = float(poly.coef[i, j])
            if c != 0.0:
                out.append(f"{comp} {i} {j} {c:.17g}")
    return out


def field_to_text(field: PolyVectorField, name: str = "field") -> str:
    lines = [f"field {name}"]
    lines += _poly_lines("u", field.u)
    lines += _poly_lines("v", field.v)
    return "\n".join(lines) + "\n"


def family_to_text(family: TimeFamily) -> str:
    lines = [f"t0 {family.t0:.17g}", "field u0"]
    lines += _poly_lines("u", family.base.u)
    lines += _poly_lines("v", family.base.v)
    lines.append("field u1")
    lines += _poly_lines("u", family.accel.u)
    lines += _poly_lines("v", family.accel.v)
    return "\n".join(lines) + "\n"
