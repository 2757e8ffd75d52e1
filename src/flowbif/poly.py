"""Dense bivariate polynomials over float coefficients.

Everything is done at coefficient level (evaluation, differentiation, affine
changes of variables, products), so identities such as the divergence check
hold to rounding error and searches can use rigorous coefficient bounds.
"""

from __future__ import annotations

import numpy as np

_ROW_SUM_FLOATS = 1 << 16  # array evaluation keeps at most this many row sums at once


def _trim(coef) -> np.ndarray:
    c = np.atleast_2d(np.asarray(coef, dtype=float))
    if c.ndim != 2:
        raise ValueError("coefficient array must be 2-D")
    rows = np.nonzero(c.any(axis=1))[0]
    cols = np.nonzero(c.any(axis=0))[0]
    nr = int(rows[-1]) + 1 if rows.size else 1
    nc = int(cols[-1]) + 1 if cols.size else 1
    return c[:nr, :nc]


class Poly2:
    """Polynomial p(x, y) stored densely: ``coef[i, j]`` multiplies x^i y^j.

    Instances are immutable; all operations return new objects.
    """

    __slots__ = ("coef", "_rows")

    def __init__(self, coef) -> None:
        c = _trim(coef).copy()
        c.setflags(write=False)
        self.coef = c
        # row-major list-of-lists copy for the scalar Horner loop
        self._rows = c.tolist()

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls([[0.0]])

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int], float]) -> "Poly2":
        """Build from a sparse {(i, j): c} map of monomial exponents."""
        if not terms:
            return cls.zero()
        ni = max(i for i, _ in terms) + 1
        nj = max(j for _, j in terms) + 1
        c = np.zeros((ni, nj))
        for (i, j), val in terms.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i}, {j})")
            c[i, j] += float(val)
        return cls(c)

    def terms(self, tol: float = 0.0) -> dict[tuple[int, int], float]:
        """Sparse view of the nonzero coefficients."""
        out = {}
        for (i, j), val in np.ndenumerate(self.coef):
            if abs(val) > tol:
                out[(i, j)] = float(val)
        return out

    # -- queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        nz = np.nonzero(self.coef)
        if nz[0].size == 0:
            return 0
        return int(max(i + j for i, j in zip(*nz)))

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coef) <= tol))

    def max_abs_coef(self) -> float:
        return float(np.max(np.abs(self.coef)))

    def __call__(self, x, y):
        """p(x, y) by Horner's rule: in y along each row, then in x over the rows.

        Arrays broadcast against each other.  Each array entry goes through
        the same float operations in the same order as the scalar loop, so
        a point gives bitwise the same value alone or inside an array.
        """
        if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
            x, y = float(x), float(y)
            acc = 0.0
            for row in reversed(self._rows):
                r = 0.0
                for c in reversed(row):
                    r = r * y + c
                acc = acc * x + r
            return acc
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        c = self.coef.reshape(self.coef.shape + (1,) * y.ndim)
        block = max(1, _ROW_SUM_FLOATS // max(y.size, 1))  # rows summed at once
        acc = 0.0
        for end in range(c.shape[0], 0, -block):
            rows = np.zeros((min(block, end),) + y.shape)
            for j in range(c.shape[1] - 1, -1, -1):
                rows *= y
                rows += c[end - len(rows) : end, j]
            for r in rows[::-1]:
                acc = acc * x + r
        return acc

    def coefficient(self, i: int, j: int) -> float:
        ni, nj = self.coef.shape
        if i >= ni or j >= nj:
            return 0.0
        return float(self.coef[i, j])

    # -- calculus -----------------------------------------------------

    def dx(self) -> "Poly2":
        c = self.coef
        if c.shape[0] == 1:
            return Poly2.zero()
        return Poly2(c[1:, :] * np.arange(1, c.shape[0])[:, None])

    def dy(self) -> "Poly2":
        c = self.coef
        if c.shape[1] == 1:
            return Poly2.zero()
        return Poly2(c[:, 1:] * np.arange(1, c.shape[1])[None, :])

    def integrate_y(self) -> "Poly2":
        """Antiderivative in y with zero constant term."""
        c = self.coef
        out = np.zeros((c.shape[0], c.shape[1] + 1))
        out[:, 1:] = c / np.arange(1, c.shape[1] + 1)[None, :]
        return Poly2(out)

    def integrate_x(self) -> "Poly2":
        """Antiderivative in x with zero constant term."""
        c = self.coef
        out = np.zeros((c.shape[0] + 1, c.shape[1]))
        out[1:, :] = c / np.arange(1, c.shape[0] + 1)[:, None]
        return Poly2(out)

    # -- arithmetic ---------------------------------------------------

    def _binop(self, other, sign: float) -> "Poly2":
        a, b = self.coef, other.coef
        ni = max(a.shape[0], b.shape[0])
        nj = max(a.shape[1], b.shape[1])
        out = np.zeros((ni, nj))
        out[: a.shape[0], : a.shape[1]] += a
        out[: b.shape[0], : b.shape[1]] += sign * b
        return Poly2(out)

    def __add__(self, other):
        if isinstance(other, Poly2):
            return self._binop(other, 1.0)
        return self + Poly2([[float(other)]])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Poly2):
            return self._binop(other, -1.0)
        return self - Poly2([[float(other)]])

    def __neg__(self):
        return Poly2(-self.coef)

    def __mul__(self, other):
        if isinstance(other, Poly2):
            a, b = self.coef, other.coef
            out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
            for (i, j), val in np.ndenumerate(a):
                if val != 0.0:
                    out[i : i + b.shape[0], j : j + b.shape[1]] += val * b
            return Poly2(out)
        return Poly2(self.coef * float(other))

    __rmul__ = __mul__

    # -- changes of variables -----------------------------------------

    def compose_affine(self, origin, m) -> "Poly2":
        """p(origin + m @ (x, y)) for a point origin and a 2x2 matrix m.

        Horner's rule, in x over the rows and in y along each row, with the
        three-term affine factor on the left of each product so that
        ``__mul__`` loops over its three terms only.
        """
        m = np.asarray(m, dtype=float)
        x0, y0 = float(origin[0]), float(origin[1])
        X = Poly2([[x0, m[0, 1]], [m[0, 0], 0.0]])
        Y = Poly2([[y0, m[1, 1]], [m[1, 0], 0.0]])
        out = Poly2.zero()
        for row in reversed(self._rows):
            r = Poly2.zero()
            for c in reversed(row):
                r = Y * r + c
            out = X * out + r
        return out

    # -- bounds -------------------------------------------------------

    def abs_bound(self, m: float) -> float:
        """Bound on |p| over the square max(|x|, |y|) <= m."""
        c = np.abs(self.coef)
        fi = m ** np.arange(c.shape[0])
        fj = m ** np.arange(c.shape[1])
        return float(np.sum(c * fi[:, None] * fj[None, :]))

    def grad_bound(self, m: float) -> float:
        """Bound on |grad p| (2-norm) over max(|x|, |y|) <= m."""
        total = 0.0
        for (i, j), val in np.ndenumerate(self.coef):
            if val != 0.0 and i + j >= 1:
                total += abs(val) * (i + j) * m ** (i + j - 1)
        return total

    # -- misc ---------------------------------------------------------

    def allclose(self, other: "Poly2", tol: float = 1e-12) -> bool:
        return self._binop(other, -1.0).max_abs_coef() <= tol

    def __repr__(self) -> str:
        t = self.terms()
        if not t:
            return "Poly2(0)"
        parts = [f"{v:g}*x^{i}*y^{j}" for (i, j), v in sorted(t.items())]
        return "Poly2(" + " + ".join(parts) + ")"
