"""Planar polynomial vector fields, frames, and one-parameter families.

A field is a pair of bivariate polynomials (u, v).  Incompressible flows
satisfy the coefficient identity

    (i+1) * u[i+1, j] + (j+1) * v[i, j+1] = 0   for all i, j >= 0,

which ``check_divergence_free`` verifies exactly (up to an absolute
tolerance for float-entered coefficients).  Construction is permissive:
utility computations (winding numbers, root finding) are well defined for
arbitrary polynomial fields, so nothing is rejected at build time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreeCapError
from .poly import Poly2

# Recentering/rotation is refused above this total degree: binomial shift
# error grows combinatorially and nothing in the analysis needs more.
MAX_TRANSFORM_DEGREE = 16


@dataclass(frozen=True)
class DivergenceReport:
    ok: bool
    worst_violation: float
    worst_term: tuple[int, int] | None


@dataclass(frozen=True)
class Frame:
    """Right-handed orthonormal frame (origin; e1, e2) with det[e1 e2] = +1."""

    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float).reshape(2))
        object.__setattr__(self, "e1", np.asarray(self.e1, dtype=float).reshape(2))
        object.__setattr__(self, "e2", np.asarray(self.e2, dtype=float).reshape(2))
        if abs(np.dot(self.e1, self.e1) - 1.0) > 1e-9 or abs(np.dot(self.e2, self.e2) - 1.0) > 1e-9:
            raise ValueError("frame axes must be unit vectors")
        if abs(np.dot(self.e1, self.e2)) > 1e-9:
            raise ValueError("frame axes must be orthogonal")
        det = self.e1[0] * self.e2[1] - self.e1[1] * self.e2[0]
        if abs(det - 1.0) > 1e-9:
            raise ValueError("frame must be right-handed (det[e1 e2] = +1)")

    @classmethod
    def rotation(cls, origin, theta: float) -> "Frame":
        c, s = np.cos(theta), np.sin(theta)
        return cls(np.asarray(origin, dtype=float), np.array([c, s]), np.array([-s, c]))

    @property
    def rot(self) -> np.ndarray:
        """Rotation matrix with columns e1, e2."""
        return np.column_stack([self.e1, self.e2])

    def to_world(self, xi) -> np.ndarray:
        return self.origin + self.rot @ np.asarray(xi, dtype=float)


class PolyVectorField:
    """Vector field (u(x, y), v(x, y)) with polynomial components."""

    __slots__ = ("u", "v", "_partials")

    def __init__(self, u: Poly2, v: Poly2) -> None:
        self.u = u if isinstance(u, Poly2) else Poly2(u)
        self.v = v if isinstance(v, Poly2) else Poly2(v)
        self._partials = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_terms(cls, u_terms: dict, v_terms: dict) -> "PolyVectorField":
        return cls(Poly2.from_terms(u_terms), Poly2.from_terms(v_terms))

    @classmethod
    def from_stream(cls, psi: Poly2) -> "PolyVectorField":
        """Field (psi_y, -psi_x); divergence-free by construction."""
        return cls(psi.dy(), -psi.dx())

    # -- evaluation ---------------------------------------------------

    def __call__(self, p) -> np.ndarray:
        x, y = float(p[0]), float(p[1])
        return np.array([self.u(x, y), self.v(x, y)])

    def evaluate_many(self, x, y):
        """Componentwise evaluation on numpy arrays."""
        return self.u(x, y), self.v(x, y)

    def jacobian(self, p) -> np.ndarray:
        parts = self._partials
        if parts is None:
            parts = self._partials = (
                self.u.dx(), self.u.dy(), self.v.dx(), self.v.dy(),
            )
        x, y = float(p[0]), float(p[1])
        return np.array(
            [
                [parts[0](x, y), parts[1](x, y)],
                [parts[2](x, y), parts[3](x, y)],
            ]
        )

    @property
    def max_degree(self) -> int:
        return max(self.u.degree, self.v.degree)

    # -- structure checks ---------------------------------------------

    def divergence(self) -> Poly2:
        return self.u.dx() + self.v.dy()

    def check_divergence_free(self, tol: float = 1e-12) -> DivergenceReport:
        """Report the worst violation of the incompressibility identity."""
        div = self.divergence()
        worst = 0.0
        worst_term = None
        for (i, j), val in np.ndenumerate(div.coef):
            if abs(val) > worst:
                worst = abs(val)
                worst_term = (i, j)
        return DivergenceReport(ok=worst <= tol, worst_violation=worst, worst_term=worst_term)

    def check_antisymmetric(self, center=(0.0, 0.0), tol: float = 1e-12) -> bool:
        """True iff u(c - x) = -u(c + x): only odd total-degree terms about the center."""
        f = self.recentered(center)
        for comp in (f.u, f.v):
            for (i, j), val in np.ndenumerate(comp.coef):
                if (i + j) % 2 == 0 and abs(val) > tol:
                    return False
        return True

    def check_reflectional(self, axis_origin=(0.0, 0.0), tol: float = 1e-12) -> bool:
        """Mirror symmetry about the vertical axis through ``axis_origin``:
        u even in x, v odd in x (after recentering)."""
        f = self.recentered(axis_origin)
        for (i, _), val in np.ndenumerate(f.u.coef):
            if i % 2 == 1 and abs(val) > tol:
                return False
        for (i, _), val in np.ndenumerate(f.v.coef):
            if i % 2 == 0 and abs(val) > tol:
                return False
        return True

    # -- transforms ---------------------------------------------------

    def _check_degree_cap(self):
        if self.max_degree > MAX_TRANSFORM_DEGREE:
            raise DegreeCapError(
                f"field degree {self.max_degree} exceeds transform cap {MAX_TRANSFORM_DEGREE}"
            )

    def recentered(self, origin) -> "PolyVectorField":
        """Components re-expanded about ``origin`` (no rotation)."""
        self._check_degree_cap()
        x0, y0 = float(origin[0]), float(origin[1])
        return PolyVectorField(self.u.shift(x0, y0), self.v.shift(x0, y0))

    def in_frame(self, frame: Frame) -> "PolyVectorField":
        """Express the field in frame coordinates: w(xi) = R^T u(origin + R xi).

        Orthogonal conjugation, so divergence-freeness and Jacobian
        determinants at corresponding points are preserved.
        """
        self._check_degree_cap()
        r = frame.rot
        shifted_u = self.u.shift(frame.origin[0], frame.origin[1]).compose_linear(r)
        shifted_v = self.v.shift(frame.origin[0], frame.origin[1]).compose_linear(r)
        w1 = r[0, 0] * shifted_u + r[1, 0] * shifted_v
        w2 = r[0, 1] * shifted_u + r[1, 1] * shifted_v
        return PolyVectorField(w1, w2)

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(self.u - other.u, self.v - other.v)

    def __mul__(self, scalar: float) -> "PolyVectorField":
        return PolyVectorField(self.u * float(scalar), self.v * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "PolyVectorField":
        return PolyVectorField(-self.u, -self.v)

    # -- analysis helpers ---------------------------------------------

    def stream_function(self) -> Poly2:
        """Polynomial psi with (psi_y, -psi_x) = (u, v), psi(0, 0) = 0.

        Only meaningful when the field is divergence-free; psi is constant
        along orbits, which makes it a useful integration cross-check.
        """
        # psi(x, y) = int_0^y u(x, t) dt - int_0^x v(s, 0) ds
        part1 = self.u.integrate_y()
        v_row0 = Poly2(self.v.coef[:, :1])
        part2 = v_row0.integrate_x()
        return part1 - part2

    def gradient_bound(self, half_extent: float) -> tuple[float, float]:
        """Per-component bounds on |grad u|, |grad v| over max(|x|,|y|) <= half_extent."""
        return self.u.grad_bound(half_extent), self.v.grad_bound(half_extent)

    def __repr__(self) -> str:
        return f"PolyVectorField(u={self.u!r}, v={self.v!r})"


@dataclass(frozen=True)
class TimeFamily:
    """One-parameter family u(x, t) = base(x) + (t - t0) * accel(x).

    The analysis convention writes the field near t0 as base - eps * accel
    with eps = -(t - t0); ``at_offset`` builds that combination directly.
    """

    base: PolyVectorField
    accel: PolyVectorField
    t0: float = 0.0

    def at_time(self, t: float) -> PolyVectorField:
        return self.base + (t - self.t0) * self.accel

    def at_offset(self, eps: float) -> PolyVectorField:
        return self.base - eps * self.accel

    def check_divergence_free(self, tol: float = 1e-12) -> DivergenceReport:
        r0 = self.base.check_divergence_free(tol)
        r1 = self.accel.check_divergence_free(tol)
        if r1.worst_violation > r0.worst_violation:
            return r1
        return r0
