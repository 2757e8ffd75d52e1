"""Planar polynomial vector fields, frames, and one-parameter families.

A field is a pair of bivariate polynomials (u, v).  Incompressible flows
satisfy the coefficient identity

    (i+1) * u[i+1, j] + (j+1) * v[i, j+1] = 0   for all i, j >= 0,

which ``check_divergence_free`` verifies up to rounding: a violation
counts only above ``_DIVERGENCE_REL_TOL`` times the field's largest
coefficient, so the verdict does not change with the field's amplitude.
Construction is permissive:
utility computations (winding numbers, root finding) are well defined for
arbitrary polynomial fields, so nothing is rejected at build time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FlowbifError
from .poly import Poly2

_DIVERGENCE_REL_TOL = 1e-12  # x the largest coefficient: no stream function above
_SYMMETRY_REL_TOL = 1e-12  # x the largest coefficient: a term this small breaks no symmetry


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

    __slots__ = ("u", "v", "_partials", "_psi")

    def __init__(self, u: Poly2, v: Poly2) -> None:
        self.u = u if isinstance(u, Poly2) else Poly2(u)
        self.v = v if isinstance(v, Poly2) else Poly2(v)
        self._partials = None
        self._psi = None

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

    def _partial_polys(self) -> tuple[Poly2, Poly2, Poly2, Poly2]:
        """u_x, u_y, v_x, v_y, built once per field."""
        if self._partials is None:
            self._partials = (self.u.dx(), self.u.dy(), self.v.dx(), self.v.dy())
        return self._partials

    def jacobian(self, p) -> np.ndarray:
        ux, uy, vx, vy = self._partial_polys()
        x, y = float(p[0]), float(p[1])
        return np.array([[ux(x, y), uy(x, y)], [vx(x, y), vy(x, y)]])

    def jacobian_many(self, x, y) -> np.ndarray:
        """Jacobians on numpy arrays, stacked: shape ``broadcast(x, y).shape + (2, 2)``.

        Each matrix is bitwise the one ``jacobian`` gives at that point.
        """
        entries = [d(x, y) for d in self._partial_polys()]
        return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))

    @property
    def max_degree(self) -> int:
        return max(self.u.degree, self.v.degree)

    # -- structure checks ---------------------------------------------

    def divergence(self) -> Poly2:
        return self.u.dx() + self.v.dy()

    def max_abs_coef(self) -> float:
        """Largest coefficient magnitude of u and v: the field's amplitude."""
        return max(self.u.max_abs_coef(), self.v.max_abs_coef())

    def check_divergence_free(self) -> DivergenceReport:
        """The worst violation of the incompressibility identity; ok up to rounding."""
        div = self.divergence()
        worst = 0.0
        worst_term = None
        for (i, j), val in np.ndenumerate(div.coef):
            if abs(val) > worst:
                worst = abs(val)
                worst_term = (i, j)
        ok = worst <= _DIVERGENCE_REL_TOL * self.max_abs_coef()
        return DivergenceReport(ok=ok, worst_violation=worst, worst_term=worst_term)

    def check_antisymmetric(self, center=(0.0, 0.0)) -> bool:
        """True iff u(c - x) = -u(c + x): only odd total-degree terms about the center."""
        f = self.in_frame(Frame(center, (1.0, 0.0), (0.0, 1.0)))
        tol = _SYMMETRY_REL_TOL * f.max_abs_coef()  # relative to the recentred field
        for comp in (f.u, f.v):
            for (i, j), val in np.ndenumerate(comp.coef):
                if (i + j) % 2 == 0 and abs(val) > tol:
                    return False
        return True

    def check_reflectional(self, axis_origin=(0.0, 0.0)) -> bool:
        """Mirror symmetry about the vertical axis through ``axis_origin``:
        u even in x, v odd in x (after recentering)."""
        f = self.in_frame(Frame(axis_origin, (1.0, 0.0), (0.0, 1.0)))
        tol = _SYMMETRY_REL_TOL * f.max_abs_coef()  # relative to the recentred field
        for (i, _), val in np.ndenumerate(f.u.coef):
            if i % 2 == 1 and abs(val) > tol:
                return False
        for (i, _), val in np.ndenumerate(f.v.coef):
            if i % 2 == 0 and abs(val) > tol:
                return False
        return True

    # -- transforms ---------------------------------------------------

    def in_frame(self, frame: Frame) -> "PolyVectorField":
        """Express the field in frame coordinates: w(xi) = R^T u(origin + R xi).

        Orthogonal conjugation, so divergence-freeness and Jacobian
        determinants at corresponding points are preserved.
        """
        r = frame.rot
        moved_u = self.u.compose_affine(frame.origin, r)
        moved_v = self.v.compose_affine(frame.origin, r)
        w1 = r[0, 0] * moved_u + r[1, 0] * moved_v
        w2 = r[0, 1] * moved_u + r[1, 1] * moved_v
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

        Orbits are the level curves of psi, and the streamline tracer follows
        them.  Psi exists only for a divergence-free field: a field that
        fails ``check_divergence_free`` raises ``FlowbifError``.  Built once
        per field.
        """
        if self._psi is None:
            report = self.check_divergence_free()
            if not report.ok:
                i, j = report.worst_term
                raise FlowbifError(
                    f"field is not divergence-free (violation "
                    f"{report.worst_violation:.3g} at monomial x^{i} y^{j})"
                )
            # psi(x, y) = int_0^y u(x, t) dt - int_0^x v(s, 0) ds
            v_row0 = Poly2(self.v.coef[:, :1])
            self._psi = self.u.integrate_y() - v_row0.integrate_x()
        return self._psi

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

    def check_divergence_free(self) -> DivergenceReport:
        """A failing block's report, else the larger violation; each block at its own amplitude."""
        reports = (self.base.check_divergence_free(), self.accel.check_divergence_free())
        return max(reports, key=lambda r: (not r.ok, r.worst_violation))
