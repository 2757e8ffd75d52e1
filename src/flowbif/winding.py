"""Brouwer index of isolated zeros via adaptive winding numbers.

The winding of the field along a closed curve is accumulated from angle
increments between consecutive samples, refining any interval whose
increment reaches pi/2 so the unwrapping is unambiguous.  The result is
accepted only once doubling every interval leaves the integer unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurveZeroError, FlowbifError, WindingConvergenceError
from .field import PolyVectorField

# Refine any step whose unsigned angle change reaches this (just under pi/2).
_ANGLE_CAP = 0.999 * np.pi / 2


@dataclass(frozen=True)
class IndexResult:
    winding: int
    min_magnitude: float
    max_magnitude: float
    samples: int


def _angle_steps(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Signed angle from vector i to vector i+1 along the last axis, in (-pi, pi]."""
    un, vn = u[..., :-1], v[..., :-1]
    um, vm = u[..., 1:], v[..., 1:]
    return np.arctan2(un * vm - vn * um, un * um + vn * vm)


def _winding_on_curve(
    field: PolyVectorField,
    curve,
    initial_samples: int,
    zero_tol: float,
    max_samples: int,
) -> IndexResult:
    """curve(t) maps a [0, 1] array to points on a closed loop, t=0 and t=1 equal."""

    def sample(t):
        # a curve far out overflows the polynomial; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            return field.evaluate_many(*curve(t))

    ts = np.linspace(0.0, 1.0, initial_samples + 1)
    u, v = sample(ts)

    extra_rounds_left = 1  # one clean doubling pass must confirm the integer
    prev_winding = None
    while True:
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise FlowbifError("field is not finite on the curve")
        mag = np.hypot(u, v)
        mn, mx = float(mag.min()), float(mag.max())
        if mn <= zero_tol * mx or mx == 0.0:
            raise CurveZeroError(
                f"field magnitude {mn:.3g} on curve is below {zero_tol:g} * scale ({mx:.3g})"
            )

        steps = _angle_steps(u, v)
        too_wide = np.abs(steps) >= _ANGLE_CAP
        if not too_wide.any():
            total = float(steps.sum())
            winding = int(np.rint(total / (2 * np.pi)))
            if prev_winding == winding and extra_rounds_left <= 0:
                return IndexResult(winding, mn, mx, len(ts))
            # force one uniform doubling to confirm stability
            prev_winding = winding
            extra_rounds_left -= 1
            split = np.ones(len(ts) - 1, dtype=bool)
        else:
            prev_winding = None
            extra_rounds_left = 1
            split = too_wide

        if len(ts) + int(split.sum()) > max_samples:
            raise WindingConvergenceError(
                f"winding not stable within {max_samples} samples"
            )
        mids = 0.5 * (ts[:-1][split] + ts[1:][split])
        mu, mv = sample(mids)
        ts = np.insert(ts, np.nonzero(split)[0] + 1, mids)
        u = np.insert(u, np.nonzero(split)[0] + 1, mu)
        v = np.insert(v, np.nonzero(split)[0] + 1, mv)


def winding_index(
    field: PolyVectorField,
    center,
    radius: float,
    *,
    zero_tol: float = 1e-9,
    initial_samples: int = 32,
    max_samples: int = 1 << 20,
) -> IndexResult:
    """Winding of the field along the counterclockwise circle of given radius.

    Equals the sum of Brouwer indices of the zeros enclosed, provided none
    lies on the circle (checked via ``zero_tol`` relative to the largest
    magnitude seen on the curve).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    cx, cy = float(center[0]), float(center[1])

    def curve(t):
        ang = 2 * np.pi * t
        return cx + radius * np.cos(ang), cy + radius * np.sin(ang)

    return _winding_on_curve(field, curve, initial_samples, zero_tol, max_samples)


def _box_curve(box):
    x0, y0, x1, y1 = (float(b) for b in box)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("box must satisfy x0 < x1 and y0 < y1")
    corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])

    def curve(t):
        # piecewise-linear counterclockwise walk, corners at multiples of 1/4
        t = np.asarray(t, dtype=float)
        seg = np.minimum((t * 4).astype(int), 3)
        s = t * 4 - seg
        a = corners[seg]
        b = corners[seg + 1]
        pts = a + s[..., None] * (b - a)
        return pts[..., 0], pts[..., 1]

    return curve


def index_on_box(
    field: PolyVectorField,
    box,
    *,
    zero_tol: float = 1e-9,
    initial_samples: int = 64,
    max_samples: int = 1 << 20,
) -> IndexResult:
    """Winding along the box boundary, with diagnostics."""
    if initial_samples % 4:
        initial_samples += 4 - initial_samples % 4
    return _winding_on_curve(field, _box_curve(box), initial_samples, zero_tol, max_samples)


def index_sum(field: PolyVectorField, box, **kw) -> int:
    """Sum of Brouwer indices of the zeros inside the axis-aligned box."""
    return index_on_box(field, box, **kw).winding
