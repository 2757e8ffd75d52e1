"""Per-seed damped Newton, written independently of the package.

This is the one-seed-at-a-time loop that the search ran before its seeds
were polished in lockstep, kept as an oracle: it reads only the field's
coefficient arrays and evaluates them with its own Horner loop (in y along
each row, then in x over the rows), the order ``Poly2`` promises for both
floats and arrays.  ``polish`` returns the point, the residual and the
rule that stopped the seed; ``lstsq_steps`` counts the steps taken by
least squares because the Jacobian was singular.
"""

from __future__ import annotations

import numpy as np

MAX_ITER = 50
MAX_HALVINGS = 12


def _horner(coef, x, y):
    acc = 0.0
    for row in reversed(coef.tolist()):
        r = 0.0
        for c in reversed(row):
            r = r * y + c
        acc = acc * x + r
    return acc


def _d(coef, axis):
    """Coefficients of the partial derivative along axis 0 (x) or 1 (y)."""
    if coef.shape[axis] == 1:
        return np.zeros((1, 1))
    k = np.arange(1, coef.shape[axis], dtype=float)
    return coef[1:, :] * k[:, None] if axis == 0 else coef[:, 1:] * k[None, :]


class Reference:
    def __init__(self, field):
        self.u = np.array(field.u.coef, dtype=float)
        self.v = np.array(field.v.coef, dtype=float)
        self.parts = [_d(self.u, 0), _d(self.u, 1), _d(self.v, 0), _d(self.v, 1)]
        self.lstsq_steps = 0

    def f(self, p):
        x, y = float(p[0]), float(p[1])
        return np.array([_horner(self.u, x, y), _horner(self.v, x, y)])

    def jac(self, p):
        x, y = float(p[0]), float(p[1])
        ux, uy, vx, vy = (_horner(c, x, y) for c in self.parts)
        return np.array([[ux, uy], [vx, vy]])

    def polish(self, p0):
        """(point, residual, why) from damped Newton at p0; why names the exit taken."""
        x = np.asarray(p0, dtype=float).reshape(2).copy()
        f = self.f(x)
        r = float(np.hypot(*f))
        slow_rounds = 0
        for _ in range(MAX_ITER):
            if r == 0.0:
                return x, r, "zero"
            jac = self.jac(x)
            try:
                step = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(jac, -f, rcond=None)[0]
                self.lstsq_steps += 1
            if not np.all(np.isfinite(step)):
                return x, r, "nonfinite"
            xt = x + step
            ft = self.f(xt)
            rt = float(np.hypot(*ft))
            halvings = 0
            while rt >= r and halvings < MAX_HALVINGS:
                step *= 0.5
                xt = x + step
                ft = self.f(xt)
                rt = float(np.hypot(*ft))
                halvings += 1
            if rt >= r:
                return x, r, "halvings"
            slow_rounds = slow_rounds + 1 if rt > 0.9 * r else 0
            x, f, r = xt, ft, rt
            if slow_rounds >= 2:
                return x, r, "slow"
            if float(np.hypot(*step)) <= 1e-16 * (1.0 + float(np.hypot(*x))):
                return x, r, "step"
        return x, r, "max_iter"
