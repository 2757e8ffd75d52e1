"""Closed-form facts about the normal form, written without the package.

The normal form of a simple degenerate zero is

    u = alpha*y + lam*x^k,    v = beta*x^n - k*lam*x^(k-1)*y

(gallery/README.md).  Its zeros, their Jacobian determinants and its stream
function follow from elementary algebra, so the benchmark can derive the
answers it checks without calling the code it measures.
"""

from __future__ import annotations

import math

# (alpha, beta, lam, k, n) -> (case label, index at the origin), copied from
# the field table in gallery/README.md; S5 has no index.
GALLERY_FIELDS = {
    "s1": ((1, 1, 1, 2, 2), "S1", 0),
    "s2": ((1, 1, 1, 3, 3), "S2", -1),
    "s3": ((1, -1, 1, 3, 3), "S3", 1),
    "s4": ((1, 1, 1, 2, 3), "S4", -1),
    "s5": ((1, -2, 1, 2, 3), "S5", None),
    "s6": ((1, -3, 1, 2, 3), "S6", 1),
    "s7": ((1, 1, 1, 2, 5), "S7", -1),
}


def terms(params):
    """Sparse {(i, j): c} maps of u and v."""
    alpha, beta, lam, k, n = params
    return (
        {(0, 1): float(alpha), (k, 0): float(lam)},
        {(n, 0): float(beta), (k - 1, 1): float(-k * lam)},
    )


def zeros(params):
    """All real zeros: (x, y) pairs, the origin first.

    On u = 0, y = -lam*x^k/alpha, and v reduces to
    beta*x^n + (k*lam^2/alpha)*x^(2k-1).  Off the origin that leaves
    x^d = -c_low/c_high with d = |n - (2k-1)|.
    """
    alpha, beta, lam, k, n = params
    c_n, c_2k = float(beta), k * lam * lam / alpha
    out = [(0.0, 0.0)]
    d = n - (2 * k - 1)
    if d == 0:
        return out  # the S5 boundary, where the zero set is a curve, is excluded
    lo, hi = (c_2k, c_n) if d > 0 else (c_n, c_2k)
    r = -lo / hi
    d = abs(d)
    roots = []
    if d % 2:
        roots.append(math.copysign(abs(r) ** (1.0 / d), r))
    elif r > 0:
        roots.extend((-(r ** (1.0 / d)), r ** (1.0 / d)))
    for x in roots:
        out.append((x, -lam * x**k / alpha))
    return out


def jacobian_det(params, x, y):
    alpha, beta, lam, k, n = params
    ux, uy = k * lam * x ** (k - 1), float(alpha)
    vx = n * beta * x ** (n - 1) - k * (k - 1) * lam * x ** (k - 2) * y
    vy = -k * lam * x ** (k - 1)
    return ux * vy - uy * vx


def kind(params, x, y):
    """'saddle' or 'center' for a nondegenerate zero."""
    return "saddle" if jacobian_det(params, x, y) < 0 else "center"


def stream(params, x, y):
    """psi with (psi_y, -psi_x) = (u, v), constant along every orbit."""
    alpha, beta, lam, k, n = params
    return alpha * y * y / 2 + lam * x**k * y - beta * x ** (n + 1) / (n + 1)


def family_zeros(params, shift, eps, half):
    """Zeros in the box |x|, |y| < half of base - eps*accel, as (x, y, kind).

    ``shift`` = (a0, b0, b1) is the acceleration u1 = (a0, b0 + b1*x), the
    shape of every family here.  On u = 0, y = (eps*a0 - lam*x^k)/alpha,
    which leaves one polynomial in x; its real roots are the zeros.
    """
    import numpy as np

    alpha, beta, lam, k, n = params
    a0, b0, b1 = shift
    deg = max(n, 2 * k - 1, 1)
    c = np.zeros(deg + 1)  # c[i] multiplies x^i
    c[n] += beta
    c[k - 1] -= k * lam * eps * a0 / alpha
    c[2 * k - 1] += k * lam * lam / alpha
    c[0] -= eps * b0
    c[1] -= eps * b1
    out = []
    for r in np.roots(c[::-1]):
        if abs(r.imag) > 1e-9 * max(1.0, abs(r)):
            continue
        x = float(r.real)
        y = (eps * a0 - lam * x**k) / alpha
        if max(abs(x), abs(y)) >= half:
            continue
        det = jacobian_det(params, x, y) + alpha * eps * b1
        out.append((x, y, "saddle" if det < 0 else "center"))
    return sorted(out)
