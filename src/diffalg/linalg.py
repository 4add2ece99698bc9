"""Exact dense linear algebra over Q and over Q(x).

Both solvers bring the augmented system to reduced row echelon form and
return the solution space as a particular solution (free variables set to 0)
plus a canonical nullspace basis (one vector per free column).  The reduced
form is unique, so downstream certificate output is deterministic whichever
way it is computed.

The element type picks the path:

- Over Q (``zero`` is an int or a rational), each augmented row is cleared to
  integers and Gauss-Jordan runs on primitive integer rows: a row update is
  ``pv*row_i - f*row_r`` divided by the gcd of the result.  Rationals are only
  built for the entries that leave the kernel, as ``numerator / pivot``.
- Over Q(x) (``zero`` is a rational function), plain Gauss-Jordan runs on the
  field elements, which only need +, -, *, /, and truthiness for zero.
"""

from __future__ import annotations

import math
from numbers import Rational

from .numcore import Rat, primitive_ints


def solve_affine(rows, rhs, zero, one):
    """Solve rows * v = rhs.

    Returns (particular, basis): ``particular`` is None when the system is
    inconsistent (the basis of the homogeneous system is still returned).
    """
    if isinstance(zero, Rational):
        return _solve_affine_int(rows, rhs, zero, one)
    return _solve_affine_field(rows, rhs, zero, one)


def _solve_affine_int(rows, rhs, zero, one):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [primitive_ints(list(r) + [b]) for r, b in zip(rows, rhs)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # the smallest pivot keeps the integers small; the reduced form is the
        # same whichever row is chosen
        pr, best = None, 0
        for i in range(r, nrows):
            v = abs(aug[i][c])
            if v and (pr is None or v < best):
                pr, best = i, v
                if v == 1:
                    break
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        row_r = aug[r]
        pv = row_r[c]
        for i in range(nrows):
            row_i = aug[i]
            f = row_i[c]
            if i == r or not f:
                continue
            g = math.gcd(pv, f)
            a, b = pv // g, f // g
            if a == 1:
                new = [x - b * y for x, y in zip(row_i, row_r)]
            else:
                new = [a * x - b * y for x, y in zip(row_i, row_r)]
            g = math.gcd(*new)
            aug[i] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return _read_off(aug, pivots, ncols, zero, one, Rat)


def _solve_affine_field(rows, rhs, zero, one):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if aug[i][c]:
                pr = i
                break
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        if pv != one:
            aug[r] = [v / pv for v in aug[r]]
        row_r = aug[r]
        for i in range(nrows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # pivot rows are scaled to pivot one: entries are read as they are
    return _read_off(aug, pivots, ncols, zero, one, lambda v, pivot: v)


def _read_off(aug, pivots, ncols, zero, one, ratio):
    """(particular, canonical nullspace) of a reduced augmented matrix whose
    row k has its pivot in column pivots[k]; an entry v of that row stands
    for ratio(v, pivot).  Rows below the pivot rows are zero on the left."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for row, pc in zip(aug, pivots):
            if row[fc]:
                vec[pc] = ratio(-row[fc], row[pc])
        basis.append(vec)
    if any(row[ncols] for row in aug[len(pivots):]):
        return None, basis
    particular = [zero] * ncols
    for row, pc in zip(aug, pivots):
        if row[ncols]:
            particular[pc] = ratio(row[ncols], row[pc])
    return particular, basis


def invert_matrix(rows, zero, one):
    """Gauss-Jordan inverse; returns None when the matrix is singular."""
    n = len(rows)
    aug = [list(rows[i]) + [one if i == j else zero for j in range(n)] for i in range(n)]
    for c in range(n):
        pr = None
        for i in range(c, n):
            if aug[i][c]:
                pr = i
                break
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        pv = aug[c][c]
        if pv != one:
            aug[c] = [v / pv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                row_c = aug[c]
                aug[i] = [a - f * b for a, b in zip(aug[i], row_c)]
    return [row[n:] for row in aug]
