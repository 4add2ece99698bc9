"""Exact linear algebra over Q and over Q(x).

Both solvers bring the augmented system to reduced row echelon form and
return the solution space as a particular solution (free variables set to 0)
plus a canonical nullspace basis (one vector per free column).  The reduced
form is unique, so downstream certificate output is deterministic whichever
way it is computed.

The element type picks the path:

- Over Q (``zero`` is an int or a rational), each augmented row is cleared to
  a sparse primitive integer row ``{column: value}`` and the reduced form is
  built one row at a time, in the order of sympy's ``sdm_irref``: rows are
  taken by descending leading column; each is reduced against the pivot rows
  found so far, takes its leftmost nonzero as a new pivot, and clears that
  column from the earlier pivot rows that have it.  Both steps are the one
  row update ``pv*row - f*pivot_row``, divided by gcd(pv, f); a new or
  changed pivot row is then made primitive.  The solver's
  ansatz systems are banded, with entries of hundreds of bits: this order
  touches only nonzeros, takes one gcd per row update, and never visits a
  row again once it reduces to zero, where sweeping every row at every
  pivot spends most of its time on zeros and gcds.  Rationals are only
  built for the entries that leave the kernel, as ``numerator / pivot``.
- Over Q(x) (``zero`` is a rational function), plain Gauss-Jordan runs on the
  field elements, which only need +, -, *, /, and truthiness for zero.  This
  is the one elimination over Q(x): a matrix inverse and an invertibility
  test are read off a nullspace it computes (``solver.MatrixRF``).
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
    ncols = len(rows[0]) if rows else 0
    pending = []
    for r, b in zip(rows, rhs):
        cols = [c for c, v in enumerate(r) if v]
        vals = [r[c] for c in cols]
        if b:
            cols.append(ncols)
            vals.append(b)
        if cols:
            pending.append(dict(zip(cols, primitive_ints(vals))))
    # rows are taken by descending leading column, as in sympy's sdm_irref
    pending.sort(key=min)
    pivot_rows: dict[int, dict[int, int]] = {}
    inconsistent = False
    while pending:
        row = pending.pop()
        for j in row.keys() & pivot_rows.keys():
            row = _row_update(row, pivot_rows[j], j)
        if not row:
            continue
        j = min(row)
        if j == ncols:
            # zero on the left, nonzero on the right
            inconsistent = True
            continue
        row = _primitive_row(row)
        # clear the new pivot column from the earlier pivot rows; they stay
        # zero in every other pivot column
        for k, prow in pivot_rows.items():
            if j in prow:
                pivot_rows[k] = _primitive_row(_row_update(prow, row, j))
        pivot_rows[j] = row
    pivots = sorted(pivot_rows)
    aug = []
    for pc in pivots:
        dense = [0] * (ncols + 1)
        for c, v in pivot_rows[pc].items():
            dense[c] = v
        aug.append(dense)
    if inconsistent:
        aug.append([0] * ncols + [1])
    return _read_off(aug, pivots, ncols, zero, one, Rat)


def _row_update(row, prow, j):
    """(pv*row - f*prow) / gcd(pv, f), with pv and f the entries of prow and
    row in prow's pivot column j: row without column j.  Consumes row."""
    pv, f = prow[j], row.pop(j)
    g = math.gcd(pv, f)
    a, b = pv // g, f // g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    for c, v in prow.items():
        if c != j:
            v = row.get(c, 0) - b * v
            if v:
                row[c] = v
            else:
                del row[c]
    return row


def _primitive_row(row):
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


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

