"""Exact dense linear algebra over a field (Q or Q(x)).

The elements only need +, -, *, /, equality with 0 via truthiness, and the
caller supplies the field's zero and one.  Everything is plain Gaussian
elimination to reduced row echelon form; solution spaces come back as a
particular solution (free variables set to 0) plus a canonical nullspace
basis, which keeps downstream certificate output deterministic.
"""

from __future__ import annotations


def solve_affine(rows, rhs, zero, one):
    """Solve rows * v = rhs.

    Returns (particular, basis): ``particular`` is None when the system is
    inconsistent (the basis of the homogeneous system is still returned).
    """
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
        for i in range(nrows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                row_r = aug[r]
                aug[i] = [a - f * b for a, b in zip(aug[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    consistent = all(not aug[i][ncols] for i in range(r, nrows))

    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for row_idx, pc in enumerate(pivots):
            v = aug[row_idx][fc]
            if v:
                vec[pc] = -v
        basis.append(vec)

    if not consistent:
        return None, basis
    particular = [zero] * ncols
    for row_idx, pc in enumerate(pivots):
        particular[pc] = aug[row_idx][ncols]
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
