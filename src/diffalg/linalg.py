"""Exact linear algebra: the solve over Q, the one elimination over Q[x],
and ``MatrixRF``, the square matrix over Q(x) whose inverse runs it.

``solve_affine`` brings an augmented system over Q to reduced row echelon
form and returns the solution space as a particular solution (free variables
set to 0) plus a canonical nullspace basis (one vector per free column).
The reduced form is unique, so downstream certificate output is
deterministic whichever way it is computed.  Each augmented row is cleared
to a sparse primitive integer row ``{column: value}`` and the reduced form is
built one row at a time, in the order of sympy's ``sdm_irref``: rows are
taken by descending leading column; each is reduced against the pivot rows
found so far, takes its leftmost nonzero as a new pivot, and clears that
column from the earlier pivot rows that have it.  Both steps are the one
row update ``pv*row - f*pivot_row``, divided by gcd(pv, f); a new or changed
pivot row is then made primitive.  The solver's ansatz systems are banded,
with entries of hundreds of bits: this order touches only nonzeros, takes
one gcd per row update, and never visits a row again once it reduces to
zero, where sweeping every row at every pivot spends most of its time on
zeros and gcds.  The solution space is read straight off the sparse pivot
rows, with no dense matrix: the entry of a pivot row in a free column gives
that column's nullspace vector, its right-hand entry the particular
solution, and a row that reduced to zero on the left only marks the system
inconsistent.  Rationals are only built for the entries that leave the
kernel, as ``numerator / pivot``.

Over Q(x) nothing is solved as fractions.  A caller clears its rows to
polynomial rows over Q[x] and adds them one at a time to a
``FractionFreeRows``, which keeps them in fraction-free echelon form
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968): every entry is a minor of the rows, so
no gcd is taken and each division is exact.  The first row that depends on
the earlier ones comes back as a polynomial relation.  Once n independent
rows of length n are kept, the same elimination continues by back
substitution to adj(P)*b for any b, with det(P) its denominator, so
P^-1 b = adj(P) b / det(P) needs no second elimination.  This is the one
elimination over Q(x): it gives the cyclic equation of a first-order system
and its lift (``solver._eliminate``), and the inverse of ``MatrixRF``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import PreconditionError, SingularMatrixError
from .numcore import Poly, Rat, RatFun, poly_lcm, primitive_ints


def solve_affine(rows, rhs, zero, one):
    """Solve rows * v = rhs over Q.

    Returns (particular, basis): ``particular`` is None when the system is
    inconsistent (the basis of the homogeneous system is still returned).
    """
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
    # an entry v of the row with pivot pc stands for v / row[pc]; the
    # other columns of a pivot row are free, since each pivot row is zero
    # in every pivot column but its own
    free = {c: [zero] * ncols for c in range(ncols) if c not in pivot_rows}
    particular = [zero] * ncols
    for pc, row in pivot_rows.items():
        pv = row[pc]
        for c, v in row.items():
            if c == ncols:
                particular[pc] = Rat(v, pv)
            elif c != pc:
                free[c][pc] = Rat(-v, pv)
    for c, vec in free.items():
        vec[c] = one
    return None if inconsistent else particular, list(free.values())


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


class FractionFreeRows:
    """Rows over Q[x] added one at a time and kept, while they are linearly
    independent, in fraction-free echelon form (Bareiss 1968).

    Kept row s has its pivot p_s at column ``pivots[s]`` and zeros at the
    earlier pivot columns; its entry at column j is the minor of rows 0..s
    on columns pivots[0..s-1] and j, and ``combos[s]`` writes it as a
    combination of rows 0..s.  A new row is reduced by one step per kept
    row, row <- (p_s*row - row[pivots[s]]*kept_s) / p_(s-1) with p_(-1) = 1,
    and every division is exact by Sylvester's identity: no gcd is taken.
    ``den``, the last pivot, is +-det of the kept rows on the pivot columns.
    """

    __slots__ = ("pivots", "values", "rows", "combos")

    def __init__(self):
        self.pivots: list[int] = []
        self.values: list[Poly] = []
        self.rows: list[list[Poly]] = []
        self.combos: list[list[Poly]] = []

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def den(self) -> Poly:
        return self.values[-1] if self.values else Poly.one()

    def add(self, row: list[Poly]) -> list[Poly] | None:
        """Keep ``row`` and return None when it is independent of the kept
        rows.  Otherwise keep nothing and return the relation c over the
        kept rows and then this one: sum_i c[i]*row_i = 0, with
        c[-1] = den != 0."""
        zero = Poly.zero()
        new = list(row)
        # the coefficients of the kept rows: those past step s are still
        # zero there, and this row's own coefficient is always prev
        combo = [zero] * len(self.rows)
        # columns that are not yet a pivot: the others are zero in new
        free = list(range(len(row)))
        prev = Poly.one()
        for j, p, kept, kept_combo in zip(self.pivots, self.values, self.rows, self.combos):
            free.remove(j)
            f = new[j]
            new[j] = zero
            for i in free:
                new[i] = _bareiss_step(p, new[i], f, kept[i], prev)
            for i, b in enumerate(kept_combo):
                combo[i] = _bareiss_step(p, combo[i], f, b, prev)
            prev = p
        combo.append(prev)
        # the pivot of lowest degree keeps the next minors small
        col = min((j for j in free if new[j]), key=lambda j: new[j].degree, default=None)
        if col is None:
            return combo
        self.pivots.append(col)
        self.values.append(new[col])
        self.rows.append(new)
        self.combos.append(combo)
        return None

    def solve(self, b: list[Poly]) -> list[Poly]:
        """adj(P)*b, up to the sign of ``den``, for the n kept rows P of
        length n: P^-1 b = solve(b) / den.  The kept rows are the upper
        triangle U = L*P, so U x = L*b is solved for y = den*x by back
        substitution, each step an exact division by its pivot."""
        zero, det = Poly.zero(), self.den
        y = [zero] * len(self.rows)
        for s in range(len(self.rows) - 1, -1, -1):
            kept = self.rows[s]
            acc = det * sum((li * bi for li, bi in zip(self.combos[s], b) if li and bi), zero)
            for t in self.pivots[s + 1 :]:
                if kept[t] and y[t]:
                    acc = acc - kept[t] * y[t]
            y[self.pivots[s]] = acc.exact_div(self.values[s])
        return y


def _bareiss_step(p: Poly, a: Poly, f: Poly, b: Poly, prev: Poly) -> Poly:
    """(p*a - f*b) / prev, an exact division."""
    v = p * a - f * b if f and b else p * a
    return v.exact_div(prev) if prev != Poly.one() else v


def common_denominator(fs: list[RatFun]) -> tuple[Poly, list[Poly]]:
    """(d, [f * d for f in fs]) for d the monic lcm of the denominators."""
    d = Poly.one()
    for f in fs:
        d = poly_lcm(d, f.den)
    return d, [f.num * d.exact_div(f.den) for f in fs]


class MatrixRF(namedtuple("MatrixRF", "entries")):
    """Square matrix over Q(x), its rows a tuple of tuples.  Its inverse
    clears each row to a polynomial row over its own denominator and runs
    one fraction-free elimination over Q[x] (``FractionFreeRows``)."""

    __slots__ = ()

    def __new__(cls, entries):
        # rows of RatFun entries, as the parser and the matrix operations
        # build them, are kept; only other rows are coerced
        rows = tuple(
            tuple(row) if all(type(v) is RatFun for v in row) else tuple(map(RatFun._coerce, row)) for row in entries
        )
        if not rows or any(len(r) != len(rows) for r in rows):
            raise PreconditionError("MatrixRF must be square and nonempty")
        return tuple.__new__(cls, (rows,))

    @classmethod
    def _make(cls, fields):  # so that _replace validates like the constructor
        return cls(*fields)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "MatrixRF") -> "MatrixRF":
        n = self.n
        return MatrixRF(
            [
                [
                    sum((self.entries[i][k] * other.entries[k][j] for k in range(n)), RatFun.zero())
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def mat_vec(self, vec) -> list[RatFun]:
        return [
            sum((self.entries[i][k] * vec[k] for k in range(self.n)), RatFun.zero())
            for i in range(self.n)
        ]

    def map(self, fn) -> "MatrixRF":
        return MatrixRF([[fn(v) for v in row] for row in self.entries])

    def inverse(self) -> "MatrixRF":
        """A^-1 = P^-1 diag(l_i) for P = diag(l_i) A, where l_i clears the
        denominators of row i: column i is adj(P) (l_i e_i) / det(P), one
        normalised ``RatFun`` per entry."""
        elim, dens = FractionFreeRows(), []
        for row in self.entries:
            den, prow = common_denominator(list(row))
            if elim.add(prow) is not None:
                raise SingularMatrixError("matrix is singular over Q(x)")
            dens.append(den)
        zero, det, n = Poly.zero(), elim.den, self.n
        cols = [elim.solve([dens[i] if k == i else zero for k in range(n)]) for i in range(n)]
        return MatrixRF([[RatFun(col[j], det) for col in cols] for j in range(n)])
