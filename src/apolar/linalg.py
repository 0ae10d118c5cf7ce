"""Dense exact linear algebra over the rationals.

Everything in the toolkit that needs a rank, a kernel, or a solved linear
system comes through here.  Matrices are immutable and their entries are
`fractions.Fraction` at the API.  Elimination itself is fraction-free: each
row is scaled to integers, a step replaces a row by lead*row - f*pivot_row,
and the result is divided by the gcd of its entries (its content).

Integers stop and `Fraction`s begin at the results: `RationalMatrix.rref`
divides each pivot row by its pivot, `solve_rows` divides the last entry of
each Gauss-Jordan pivot row by its pivot entry, and `echelon_with_combinations`
and `reduce_against` divide each row by its own input coefficient.  Callers
that hold integer rows already (the killing step, generator reduction) call
the integer cores `solve_rows`, `combination_echelon` and `reduce_rows`
directly and build no `RationalMatrix`.

Elimination is deterministic: pivots are the first nonzero entry scanning
columns left to right and rows top to bottom.  That choice depends only on
which entries are zero, and no row's scale changes which entries are, so
reduced forms, kernels, solutions and echelon pairs are the same, bit for
bit, as those of a `Fraction` elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]


_ZERO = Fraction(0)


def _as_fraction_row(row: Iterable) -> Vector:
    """The entries as `Fraction`s; those that already are stay as they are."""
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)


def _primitive(row: list[int]) -> list[int]:
    """`row` divided by the gcd of its entries (a zero row is returned as is)."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _integer_row(row: Sequence) -> list[int]:
    """Primitive integer row proportional to a row of rationals."""
    den = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _eliminate(row: list[int], pivot_row: list[int], col: int) -> list[int]:
    """`row` with its entry in `col` cleared by `pivot_row`, made primitive."""
    lead, f = pivot_row[col], row[col]
    return _primitive([lead * a - f * b for a, b in zip(row, pivot_row)])


def _echelon(rows: list[list[int]], ncols: int, reduced: bool) -> list[tuple[int, int]]:
    """Eliminate the integer `rows` in place; return (row, column) per pivot.

    Rows are never reordered.  The pivot of column c is the first row, in
    input order, that is not yet a pivot row and is nonzero in c, so until
    a row becomes a pivot row it is reduced only by rows before it: for
    every k the pivot columns of rows[:k] are those of the span of
    rows[:k].  Below each pivot the rows that are not yet pivot rows are
    cleared; with `reduced`, the pivot rows above it too (Gauss-Jordan).
    """
    free = [i for i, row in enumerate(rows) if any(row)]
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        if not free:
            break
        p = next((i for i in free if rows[i][c]), None)
        if p is None:
            continue
        free.remove(p)
        pivot_row = rows[p]
        for i in range(len(rows)) if reduced else free:
            if i != p and rows[i][c]:
                rows[i] = _eliminate(rows[i], pivot_row, c)
        pivots.append((p, c))
    return pivots


def forward_echelon(rows: Sequence[Sequence]) -> list[tuple[int, int, list[int]]]:
    """Forward elimination of rational `rows`, over the integers.

    Returns (input index, pivot column, row) for each pivot, in column
    order; the row is the eliminated input row, a primitive integer vector
    whose first nonzero entry sits in the pivot column.  For every k the
    pivots with input index below k are those of the span of rows[:k].
    """
    ints = [_integer_row(r) for r in rows]
    ncols = len(ints[0]) if ints else 0
    return [(i, c, ints[i]) for i, c in _echelon(ints, ncols, reduced=False)]


def _fraction_row(row: Sequence[int], den: int) -> Vector:
    """The rationals `row / den`."""
    return tuple(Fraction(v, den) if v else _ZERO for v in row)


class RationalMatrix:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("_data", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable]):
        data = tuple(_as_fraction_row(r) for r in entries)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    # ---- construction helpers -------------------------------------------

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "RationalMatrix":
        cols = [_as_fraction_row(c) for c in columns]
        if not cols:
            return cls([])
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise ValueError("ragged columns")
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(height)])

    @classmethod
    def stacked(cls, blocks: Sequence["RationalMatrix"]) -> "RationalMatrix":
        """Vertical concatenation, in block order."""
        blocks = list(blocks)
        if not blocks:
            return cls([])
        width = blocks[0].cols
        if any(b.cols != width for b in blocks):
            raise ValueError("column count mismatch in stack")
        return cls([row for b in blocks for row in b._data])

    # ---- access ----------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> Vector:
        return self._data[i]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    # ---- elimination -----------------------------------------------------

    def rank(self) -> int:
        """Exact rank: the number of pivots of a forward elimination."""
        return len(forward_echelon(self._data))

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        rows = [_integer_row(r) for r in self._data]
        pivots = _echelon(rows, self.cols, reduced=True)
        reduced = [_fraction_row(rows[i], rows[i][c]) for i, c in pivots]
        reduced += [[_ZERO] * self.cols for _ in range(len(rows) - len(pivots))]
        return RationalMatrix(reduced), tuple(c for _, c in pivots)

    def kernel_basis(self) -> list[Vector]:
        """Deterministic basis of the right null space.

        One basis vector per free column of the reduced echelon form, with a
        1 in the free position and the negated reduced entries in the pivot
        positions.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [Fraction(0)] * self.cols
            v[free] = Fraction(1)
            for i, c in enumerate(pivots):
                v[c] = -red[i, free]
            basis.append(tuple(v))
        return basis

    def solve(self, b: Sequence) -> Optional[Vector]:
        """Some x with M @ x = b, or None if b is outside the column space.

        Free variables are set to zero, so the solution is the unique one
        supported on the pivot columns of the reduced echelon form.
        """
        rhs = _as_fraction_row(b)
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length does not match row count")
        return solve_rows(
            [_integer_row(row + (v,)) for row, v in zip(self._data, rhs)], self.cols
        )


def solve_rows(rows: list[list[int]], ncols: int) -> Optional[Vector]:
    """Solve the integer augmented system [A | b]: some x with A @ x = b, or None.

    Each row holds `ncols` entries of A and then its entry of b; the rows are
    eliminated in place (Gauss-Jordan).  b lies outside the column space of A
    exactly when the last column gets a pivot.  Free variables are zero, so
    x_c is the last entry of the pivot row of column c over its pivot entry.
    """
    pivots = _echelon(rows, ncols + 1, reduced=True)
    if pivots and pivots[-1][1] == ncols:
        return None
    x = [_ZERO] * ncols
    for i, c in pivots:
        v = rows[i][ncols]
        if v:
            x[c] = Fraction(v, rows[i][c])
    return tuple(x)


def combination_echelon(rows: Sequence[list[int]], width: int) -> list[tuple[list[int], int, int]]:
    """Forward echelon of integer rows [vector | combination], in input order.

    The first `width` entries of a row are a vector, the rest its combination
    of some inputs.  Each row in turn is reduced against the rows kept so
    far, at their lead columns, and kept when its vector part is nonzero.
    Returns (row, lead column, input index) per kept row.
    """
    kept: list[tuple[list[int], int, int]] = []
    for k, cur in enumerate(rows):
        for row, col, _ in kept:
            if cur[col]:
                cur = _eliminate(cur, row, col)
        lead = next((i for i in range(width) if cur[i]), None)
        if lead is not None:
            kept.append((cur, lead, k))
    return kept


def reduce_rows(echelon: Iterable[tuple[list[int], int]], row: list[int]) -> list[int]:
    """`row` reduced, in turn, at the lead column of each (echelon row, lead) pair."""
    for pivot_row, lead in echelon:
        if row[lead]:
            row = _eliminate(row, pivot_row, lead)
    return row


def echelon_with_combinations(
    vectors: Sequence[Sequence],
) -> list[tuple[Vector, Vector]]:
    """Forward echelon of `vectors`, tracking how each output row was formed.

    Returns pairs (row, combo) where combo has one coefficient per input
    vector and row = sum combo_k * vectors[k].  Zero rows are discarded.
    Each input k is reduced in turn against the rows kept so far, and the
    kept row is normalised so that combo_k = 1.
    """
    vecs = [_as_fraction_row(v) for v in vectors]
    n = len(vecs)
    width = len(vecs[0]) if vecs else 0
    if any(len(v) != width for v in vecs):
        raise ValueError("ragged vectors")
    # Each row is [row | combo] over the integers, a nonzero multiple of the
    # rational pair.
    kept = combination_echelon(
        [_integer_row(v + (0,) * k + (1,) + (0,) * (n - k - 1)) for k, v in enumerate(vecs)],
        width,
    )
    return [
        (_fraction_row(row[:width], row[width + k]), _fraction_row(row[width:], row[width + k]))
        for row, _, k in kept
    ]


def reduce_against(
    echelon: Sequence[tuple[Vector, Vector]], vector: Sequence
) -> tuple[Vector, Vector]:
    """Normal form of `vector` against rows from echelon_with_combinations.

    Returns (residual, combo) with residual = vector - sum combo_k * inputs[k],
    where the inputs are the original vectors the echelon was built from.
    """
    v = _as_fraction_row(vector)
    width = len(v)
    if echelon and len(echelon[0][0]) != width:
        raise ValueError("vector length does not match the echelon rows")
    n = len(echelon[0][1]) if echelon else 0
    # [residual | -combo | 1] over the integers, up to a common nonzero
    # factor; the echelon pairs get a zero in the last column to match.
    rows = [
        (_integer_row(row + combo + (0,)), next(i for i in range(width) if row[i]))
        for row, combo in echelon
    ]
    cur = reduce_rows(rows, _integer_row(v + (0,) * n + (1,)))
    return _fraction_row(cur[:width], cur[-1]), _fraction_row(cur[width:-1], -cur[-1])
