"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fraction.  Elimination pivots by column order
(first nonzero entry), so results are deterministic; free variables in
underdetermined solves are set to zero.

`eliminate` is the only elimination loop.  It works over sparse rows, since
the `cmoperator` matrices are mostly zero, and records its row operations in
an `Elimination`, so a matrix can be factored once and every right-hand side
replayed through the same operations: `rref`, `rank`, `nullspace` and
`solve` are thin readers of its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class Elimination:
    """The row operations that bring a matrix to reduced row echelon form.

    One step per pivot, `(row, pivot_row, inverse, ((other, factor), ...))`:
    swap `row` and `pivot_row`, scale `row` by `inverse`, then subtract
    `factor` times `row` from each `other` row."""

    pivots: tuple
    steps: tuple
    columns: int

    def replay(self, column: Sequence) -> list:
        """The column after the recorded row operations."""
        v = list(map(Fraction, column))
        for r, pivot, inv, updates in self.steps:
            v[r], v[pivot] = v[pivot], v[r]
            vr = v[r] = v[r] * inv
            if vr:
                for i, f in updates:
                    v[i] -= f * vr
        return v

    def solve(self, rhs: Sequence) -> list | None:
        """One exact solution of matrix @ v = rhs with free variables zeroed,
        or None if the system is inconsistent."""
        v = self.replay(rhs)
        if any(v[len(self.pivots):]):
            return None
        sol = [Fraction(0)] * self.columns
        for r, pc in enumerate(self.pivots):
            sol[pc] = v[r]
        return sol


def eliminate(matrix: Sequence[Sequence[Fraction]]) -> tuple:
    """Reduced row echelon form and the operations that produce it.
    Returns (rows, Elimination).  Rows are {column: nonzero entry} while
    eliminating, and dense, sharing one Fraction(0), when returned."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    m = [{j: v if type(v) is Fraction else Fraction(v)
          for j, v in enumerate(row) if v} for row in matrix]
    pivots, steps = [], []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if c in m[i]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        row = m[r] = {j: v * inv for j, v in m[r].items()}
        updates = []
        for i, other in enumerate(m):
            f = other.get(c) if i != r else None
            if f is None:
                continue
            for j, v in row.items():
                x = other.get(j, 0) - f * v
                if x:
                    other[j] = x
                else:
                    del other[j]
            updates.append((i, f))
        steps.append((r, pivot, inv, tuple(updates)))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    zero = Fraction(0)
    dense = [[row.get(j, zero) for j in range(cols)] for row in m]
    return dense, Elimination(tuple(pivots), tuple(steps), cols)


def rref(matrix: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m, elim = eliminate(matrix)
    return m, list(elim.pivots)


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix):
    """Basis of the right nullspace, one vector per free column, in column
    order; the free coordinate of each vector is normalized to 1."""
    if not matrix:
        return []
    cols = len(matrix[0])
    m, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][free]
        basis.append(vec)
    return basis


def solve(matrix, rhs):
    """One exact solution of matrix @ v = rhs with free variables zeroed,
    or None if the system is inconsistent."""
    return eliminate(matrix)[1].solve(rhs)
