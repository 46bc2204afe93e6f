"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fraction.  Elimination pivots by column order
(first nonzero entry), so results are deterministic; free variables in
underdetermined solves are set to zero.

`eliminate` is the only elimination loop.  Besides the reduced rows it
records its row operations, so a matrix can be factored once and every
right-hand side replayed through the same operations: `rref`, `rank`,
`nullspace` and `solve` are thin readers of its result.
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
    Returns (rows, Elimination)."""
    m = [list(map(Fraction, row)) for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots, steps = [], []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        updates = []
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr if vr else vi
                        for vi, vr in zip(m[i], m[r])]
                updates.append((i, f))
        steps.append((r, pivot, inv, tuple(updates)))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, Elimination(tuple(pivots), tuple(steps), cols)


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
