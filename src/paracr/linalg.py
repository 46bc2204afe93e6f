"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fraction.  Elimination pivots by column order
(first nonzero entry), so results are deterministic; free variables in
underdetermined solves are set to zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def rref(matrix: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m = [list(map(Fraction, row)) for row in matrix]
    if not m:
        return [], []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


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
    if not matrix:
        return [] if all(v == 0 for v in rhs) else None
    rows, cols = len(matrix), len(matrix[0])
    aug = [list(matrix[r]) + [Fraction(rhs[r])] for r in range(rows)]
    m, pivots = rref(aug)
    sol = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        if pc == cols:
            return None  # pivot in the augmented column
        sol[pc] = m[r][cols]
    return sol
