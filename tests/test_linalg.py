import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from paracr import linalg


def F(n, d=1):
    return Fraction(n, d)


def test_rref_identity():
    m = [[F(2), F(0)], [F(0), F(3)]]
    rows, pivots = linalg.rref(m)
    assert rows == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_rank():
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linalg.rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert linalg.rank([]) == 0


def test_nullspace():
    m = [[F(1), F(2), F(3)]]
    basis = linalg.nullspace(m)
    assert len(basis) == 2
    for vec in basis:
        assert sum(c * v for c, v in zip(m[0], vec)) == 0


def test_solve_consistent():
    m = [[F(2), F(1)], [F(1), F(3)]]
    rhs = [F(5), F(10)]
    sol = linalg.solve(m, rhs)
    assert [sum(r[j] * sol[j] for j in range(2)) for r in m] == rhs


def test_solve_inconsistent():
    m = [[F(1), F(1)], [F(2), F(2)]]
    assert linalg.solve(m, [F(1), F(3)]) is None


def test_solve_underdetermined_zeroes_free_vars():
    m = [[F(1), F(1), F(0)]]
    sol = linalg.solve(m, [F(7)])
    assert sol == [F(7), F(0), F(0)]


def test_solve_random_square_systems():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        x = [F(rng.randint(-5, 5)) for _ in range(n)]
        rhs = [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]
        sol = linalg.solve(m, rhs)
        assert sol is not None
        back = [sum(m[i][j] * sol[j] for j in range(n)) for i in range(n)]
        assert back == rhs


# ---- reduce-then-replay against an independent reduction -----------------

entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def systems(draw):
    """A small rational system M v = rhs.  Some rows of M repeat combinations
    of earlier rows, so M is often rank-deficient, and rhs is either in the
    image of M or drawn freely, so the system may be inconsistent."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    m = []
    for _ in range(rows):
        if m and draw(st.booleans()):
            a, b = draw(entries), draw(entries)
            i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
            m.append([a * x + b * y for x, y in zip(m[i], m[j])])
        else:
            m.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=cols, max_size=cols))
        rhs = [sum(r * v for r, v in zip(row, x)) for row in m]
    else:
        rhs = draw(st.lists(entries, min_size=rows, max_size=rows))
    return m, rhs


def reference_rref(matrix):
    """Gauss-Jordan written apart from linalg; it pivots on the last
    candidate row instead of the first, which the unique RREF ignores."""
    m = [list(row) for row in matrix]
    pivots, r = [], 0
    for c in range(len(m[0])):
        candidates = [i for i in range(r, len(m)) if m[i][c] != 0]
        if not candidates:
            continue
        i = candidates[-1]
        m[r], m[i] = m[i], m[r]
        lead = m[r][c]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def reference_solve(matrix, rhs):
    """Reduce the augmented matrix; None when a pivot lands in the last
    column, else the solution with free variables zeroed."""
    cols = len(matrix[0])
    m, pivots = reference_rref([row + [b] for row, b in zip(matrix, rhs)])
    if pivots and pivots[-1] == cols:
        return None
    sol = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        sol[pc] = m[r][cols]
    return sol


@settings(max_examples=300, deadline=None)
@given(systems())
def test_replay_matches_augmented_reduction(system):
    m, rhs = system
    want = reference_solve(m, rhs)
    assert linalg.solve(m, rhs) == want
    rows, pivots = linalg.rref(m)
    assert (rows, pivots) == reference_rref(m)
    # replaying the matrix's own columns rebuilds its reduced form
    elim = linalg.eliminate(m)[1]
    assert elim.solve(rhs) == want
    for j in range(len(m[0])):
        assert elim.replay([row[j] for row in m]) == [row[j] for row in rows]


# ---- the sparse elimination against the dense loop it replaced ------------

def dense_eliminate(matrix):
    """Gauss-Jordan over dense rows, recording the same steps as
    linalg.eliminate: (row, pivot_row, inverse, ((other, factor), ...))."""
    m = [list(map(Fraction, row)) for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots, steps, r = [], [], 0
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
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                updates.append((i, f))
        steps.append((r, pivot, inv, tuple(updates)))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, tuple(pivots), tuple(steps)


@st.composite
def sparse_matrices(draw):
    """Tall, wide or square rational matrices, about one entry in four
    nonzero, with a forced zero row and zero column at times, and at times a
    last row that combines two others."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    nonzero = entries.filter(bool)
    m = [[draw(nonzero) if draw(st.integers(0, 3)) == 0 else Fraction(0)
          for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [Fraction(0)] * cols
    if rows and cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = Fraction(0)
    if rows >= 3 and draw(st.booleans()):
        a, b = draw(nonzero), draw(nonzero)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_elimination_matches_dense(m):
    rows, elim = linalg.eliminate(m)
    want_rows, want_pivots, want_steps = dense_eliminate(m)
    assert rows == want_rows
    assert all(type(v) is Fraction for row in rows for v in row)
    assert (elim.pivots, elim.steps) == (want_pivots, want_steps)
    assert elim.columns == (len(m[0]) if m else 0)
