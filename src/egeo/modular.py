"""Exact integer Smith normal form.

Used by the Cech machinery to read the order of a class over Z/m
without any floating point.
"""

from __future__ import annotations


def _pivot(a: list[list[int]], t: int) -> tuple[int, int] | None:
    """The first smallest-modulus nonzero entry of the trailing block a[t:, t:], row-major.

    Re-selected after every sweep, which keeps entry growth tame. The scan
    stops at an entry of modulus 1: no nonzero integer is smaller, and no
    later entry would replace the first.
    """
    pivot, best = None, None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            x = abs(row[j])
            if x and (best is None or x < best):
                pivot, best = (i, j), x
                if x == 1:
                    return pivot
    return pivot


def smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Return (s, u) with u @ matrix @ v = s for some unimodular v, u unimodular, s diagonal.

    Diagonal entries are nonnegative with s[i] | s[i+1]. The column
    transform v is not built: reading a class over Z/m needs only u.
    """
    a = [[int(x) for x in row] for row in matrix]
    rows, cols = len(a), len(a[0]) if a else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]

    def row_combine(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_combine(i, j, q):  # col i -= q * col j
        for r in range(rows):
            a[r][i] -= q * a[r][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    t = 0
    while t < min(rows, cols):
        pivot = _pivot(a, t)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        clean = True
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                row_combine(i, t, a[i][t] // a[t][t])
                if a[i][t] != 0:
                    clean = False
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                col_combine(j, t, a[t][j] // a[t][t])
                if a[t][j] != 0:
                    clean = False
        if not clean:
            continue  # a strictly smaller pivot now exists; re-select
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        # Divisibility: fold a non-multiple row into the pivot row and redo.
        # Every integer is a multiple of a unit pivot, so then none is sought.
        if a[t][t] != 1:
            folded = next((i for i in range(t + 1, rows) if any(a[i][j] % a[t][t] != 0 for j in range(t + 1, cols))), None)
            if folded is not None:
                row_combine(t, folded, -1)
                continue
        t += 1
    return a, u
