"""Exact linear feasibility over the rationals.

A small dense phase-1 simplex with Bland's rule, pivoted over integers. Each
tableau row is its rational row times its own positive integer scale, and a
pivot sets row_i to p * row_i - row_i[c] * row_r divided by the gcd of its
entries, with p > 0 (integer-preserving elimination, after Edmonds). Since
no scale changes sign, every sign test, cross-multiplied ratio comparison
and Bland tie-break agrees with the Fraction tableau, so the pivot sequence
and the point returned are the same: no tolerance anywhere, no cycling.
Sized for the handful of variables a book template produces, not for
production LP work.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import BoundsError

LinearRow = tuple[Mapping[str, Fraction], str, Fraction]  # (coefficients, op, rhs)


def find_feasible_point(
    rows: Sequence[LinearRow],
    bounds: Mapping[str, tuple[Fraction, Fraction]],
) -> dict[str, Fraction] | None:
    """A point satisfying every row and every bound, or None if there is none.

    Rows use op "<=" or ">=". Bounds must be finite with lo <= hi; they
    are part of the system, not a hint.
    """
    names = list(bounds)
    for name in names:
        lo, hi = bounds[name]
        if lo > hi:
            raise BoundsError(f"{name}: empty bounds [{lo}, {hi}]")
    free = [name for name in names if bounds[name][0] != bounds[name][1]]
    lows = {name: bounds[name][0] for name in names}

    # Shift x = lo + y (y >= 0) and normalize every row to "<=".
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def add_row(coeffs: Mapping[str, Fraction], limit: Fraction) -> bool:
        row = [Fraction(coeffs.get(name, 0)) for name in free]
        if any(row):
            matrix.append(row)
            rhs.append(limit)
            return True
        return limit >= 0

    for coeffs, op, bound in rows:
        unknown = set(coeffs) - set(names)
        if unknown:
            raise BoundsError(f"no bounds given for variable(s) {sorted(unknown)}")
        shifted = bound - sum(
            (Fraction(c) * lows[name] for name, c in coeffs.items()), Fraction(0)
        )
        if op == "<=":
            ok = add_row(coeffs, shifted)
        elif op == ">=":
            ok = add_row({name: -Fraction(c) for name, c in coeffs.items()}, -shifted)
        else:
            raise ValueError(f"unsupported op {op!r}")
        if not ok:
            return None

    for name in free:
        lo, hi = bounds[name]
        add_row({name: Fraction(1)}, hi - lo)

    solution = _phase_one(matrix, rhs, len(free))
    if solution is None:
        return None
    point = {name: lows[name] for name in names}
    for index, name in enumerate(free):
        point[name] = lows[name] + solution[index]
    return point


def _phase_one(
    matrix: list[list[Fraction]], rhs: list[Fraction], n_vars: int
) -> list[Fraction] | None:
    """Solve A y <= b, y >= 0 for a basic feasible point via artificials.

    Row i of the tableau is s_i > 0 times the rational tableau row; the last
    row is the objective, likewise scaled. Every scale stays positive.
    """
    m = len(matrix)
    if m == 0:
        return [Fraction(0)] * n_vars

    artificial_rows = [i for i in range(m) if rhs[i] < 0]
    width = n_vars + m + len(artificial_rows)
    art_col = {row: n_vars + m + k for k, row in enumerate(artificial_rows)}

    tableau: list[list[int]] = []
    basis: list[int] = []
    for i in range(m):
        scale = lcm(rhs[i].denominator, *(value.denominator for value in matrix[i]))
        sign = -scale if rhs[i] < 0 else scale
        row = [value.numerator * (sign // value.denominator) for value in matrix[i]]
        row += [0] * (width - n_vars)
        row.append(rhs[i].numerator * (sign // rhs[i].denominator))
        row[n_vars + i] = sign  # slack
        if i in art_col:
            row[art_col[i]] = scale
        basis.append(art_col.get(i, n_vars + i))
        tableau.append(row)

    # Minimize the artificial sum: S * (artificial costs) - sum (S / s_i) * row_i
    # over the artificial rows, S the lcm of their scales.
    common = lcm(*(tableau[i][art_col[i]] for i in artificial_rows))
    objective = [0] * (n_vars + m) + [common] * len(artificial_rows) + [0]
    for i in artificial_rows:
        factor = common // tableau[i][art_col[i]]
        objective = [z - factor * a for z, a in zip(objective, tableau[i])]
    tableau.append(objective)

    while True:
        entering = next((col for col in range(width) if tableau[m][col] < 0), None)
        if entering is None:
            break
        # Ratio test on rhs_i / row_i[entering], cross-multiplied: each divisor is > 0.
        leaving = None
        for i in range(m):
            row = tableau[i]
            if row[entering] > 0:
                if leaving is not None:
                    best = tableau[leaving]
                    here, there = row[width] * best[entering], best[width] * row[entering]
                    if here > there or (here == there and basis[i] > basis[leaving]):
                        continue
                leaving = i
        if leaving is None:
            raise RuntimeError("phase-1 objective unbounded; solver invariant broken")
        pivot_row = tableau[leaving]
        pivot = pivot_row[entering]
        nonzero = [j for j, value in enumerate(pivot_row) if value]
        for i, row in enumerate(tableau):
            factor = row[entering]
            if i == leaving or not factor:
                continue
            # row <- pivot * row - factor * pivot_row, both cut by their gcd first.
            common = gcd(pivot, factor)
            keep, factor = pivot // common, factor // common
            new = [keep * value for value in row] if keep != 1 else row[:]
            for j in nonzero:
                new[j] -= factor * pivot_row[j]
            divisor = gcd(*new)
            tableau[i] = [value // divisor for value in new] if divisor > 1 else new
        basis[leaving] = entering

    if tableau[m][width] < 0:
        return None

    solution = [Fraction(0)] * n_vars
    for i in range(m):
        if basis[i] < n_vars:
            solution[basis[i]] = Fraction(tableau[i][width], tableau[i][basis[i]])
    return solution
