"""Brute-force Seifert form of a 3-braid closure.

Applying Seifert's algorithm to the closure of a 3-braid diagram gives three
disks joined by one twisted band per crossing.  A basis of the surface's
first homology is given, per generator column, by consecutive pairs of
crossings in that column; the Seifert matrix records band linking numbers.
Everything is exact: one congruence diagonalization of V + V^T over the
rationals gives both the signature and the determinant, with no floating
point anywhere.

This module is deliberately independent of the matrix-representation route:
it sees only the diagram.  Its outputs (determinant and signature of the
symmetrized form) cross-check the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

from .words import BraidWord, free_reduce


class SplitClosure(ValueError):
    """The reduced diagram does not use both generator columns, so the
    closure is a split link and the surface is disconnected."""


class DiagramTooLarge(ValueError):
    """The diagram has more than ``MAX_CROSSINGS`` crossings."""


# The matrix is built densely, in time and memory quadratic in the number of
# crossings, so larger diagrams are refused before any letter is expanded.
MAX_CROSSINGS = 3000


@dataclass(frozen=True)
class SeifertMatrix:
    """Band linking matrix plus bookkeeping for the homology generators.

    ``generators[i]`` is (column, first position, second position): the loop
    through the two bands of a consecutive same-column crossing pair.
    """

    entries: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, int, int], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def symmetrized(self) -> list[list[int]]:
        n = self.size
        return [[self.entries[i][j] + self.entries[j][i] for j in range(n)]
                for i in range(n)]

    @cached_property
    def _pivots(self) -> tuple[int | Fraction, ...]:
        """Diagonal of an exact congruence diagonalization of V + V^T.

        Rows are sparse and taken in crossing order (generators sorted by
        their first crossing), in which the matrix is banded.  Every move has
        determinant +-1, and a row that is zero when its turn comes records
        a 0, so the pivots give both the signature and |det|.
        """
        a = self.symmetrized()
        order = sorted(range(self.size), key=lambda i: self.generators[i][1])
        rows = [{new: a[i][j] for new, j in enumerate(order) if a[i][j]}
                for i in order]
        pivots = []

        def eliminate(k: int) -> None:
            row, rows[k] = rows[k], None
            pivot = row.pop(k)
            pivots.append(pivot)
            band = [(i, x) for i, x in row.items() if x]
            for index, (i, x) in enumerate(band):
                del rows[i][k]
                for j, y in band[index:]:
                    rows[i][j] = rows[j][i] = \
                        rows[i].get(j, 0) - Fraction(x * y, pivot)

        for k, row in enumerate(rows):
            if row is None:
                continue  # eliminated early, by a transposition
            if not row.get(k):
                band = [j for j, x in row.items() if x and j != k]
                if not band:
                    pivots.append(0)
                    continue
                swap = next((j for j in band if rows[j].get(j)), None)
                if swap is not None:
                    # Congruence by the transposition of k and swap. Taking
                    # swap first makes a[k][k] = -a[k][swap]^2 / pivot != 0.
                    eliminate(swap)
                else:
                    # Congruence by adding row/column j to k: as a[k][k] and
                    # a[j][j] are zero, the diagonal becomes 2a[k][j].
                    j = band[0]
                    for l, x in rows[j].items():
                        if x and l != k:
                            row[l] = rows[l][k] = row.get(l, 0) + x
                    row[k] = 2 * row[j]
            eliminate(k)
        return tuple(pivots)


def seifert_matrix(w: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the closure of the freely reduced diagram.

    The sign rules are pinned by two calibration fixtures in the test suite:
    the closure of (x y)^2 must have signature -2 and determinant 3, the
    closure of (x y^-1)^2 signature 0 and determinant 5.

    Raises ``DiagramTooLarge`` past ``MAX_CROSSINGS`` letters, counted
    before free reduction and from the runs, with h^d as 6|d|.
    """
    if len(w) > MAX_CROSSINGS:
        raise DiagramTooLarge(
            f"{len(w)} crossings, more than the oracle's cap of {MAX_CROSSINGS}")
    reduced = free_reduce(w)
    crossings = [(0 if letter.generator == "x" else 1, letter.sign)
                 for letter in reduced]
    for column in (0, 1):
        if all(col != column for col, _ in crossings):
            raise SplitClosure(
                f"column {column + 1} unused: the closure splits")

    positions = {0: [], 1: []}
    for position, (column, _) in enumerate(crossings):
        positions[column].append(position)

    generators: list[tuple[int, int, int]] = []
    for column in (0, 1):
        column_positions = positions[column]
        for first, second in zip(column_positions, column_positions[1:]):
            generators.append((column, first, second))

    sign_at = {pos: sign for pos, (_, sign) in enumerate(crossings)}
    n = len(generators)
    v = [[0] * n for _ in range(n)]

    for i, (column, p1, p2) in enumerate(generators):
        # Self-linking of a band pair: nonzero only for equal crossing signs.
        if sign_at[p1] == sign_at[p2]:
            v[i][i] = -1 if sign_at[p1] > 0 else 1

    for i, (column, p1, p2) in enumerate(generators):
        for j, (column2, q1, q2) in enumerate(generators):
            if j <= i:
                continue
            if column2 == column and q1 == p2:
                # Consecutive pairs sharing the middle crossing.
                if sign_at[p2] > 0:
                    v[j][i] = 1
                else:
                    v[i][j] = -1
            elif column2 == column + 1:
                # Staggered pairs in adjacent columns link once.
                if q1 < p1 < q2 < p2:
                    v[j][i] = 1
                elif p1 < q1 < p2 < q2:
                    v[j][i] = -1

    return SeifertMatrix(tuple(tuple(row) for row in v), tuple(generators))


def sym_signature(v: SeifertMatrix) -> int:
    """Signature of V + V^T, exactly."""
    return sum(1 if pivot > 0 else -1 for pivot in v._pivots if pivot)


def sym_determinant(v: SeifertMatrix) -> int:
    """|det(V + V^T)|."""
    return int(abs(prod(v._pivots)))


def oracle_determinant(w: BraidWord) -> int:
    """|det(V + V^T)| of the closure, from the diagram alone."""
    return sym_determinant(seifert_matrix(w))
