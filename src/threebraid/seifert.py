"""Brute-force Seifert form of a 3-braid closure.

Applying Seifert's algorithm to the closure of a 3-braid diagram gives three
disks joined by one twisted band per crossing.  A basis of the surface's
first homology is given, per generator column, by consecutive pairs of
crossings in that column; the Seifert matrix records band linking numbers.
A generator links only itself, the pairs next to it in its own column and
the (at most two) pairs of the other column whose intervals hold its
crossings, so the matrix is built sparsely in one pass over the crossings,
in O(n).

Everything is exact and in integers: one fraction-free congruence
elimination of V + V^T gives both the signature and the determinant, with no
fraction and no floating point anywhere.

This module is deliberately independent of the matrix-representation route:
it sees only the diagram.  Its outputs (determinant and signature of the
symmetrized form) cross-check the rest of the package.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .homology import InternalInconsistency
from .words import BraidWord, free_reduce


class SplitClosure(ValueError):
    """The reduced diagram does not use both generator columns, so the
    closure is a split link and the surface is disconnected."""


class DiagramTooLarge(ValueError):
    """The diagram has more than ``MAX_CROSSINGS`` crossings."""


# The matrix is built in time and memory linear in the number of crossings.
# The leading minors of its elimination grow by up to 0.6 bits per row, so
# the elimination costs about quadratic time in bit operations: at the cap,
# the slowest family measured, random alternating words, takes about 0.7 s
# on one Xeon vCPU.  Larger diagrams are refused before any letter is
# expanded.
MAX_CROSSINGS = 6000

# A sparse symmetric row: column -> (value, stamp).  The value is the entry
# of the current trailing block scaled by the leading minor of index stamp.
Row = dict[int, tuple[int, int]]


class SeifertMatrix:
    """Band linking matrix V plus bookkeeping for the homology generators.

    ``generators[i]`` is (column, first position, second position): the loop
    through the two bands of a consecutive same-column crossing pair.  V is
    stored as ``links``, its nonzero entries keyed by (row, column);
    ``SeifertMatrix(entries, generators)`` takes it densely.  ``entries``
    and ``symmetrized()`` are dense views, computed only when read.
    """

    def __init__(self, entries: Sequence[Sequence[int]],
                 generators: Sequence[tuple[int, int, int]]) -> None:
        self.generators = tuple(generators)
        self.links = {(i, j): x for i, row in enumerate(entries)
                      for j, x in enumerate(row) if x}

    @classmethod
    def from_links(cls, links: dict[tuple[int, int], int],
                   generators: Sequence[tuple[int, int, int]]) -> SeifertMatrix:
        matrix = cls((), generators)
        matrix.links = links
        return matrix

    @property
    def size(self) -> int:
        return len(self.generators)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        dense = [[0] * self.size for _ in range(self.size)]
        for (i, j), x in self.links.items():
            dense[i][j] = x
        return tuple(map(tuple, dense))

    def symmetrized(self) -> list[list[int]]:
        n = self.size
        return [[self.entries[i][j] + self.entries[j][i] for j in range(n)]
                for i in range(n)]

    def _rows(self) -> list[Row]:
        """Sparse rows of V + V^T in crossing order (generators sorted by
        their first crossing), in which the matrix is banded; every entry
        carries stamp 0."""
        order = sorted(range(self.size), key=lambda i: self.generators[i][1])
        rank = [0] * self.size
        for k, i in enumerate(order):
            rank[i] = k
        rows: list[Row] = [{} for _ in order]
        for (i, j), x in self.links.items():
            i, j = rank[i], rank[j]
            if i == j:
                x *= 2
            elif j in rows[i]:  # V holds both (i, j) and (j, i)
                x += rows[i].pop(j)[0]
                del rows[j][i]
            if x:
                rows[i][j] = rows[j][i] = (x, 0)
        return rows

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        """Integer pivots of one fraction-free congruence elimination of
        V + V^T, taken in crossing order (see ``_eliminate``)."""
        return _eliminate(self._rows())


def _eliminate(rows: list[Row]) -> tuple[int, ...]:
    """Fraction-free symmetric elimination (Bareiss, "Sylvester's identity
    and multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968) of the sparse rows, consumed in place.

    After t pivots every entry of the trailing block is the leading minor
    D_t times the rational Schur complement, hence an integer, and the next
    pivot is D_(t+1).  A step touches only the pairs of the pivot row's
    nonzeros (a few on a diagram); an entry it skips is implicitly
    multiplied by D_(t+1)/D_t, so each entry keeps the index of the minor it
    was last scaled by and is rescaled when it is next read.  Every division
    is exact, and a remainder raises ``InternalInconsistency``.

    The moves for a zero diagonal (the transposition, taking a neighbour
    with a nonzero diagonal first, and the row/column add) are unimodular
    congruences of the trailing block, so the minors stay exact.  A row that
    is zero when its turn comes records a pivot 0 and leaves the minors as
    they are.  So the relative signs of consecutive nonzero pivots give the
    signature, and the last pivot gives |det| unless a 0 was recorded.
    """
    minors = [1]  # minors[s] scales every entry stamped s
    pivots: list[int] = []

    def current(entry: tuple[int, int]) -> int:
        value, stamp = entry
        if stamp == len(minors) - 1:
            return value
        if not stamp:
            return value * minors[-1]  # minors[0] = 1
        return _exact(value * minors[-1], minors[stamp])

    def eliminate(k: int) -> None:
        row, rows[k] = rows[k], None
        pivot = current(row.pop(k))
        band = [(i, current(x)) for i, x in row.items()]
        previous, stamp = minors[-1], len(minors)
        for index, (i, x) in enumerate(band):
            target = rows[i]
            del target[k]
            for j, y in band[index:]:
                old = target.get(j)
                value = _exact(
                    (pivot * current(old) if old else 0) - x * y, previous)
                if value:
                    target[j] = rows[j][i] = (value, stamp)
                elif old:
                    del target[j]
                    rows[j].pop(i, None)
        minors.append(pivot)
        pivots.append(pivot)

    for k, row in enumerate(rows):
        if row is None:
            continue  # eliminated early, by a transposition
        if k not in row:
            if not row:
                pivots.append(0)
                continue
            swap = next((j for j in row if j in rows[j]), None)
            if swap is not None:
                # Congruence by the transposition of k and swap.  Taking
                # swap first makes the diagonal of k -a[k][swap]^2 / pivot.
                eliminate(swap)
            else:
                # Congruence by adding row/column j to k: as a[k][k] and
                # a[j][j] are zero, the diagonal becomes 2a[k][j].
                j = next(iter(row))
                stamp = len(minors) - 1
                for l, y in rows[j].items():
                    if l != k:
                        value = (current(row[l]) if l in row else 0) \
                            + current(y)
                        if value:
                            row[l] = rows[l][k] = (value, stamp)
                        else:
                            del row[l], rows[l][k]
                row[k] = (2 * current(row[j]), stamp)
        eliminate(k)
    return tuple(pivots)


def _exact(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InternalInconsistency(
            "an elimination entry is not a multiple of its leading minor")
    return quotient


def seifert_matrix(w: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the closure of the freely reduced diagram, built in
    one pass over the crossings.

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
    columns = [0 if letter.generator == "x" else 1 for letter in reduced]
    counts = (columns.count(0), columns.count(1))
    if not all(counts):
        raise SplitClosure(
            f"column {counts.index(0) + 1} unused: the closure splits")

    # Generators are numbered column by column; the one opened at the k-th
    # crossing of a column is base[column] + k.
    base = (0, counts[0] - 1)
    positions: tuple[list[int], list[int]] = ([], [])
    # The generator opened at each column's latest crossing, its sign, and
    # the y-generator that was open when the x-generator opened.
    opened: list[int | None] = [None, None]
    opening_sign = [0, 0]
    held = None
    links: dict[tuple[int, int], int] = {}
    for position, (column, letter) in enumerate(zip(columns, reduced)):
        sign = letter.sign
        closing = opened[column]
        if closing is not None:
            # Self-linking of a band pair: nonzero only for equal signs.
            if opening_sign[column] == sign:
                links[closing, closing] = -sign
            # Staggered pairs in adjacent columns link once: the y-pairs
            # whose intervals hold the first and the second crossing, if
            # they differ.
            if column == 0 and held != opened[1]:
                if held is not None:
                    links[held, closing] = 1
                if opened[1] is not None:
                    links[opened[1], closing] = -1
        positions[column].append(position)
        if len(positions[column]) == counts[column]:
            opened[column] = None
            continue
        new = base[column] + len(positions[column]) - 1
        if closing is not None:
            # Consecutive pairs sharing the middle crossing.
            if sign > 0:
                links[new, closing] = 1
            else:
                links[closing, new] = -1
        opened[column], opening_sign[column] = new, sign
        if column == 0:
            held = opened[1]

    generators = tuple((column, first, second) for column in (0, 1)
                       for first, second in zip(positions[column],
                                                positions[column][1:]))
    return SeifertMatrix.from_links(links, generators)


def sym_signature(v: SeifertMatrix) -> int:
    """Signature of V + V^T, exactly: the sign of each nonzero pivot
    relative to the one before it (the leading minor D_0 = 1 first)."""
    signs = [1] + [1 if pivot > 0 else -1 for pivot in v._pivots if pivot]
    return sum(a * b for a, b in zip(signs, signs[1:]))


def sym_determinant(v: SeifertMatrix) -> int:
    """|det(V + V^T)|: the last leading minor, or 0 past a zero row."""
    pivots = v._pivots
    if 0 in pivots:
        return 0
    return abs(pivots[-1]) if pivots else 1


def oracle_determinant(w: BraidWord) -> int:
    """|det(V + V^T)| of the closure, from the diagram alone.

    >>> from threebraid.words import parse
    >>> oracle_determinant(parse("x y x y"))
    3
    """
    return sym_determinant(seifert_matrix(w))
