"""Sparse integer Seifert form of a 3-braid closure.

Applying Seifert's algorithm to the closure of a 3-braid diagram gives three
disks joined by one twisted band per crossing.  A basis of the surface's
first homology is given, per generator column, by consecutive pairs of
crossings in that column; the Seifert matrix records band linking numbers.
A generator links only itself, the pairs next to it in its own column and
the (at most two) pairs of the other column whose intervals hold its
crossings, so the matrix is built sparsely in one pass over the generators,
in O(n log n).

Everything is exact and in integers: one fraction-free congruence
elimination of V + V^T gives both the signature and the determinant, with no
fraction and no floating point anywhere.

This module is deliberately independent of the matrix-representation route:
it sees only the diagram.  Its outputs (determinant and signature of the
symmetrized form) cross-check the rest of the package.
"""

from __future__ import annotations

from bisect import bisect
from functools import cached_property
from typing import Sequence

from .homology import InternalInconsistency
from .words import BraidWord, free_reduce


class SplitClosure(ValueError):
    """The reduced diagram does not use both generator columns, so the
    closure is a split link and the surface is disconnected."""


class DiagramTooLarge(ValueError):
    """The diagram has more than ``MAX_CROSSINGS`` crossings."""


# The matrix of n crossings is built in O(n log n) time and O(n) memory.
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
    1968) of the sparse rows, consumed in place and strictly in order.

    After t pivots every entry of the trailing block is the leading minor
    D_t times the rational Schur complement, hence an integer, and the next
    pivot is D_(t+1).  A step touches only the pairs of the pivot row's
    nonzeros (a few on a diagram); an entry it skips is implicitly
    multiplied by D_(t+1)/D_t, so each entry keeps the index of the minor it
    was last scaled by and is rescaled when it is next read.  Every division
    is exact, and a remainder raises ``InternalInconsistency``.

    A row that is zero when its turn comes records a pivot 0 and leaves the
    minors as they are.  A nonzero row with a zero diagonal first gets t
    times a neighbour's row and column added, with t = 1 or -1 chosen to
    make the diagonal nonzero: a unimodular congruence of the trailing
    block, so the minors stay exact.  So the relative signs of consecutive
    nonzero pivots give the signature, and the last pivot gives |det|
    unless a 0 was recorded.
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

    for k, row in enumerate(rows):
        if k not in row:
            if not row:
                pivots.append(0)
                continue
            # Congruence by adding t times row/column j to k: the diagonal
            # becomes 2t a[k][j] + a[j][j], and as a[k][j] is nonzero, one
            # of t = 1, -1 makes it nonzero.
            j = next(iter(row))
            link, own = current(row[j]), current(rows[j].get(j, (0, 0)))
            t = 1 if 2 * link + own else -1
            stamp = len(minors) - 1
            for l, y in list(rows[j].items()):  # rows[j][k] may go
                if l != k:
                    value = (current(row[l]) if l in row else 0) \
                        + t * current(y)
                    if value:
                        row[l] = rows[l][k] = (value, stamp)
                    else:
                        del row[l], rows[l][k]
            row[k] = (2 * t * link + own, stamp)
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
    return tuple(pivots)


def _exact(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InternalInconsistency(
            "an elimination entry is not a multiple of its leading minor")
    return quotient


def seifert_matrix(w: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the closure of the freely reduced diagram, built in
    one pass over the generators.

    The sign rules are pinned by two calibration fixtures in the test suite:
    the closure of (x y)^2 must have signature -2 and determinant 3, the
    closure of (x y^-1)^2 signature 0 and determinant 5.

    Raises ``DiagramTooLarge`` past ``MAX_CROSSINGS`` letters, counted
    before free reduction and from the runs, with h^d as 6|d|.
    """
    crossings = w._length  # not len(w), which overflows past sys.maxsize
    if crossings > MAX_CROSSINGS:
        raise DiagramTooLarge(
            f"{crossings} crossings, more than the oracle's cap of {MAX_CROSSINGS}")
    reduced = free_reduce(w)
    signs = [letter.sign for letter in reduced]
    xs = [p for p, letter in enumerate(reduced) if letter.generator == "x"]
    ys = [p for p, letter in enumerate(reduced) if letter.generator == "y"]
    for column, positions in enumerate((xs, ys)):
        if not positions:
            raise SplitClosure(f"column {column + 1} unused: the closure splits")

    # Generators are numbered column by column; y-pair i is first_y + i.
    generators = tuple((column, p, q)
                       for column, positions in enumerate((xs, ys))
                       for p, q in zip(positions, positions[1:]))
    first_y = len(xs) - 1
    links: dict[tuple[int, int], int] = {}
    for g, (column, p, q) in enumerate(generators):
        # Self-linking of a band pair: nonzero only for equal signs.
        if signs[p] == signs[q]:
            links[g, g] = -signs[q]
        # The next pair of the same column shares the crossing q.
        if g + 1 < len(generators) and generators[g + 1][0] == column:
            if signs[q] > 0:
                links[g + 1, g] = 1
            else:
                links[g, g + 1] = -1
        # An x-pair links the y-pairs whose intervals hold its first and
        # its second crossing, if they differ.
        if column == 0:
            held = bisect(ys, p) - 1, bisect(ys, q) - 1
            if held[0] != held[1]:
                for i, link in zip(held, (1, -1)):
                    if 0 <= i < len(ys) - 1:
                        links[first_y + i, g] = link
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
