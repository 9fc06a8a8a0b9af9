"""Sparse integer Goeritz form of a 3-braid closure.

Colour the regions of the closed 3-braid diagram like a checkerboard and
shade the regions between the first two strands, together with the outer
region.  The x crossings cut the first kind into one region per x crossing.
Every crossing joins two shaded regions: an x crossing the regions before
and after it, a y crossing the region it lies in to the outer region.  The
Goeritz matrix G is the Laplacian of that graph, with the outer region's row
and column deleted, where an edge weighs minus its crossing's sign for an x
crossing and the sign itself for a y crossing.  So G is cyclic tridiagonal,
and one pass over the reduced crossings writes its sparse rows in O(n).
Conjugation by the half twist Delta swaps x and y and keeps the closure, so
the column with fewer crossings plays x, and G has at most n/2 rows.
Gordon and Litherland ("On the signature of a link", Invent. Math. 47,
1978) give the closure's signature as sign(G) - mu, with the correction
term mu here the exponent sum of the y letters, and its determinant as
|det G|: the values of the symmetrized Seifert form V + V^T, of n - 2 rows.
coker G presents the first homology of the branched double cover as well,
which this module does not read.

Everything is exact and in integers: one fraction-free congruence
elimination of G gives both the signature and the determinant, with no
fraction and no floating point anywhere.

This module is deliberately independent of the matrix-representation route:
it sees only the diagram.  Its outputs (determinant and signature of the
closure) cross-check the rest of the package.
"""

from __future__ import annotations

from functools import cached_property

from .homology import InternalInconsistency
from .words import X, X_INV, BraidWord, free_reduce


class SplitClosure(ValueError):
    """The reduced diagram does not use both generator columns, so the
    closure is a split link."""


class DiagramTooLarge(ValueError):
    """The diagram has more than ``MAX_CROSSINGS`` crossings."""


# The rows, at most one per two crossings, are written in one O(n) pass.
# The leading minors of their elimination grow by up to 1.4 bits per row,
# so the elimination costs about quadratic time in bit operations: at the
# cap, the slowest family measured, alternating words, takes 0.12-0.18 s
# (5-9 ms of it the pass) on one Xeon vCPU under Python 3.11.  Larger
# diagrams are refused before any letter is expanded.
MAX_CROSSINGS = 6000

# A sparse symmetric row: column -> (value, stamp).  The value is the entry
# of the current trailing block scaled by the leading minor of index stamp.
Row = dict[int, tuple[int, int]]

_INEXACT = "an elimination entry is not a multiple of its leading minor"


class SeifertMatrix:
    """The Goeritz form G of a reduced diagram with its correction term mu,
    as ``seifert_matrix``'s pass writes them.

    ``rows[r]`` maps each column to the nonzero entry of G in row r, one row
    per crossing of the column that cuts the regions, and is cyclic
    tridiagonal; ``mu`` is the exponent sum of the other column's letters.
    Its signature less mu and its |det| are those of the symmetrized Seifert
    form V + V^T, whence the name.  ``seifert_matrix(w)`` is the one way to
    build it.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("a SeifertMatrix is built only by seifert_matrix(w)")

    @property
    def size(self) -> int:
        """The order of the diagram's Seifert matrix V: the reduced crossings
        less 2, as Seifert's algorithm gives the diagram three circles.  G
        has ``len(rows)`` rows, at most half the reduced crossings."""
        return self._crossings - 2

    @property
    def rows(self) -> tuple[dict[int, int], ...]:
        """G's rows, each as column -> nonzero entry."""
        return tuple({j: x for j, (x, _) in sorted(row.items())}
                     for row in self._goeritz)

    def _rows(self) -> list[Row]:
        """Fresh sparse rows of G; every entry carries stamp 0."""
        return list(map(dict, self._goeritz))

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        """Integer pivots of one fraction-free congruence elimination of G,
        taken in row order (see ``_eliminate``)."""
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
    times its nearest neighbour's row and column added, with t = 1 or -1
    chosen to make the diagonal nonzero: a unimodular congruence of the
    trailing block, so the minors stay exact.  So the relative signs of
    consecutive nonzero pivots give the signature, and the last pivot gives
    |det| unless a 0 was recorded.  The pivots depend on the matrix alone,
    not on the order in which a row's entries were inserted.
    """
    minors = [1]  # minors[s] scales every entry stamped s
    pivots: list[int] = []
    for k, row in enumerate(rows):
        if k not in row:
            if not row:
                pivots.append(0)
                continue
            # Congruence by adding t times row/column j to k, j the nearest
            # neighbour: the diagonal becomes 2t a[k][j] + a[j][j], and as
            # a[k][j] is nonzero, one of t = 1, -1 makes it nonzero.
            j = min(row)
            current = _current(row, minors)
            neighbour = _current(rows[j], minors)
            link, own = current[j], neighbour.get(j, 0)
            t = 1 if 2 * link + own else -1
            stamp = len(minors) - 1
            for l, y in neighbour.items():
                if l != k:
                    value = current.get(l, 0) + t * y
                    if value:
                        row[l] = rows[l][k] = (value, stamp)
                    else:
                        del row[l], rows[l][k]
            row[k] = (2 * t * link + own, stamp)
        # Each entry read is rescaled inline, as in _current.
        last, top = minors[-1], len(minors) - 1
        band = []
        for i, (x, s) in row.items():
            if s != top:
                x *= last
                if s:
                    x, remainder = divmod(x, minors[s])
                    if remainder:
                        raise InternalInconsistency(_INEXACT)
            if i == k:
                pivot = x
            else:
                band.append((i, x))
        for index, (i, x) in enumerate(band):
            target = rows[i]
            del target[k]
            for j, y in band[index:]:
                old = target.get(j)
                if old:
                    value, s = old
                    if s != top:
                        value *= last
                        if s:
                            value, remainder = divmod(value, minors[s])
                            if remainder:
                                raise InternalInconsistency(_INEXACT)
                    value = pivot * value - x * y
                else:
                    value = -x * y
                value, remainder = divmod(value, last)
                if remainder:
                    raise InternalInconsistency(_INEXACT)
                if value:
                    target[j] = rows[j][i] = (value, top + 1)
                elif old:
                    del target[j]
                    rows[j].pop(i, None)
        minors.append(pivot)
        pivots.append(pivot)
    return tuple(pivots)


def _current(row: Row, minors: list[int]) -> dict[int, int]:
    """The row's entries in the current trailing block: an entry stamped s
    is its value times the last minor over minors[s]."""
    last, top = minors[-1], len(minors) - 1
    values = {}
    for i, (x, s) in row.items():
        if s != top:
            x *= last
            if s:
                x, remainder = divmod(x, minors[s])
                if remainder:
                    raise InternalInconsistency(_INEXACT)
        values[i] = x
    return values


def seifert_matrix(w: BraidWord) -> SeifertMatrix:
    """Goeritz form of the closure of the freely reduced diagram, written in
    one left-to-right pass over its crossings.

    The column with fewer crossings, x on a tie, cuts the regions; call its
    letters x here and the others y.  Of p x crossings, crossing r (from 0)
    links region r - 1 to region r, indices mod p, and the y crossings
    before the first x crossing lie in region p - 1.  An x crossing of sign
    e adds e to the link of its two regions and -e to the diagonal of each;
    with p = 1 it is a loop and adds nothing, and with p = 2 both crossings
    add to the same link.  A y crossing of sign e adds e to the diagonal of
    its region and to the correction term mu, so mu is the y letters'
    exponent sum.  Entries that cancel to zero are not kept.

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
    letters = free_reduce(w).letters
    p = letters.count(X) + letters.count(X_INV)
    if not p or p == len(letters):
        unused = ("column 2" if p else "column 1" if letters
                  else "columns 1 and 2")
        raise SplitClosure(f"{unused} unused: the closure splits")

    cut = "x" if 2 * p <= len(letters) else "y"
    p = min(p, len(letters) - p)
    entries: list[dict[int, int]] = [{} for _ in range(p)]
    region, mu = p - 1, 0
    for generator, sign in letters:
        row = entries[region]
        if generator != cut:
            row[region] = row.get(region, 0) + sign
            mu += sign
            continue
        before, region = region, region + 1 if region + 1 < p else 0
        if before != region:  # with p = 1 the crossing is a loop
            after = entries[region]
            row[region] = after[before] = row.get(region, 0) + sign
            row[before] = row.get(before, 0) - sign
            after[region] = after.get(region, 0) - sign
    matrix = SeifertMatrix.__new__(SeifertMatrix)
    matrix._goeritz = [{j: (x, 0) for j, x in row.items() if x}
                       for row in entries]
    matrix.mu, matrix._crossings = mu, len(letters)
    return matrix


def sym_signature(v: SeifertMatrix) -> int:
    """Signature of the closure, exactly: that of G, the sign of each
    nonzero pivot relative to the one before it (the leading minor D_0 = 1
    first), less mu (Gordon-Litherland).  It equals the signature of
    V + V^T."""
    signs = [1] + [1 if pivot > 0 else -1 for pivot in v._pivots if pivot]
    return sum(a * b for a, b in zip(signs, signs[1:])) - v.mu


def sym_determinant(v: SeifertMatrix) -> int:
    """|det G| = |det(V + V^T)|, the closure's determinant: the last leading
    minor, or 0 past a zero row."""
    pivots = v._pivots
    if 0 in pivots:
        return 0
    return abs(pivots[-1]) if pivots else 1
