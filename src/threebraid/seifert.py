"""Sparse integer Seifert form of a 3-braid closure.

Applying Seifert's algorithm to the closure of a 3-braid diagram gives three
disks joined by one twisted band per crossing.  A basis of the surface's
first homology is given, per generator column, by consecutive pairs of
crossings in that column; the Seifert matrix records band linking numbers.
A generator links only itself, the pairs next to it in its own column and
the (at most two) pairs of the other column whose intervals hold its
crossings.  So one left-to-right pass over the reduced crossings, which
carries the pair each column has open, writes the sparse rows of V + V^T in
crossing order, in O(n).

Everything is exact and in integers: one fraction-free congruence
elimination of V + V^T gives both the signature and the determinant, with no
fraction and no floating point anywhere.

This module is deliberately independent of the matrix-representation route:
it sees only the diagram.  Its outputs (determinant and signature of the
symmetrized form) cross-check the rest of the package.
"""

from __future__ import annotations

from functools import cached_property

from .homology import InternalInconsistency
from .words import BraidWord, free_reduce


class SplitClosure(ValueError):
    """The reduced diagram does not use both generator columns, so the
    closure is a split link and the surface is disconnected."""


class DiagramTooLarge(ValueError):
    """The diagram has more than ``MAX_CROSSINGS`` crossings."""


# The rows of n crossings are written in one O(n) pass.  The leading minors
# of their elimination grow by up to 0.6 bits per row, so the elimination
# costs about quadratic time in bit operations: at the cap, the slowest
# family measured, alternating words, takes about 0.5 s (under 10 ms of it
# the pass) on one Xeon vCPU under Python 3.11.  Larger diagrams are refused
# before any letter is expanded.
MAX_CROSSINGS = 6000

# A sparse symmetric row: column -> (value, stamp).  The value is the entry
# of the current trailing block scaled by the leading minor of index stamp.
Row = dict[int, tuple[int, int]]

_INEXACT = "an elimination entry is not a multiple of its leading minor"


class SeifertMatrix:
    """The symmetrized Seifert form V + V^T of a reduced diagram, as the
    sparse rows that ``seifert_matrix``'s pass writes and ``_eliminate``
    consumes.

    ``generators[i]`` is (column, first position, second position): the loop
    through the two bands of a consecutive same-column crossing pair, x-pairs
    first.  The rows are in crossing order instead, that is ``generators``
    sorted by first position, in which the form is banded; V itself is not
    kept.  ``seifert_matrix(w)`` is the one way to build it.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("a SeifertMatrix is built only by seifert_matrix(w)")

    @property
    def size(self) -> int:
        return len(self._crossing)

    @cached_property
    def generators(self) -> tuple[tuple[int, int, int], ...]:
        positions: tuple[list[int], list[int]] = ([], [])
        for p, letter in enumerate(self._letters):
            positions[letter.generator == "y"].append(p)
        return tuple((column, p, q) for column, ps in enumerate(positions)
                     for p, q in zip(ps, ps[1:]))

    def _rows(self) -> list[Row]:
        """Fresh sparse rows of V + V^T in crossing order; every entry
        carries stamp 0."""
        return list(map(dict, self._crossing))

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
    """Seifert matrix of the closure of the freely reduced diagram, written
    in one left-to-right pass over its crossings.

    A crossing of sign e closes the pair its column has open, if any, and
    opens a new one unless it is the column's last.  The closed pair's
    self-link is -2e on the diagonal of V + V^T when both its crossings
    have sign e, and the pair opened at the same crossing links it by e.
    An x-pair links the y-pairs open at its first and at its second
    crossing, if they differ, by +1 and -1.

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
    last = {}  # per generator: its last crossing, which opens no pair
    for p in range(len(letters) - 1, -1, -1):
        last.setdefault(letters[p][0], p)
        if len(last) == 2:
            break
    else:
        unused = ("column 2" if "x" in last else "column 1" if last
                  else "columns 1 and 2")
        raise SplitClosure(f"{unused} unused: the closure splits")
    last_x, last_y = last["x"], last["y"]

    rows: list[Row] = []
    # The row of the pair each column has open, the sign of its latest
    # crossing, and the y-pair open at the open x-pair's first crossing.
    x = y = held = None
    sign_x = sign_y = 0
    for p, (generator, sign) in enumerate(letters):
        is_x = generator == "x"
        closed, previous = (x, sign_x) if is_x else (y, sign_y)
        new = None if p == (last_x if is_x else last_y) else len(rows)
        if new is not None:
            rows.append({})
        if closed is not None:
            row = rows[closed]
            if previous == sign:
                row[closed] = (-2 * sign, 0)
            if new is not None:
                row[new] = rows[new][closed] = (sign, 0)
            if is_x and held != y:
                if held is not None:
                    row[held] = rows[held][closed] = (1, 0)
                if y is not None:
                    row[y] = rows[y][closed] = (-1, 0)
        if is_x:
            x, sign_x, held = new, sign, y
        else:
            y, sign_y = new, sign
    matrix = SeifertMatrix.__new__(SeifertMatrix)
    matrix._crossing, matrix._letters = rows, letters
    return matrix


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
