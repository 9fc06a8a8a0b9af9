"""Integer Goeritz form of a 3-braid closure, read by a three-term recurrence.

Colour the regions of the closed 3-braid diagram like a checkerboard and
shade the regions between the first two strands, together with the outer
region.  The x crossings cut the first kind into one region per x crossing.
Every crossing joins two shaded regions: an x crossing the regions before
and after it, a y crossing the region it lies in to the outer region.  The
Goeritz matrix G is the Laplacian of that graph, with the outer region's row
and column deleted, where an edge weighs minus its crossing's sign for an x
crossing and the sign itself for a y crossing.  So G is cyclic tridiagonal,
and one pass over the reduced diagram's letter codes records it in O(n):
the sign of each x crossing, which links the regions before and after it,
and the exponent sum of the y letters in each region.
Conjugation by the half twist Delta swaps x and y and keeps the closure, so
the column with fewer crossings plays x, and G has at most n/2 rows.
Gordon and Litherland ("On the signature of a link", Invent. Math. 47,
1978) give the closure's signature as sign(G) - mu, with the correction
term mu here the exponent sum of the y letters, and its determinant as
|det G|: the values of the symmetrized Seifert form V + V^T, of n - 2 rows.
coker G presents the first homology of the branched double cover as well,
which this module does not read.

Everything is exact, in integers and without a division: every crossing
sign is +-1, so the path minors of G follow a three-term recurrence in
them, det G is read from two of them, and Jacobi's rule on the leading
minors gives the signature (``_determinant_and_signature``).

This module is deliberately independent of the matrix-representation route:
it sees only the diagram.  Its outputs (determinant and signature of the
closure) cross-check the rest of the package.
"""

from __future__ import annotations

from itertools import compress
from operator import ne, sub

from .homology import InternalInconsistency
from .words import CODE_DIGITS, PACKED_LETTERS, BraidWord, reduced_digits


class SplitClosure(ValueError):
    """The reduced diagram does not use both generator columns, so the
    closure is a split link."""


class DiagramTooLarge(ValueError):
    """The diagram has more than ``MAX_CROSSINGS`` crossings."""


# The pass and the recurrence each take one step per crossing, but the
# minors grow by up to 1.4 bits per row, so a step multiplies a small
# integer by one of O(n) bits: at the cap, the slowest family measured,
# alternating words, takes about 2 ms from parse to the values (3.9 ms a
# whole `analyze --json --oracle` call) on a 2-vCPU host under Python
# 3.11.7, three quarters of it the recurrence.  Larger diagrams are refused
# before any letter code is built.
MAX_CROSSINGS = 6000

_NOT_UNIT = "a crossing sign of a Goeritz form is not +-1"

# Each letter code's sign, and whether it is a letter of each column, by
# its digit (words.CODE_DIGITS): lists indexed by byte, which the pass
# reads faster than dicts.  Then the digits of the x codes.
_SIGNS = [0] * 256
_IN_COLUMN = {"x": [False] * 256, "y": [False] * 256}
for _digit, (_generator, _sign) in zip(CODE_DIGITS, PACKED_LETTERS):
    _SIGNS[_digit] = _sign
    _IN_COLUMN[_generator][_digit] = True
del _digit, _generator, _sign
_X_DIGITS = bytes(compress(range(256), _IN_COLUMN["x"]))


class SeifertMatrix:
    """The Goeritz form G of a reduced diagram with its correction term mu,
    as ``seifert_matrix``'s pass records them.

    G has one row per crossing of the column that cuts the regions and is
    cyclic tridiagonal (``rows``); ``mu`` is the exponent sum of the other
    column's letters.  Its signature less mu and its |det| are those of the
    symmetrized Seifert form V + V^T, whence the name; both are read once,
    when it is built.  ``seifert_matrix(w)`` is the one way to build it.
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
        """G's rows, each as column -> nonzero entry.  Cut crossing r of
        sign e adds e to the link of regions r - 1 and r (indices mod p)
        and -e to the diagonal of each; with p = 1 it is a loop and adds
        nothing, and with p = 2 both crossings add to the same link."""
        sums = self._sums
        p = len(sums)
        entries = [{r: s} for r, s in enumerate(sums)]
        if p > 1:
            for r, sign in enumerate(self._links):
                before = (r - 1) % p
                entries[before][r] = entries[r][before] = \
                    entries[r].get(before, 0) + sign
                entries[before][before] -= sign
                entries[r][r] -= sign
        return tuple({j: x for j, x in sorted(row.items()) if x}
                     for row in entries)


def _determinant_and_signature(links: list[int],
                               sums: list[int]) -> tuple[int, int]:
    """det G and the signature of G, from the links e_r (cut crossing r
    links regions r - 1 and r) and the region sums s_r, in O(p)
    multiplications and no division.

    G's diagonal is a_r = s_r - e_r - e_(r+1 mod p), and every sign e_r
    is +-1, so the path minors D_k of rows 0 .. k - 1 follow
    D_k = a_(k-1) D_(k-1) - D_(k-2) from D_(-1) = 0 and D_0 = 1, and F_k
    of rows 1 .. k the same recurrence from F_(-2) = -1 and F_(-1) = 0.
    Expanding det G along its corner entry gives
    det G = D_p - F_(p-2) + 2 (-1)^(p+1) e_0 e_1 ... e_(p-1).  At p = 2
    that is a_0 a_1 - 2 - 2 e_0 e_1 = a_0 a_1 - (e_0 + e_1)^2, as the
    two crossings add to the one link e_0 + e_1, and at p = 1 it is
    (s_0 - 2 e_0) + 2 e_0 = s_0, as a loop adds nothing to G = (s_0).

    D_0, ..., D_(p-1) and det G are G's leading minors.  A zero path minor
    lies between two nonzero ones of opposite signs (D_(k+1) = -D_(k-1)),
    and so does a zero D_(p-1) between D_(p-2) and a nonzero det G
    (Sylvester's identity), so by Jacobi's rule, with Frobenius' rule for
    the zeros (Gantmacher, "The Theory of Matrices" I, ch. X), G has as
    many negative eigenvalues as the sequence has sign changes, zeros
    dropped.  When det G = 0, G is congruent to its leading block of order
    p - 1 plus (0) if D_(p-1) != 0, and otherwise to its leading block of
    order p - 2 plus diag(0, M / D_(p-2)), where M = a_(p-1) D_(p-2) -
    F_(p-3) is the minor on rows p - 1, 0, ..., p - 3, a path again.

    Raises ``InternalInconsistency`` if a sign is not +-1.

    The trefoil, the closure of (x y)^2, has two rows: |det G| = 3 and
    sign(G) - mu = 0 - 2.

    >>> _determinant_and_signature([1, 1], [1, 1])
    (-3, 0)
    """
    p = len(sums)
    if links.count(1) + links.count(-1) != p:
        raise InternalInconsistency(_NOT_UNIT)
    diagonal = list(map(sub, map(sub, sums, links), links[1:] + links[:1]))
    last = diagonal.pop()
    # D_k and D_(k-1), F_(k-1) and F_(k-2), stepped together from k = 0.
    d, before, f, f_before = 1, 0, 0, -1
    minors = [1]
    for a in diagonal:
        d, before = a * d - before, d
        f, f_before = a * f - f_before, f
        minors.append(d)
    corner = 2 if (p + links.count(-1)) % 2 else -2
    det = last * d - before - f + corner
    if det:
        return det, p - 2 * _sign_changes(minors + [det])
    if minors[-1]:
        return 0, p - 1 - 2 * _sign_changes(minors)
    minor = minors[-2]  # D_(p-1) = 0, so D_(p-2) != 0 and p >= 2
    m = (last * minor - f_before) * minor
    return 0, p - 2 - 2 * _sign_changes(minors[:-1]) + (m > 0) - (m < 0)


def _sign_changes(values: list[int]) -> int:
    """The sign changes along the values, zeros dropped."""
    signs = list(map((0).__lt__, filter(None, values)))
    return sum(map(ne, signs, signs[1:]))


def seifert_matrix(w: BraidWord) -> SeifertMatrix:
    """Goeritz form of the closure of the freely reduced diagram, recorded
    in one left-to-right pass over its letter codes
    (``words.reduced_digits``), ints whose meaning ``words.PACKED_LETTERS``
    gives.

    The column with fewer crossings, x on a tie, cuts the regions; call its
    letters x here and the others y.  The codes are counted by column
    first, at C speed.  Of p x crossings, crossing r (from 0) links region
    r - 1 to region r, indices mod p, and the y crossings before the first
    x crossing lie in region p - 1.  The pass records the sign of each x
    crossing and the exponent sum of the y letters before it; their
    differences are the sums of the regions, and mu, the correction term,
    is the y letters' exponent sum.  Then det G and the signature of G are
    read from them (``_determinant_and_signature``).

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
    digits = reduced_digits(w)
    y_count = len(digits.translate(None, _X_DIGITS))
    x_count = len(digits) - y_count
    if not x_count or not y_count:
        unused = ("column 2" if x_count else "column 1" if y_count
                  else "columns 1 and 2")
        raise SplitClosure(f"{unused} unused: the closure splits")

    cuts = _IN_COLUMN["x" if x_count <= y_count else "y"]
    links, marks = [], []
    mu = 0
    for code in digits:
        if cuts[code]:
            links.append(_SIGNS[code])
            marks.append(mu)
        else:
            mu += _SIGNS[code]
    marks.append(mu + marks[0])  # region p - 1 wraps round to the start
    matrix = SeifertMatrix.__new__(SeifertMatrix)
    matrix._links, matrix._sums = links, list(map(sub, marks[1:], marks))
    matrix.mu, matrix._crossings = mu, len(digits)
    matrix._values = _determinant_and_signature(links, matrix._sums)
    return matrix


def sym_signature(v: SeifertMatrix) -> int:
    """Signature of the closure, exactly: that of G less mu
    (Gordon-Litherland).  It equals the signature of V + V^T."""
    return v._values[1] - v.mu


def sym_determinant(v: SeifertMatrix) -> int:
    """|det G| = |det(V + V^T)|, the closure's determinant."""
    return abs(v._values[0])
