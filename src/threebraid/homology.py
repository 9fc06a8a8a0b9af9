"""The homological representation of the 3-braid group into SL(2,Z).

The two generators act on the first homology of the once-punctured torus by

    x  ->  [[1, 1], [0, 1]]          y  ->  [[1, 0], [-1, 1]]

and everything downstream (first homology of the branched double cover,
determinant of the closure, conjugacy-type analysis) is exact integer
arithmetic on 2x2 matrices.  Entries grow exponentially in the word length,
so all arithmetic uses Python's unbounded integers.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, prod

from .words import (BraidWord, _Value, fold_factors, positive_table,
                    window_table)


class NotParabolic(ValueError):
    pass


class InternalInconsistency(RuntimeError):
    """A check that holds by construction failed: the recovered parameters
    contradict the matrix image.  This indicates a bug in the code or in its
    calibration, never bad input."""


class SL2Matrix(_Value, namedtuple("SL2Matrix", "a b c d")):
    """An integer matrix [[a, b], [c, d]] of determinant one.  ``*`` is the
    matrix product, and only between two matrices."""

    __slots__ = ()
    a: int
    b: int
    c: int
    d: int

    def __new__(cls, a: int, b: int, c: int, d: int) -> SL2Matrix:
        matrix = cls._normal((a, b, c, d))
        matrix._check()
        return matrix

    def _check(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            # No entry is printed: it may pass the int-to-str digit limit.
            raise ValueError("the matrix's determinant is not 1")

    def __mul__(self, other: SL2Matrix) -> SL2Matrix:
        if not isinstance(other, SL2Matrix):
            return NotImplemented
        return SL2Matrix(*_product(self, other))

    def __neg__(self) -> "SL2Matrix":
        return SL2Matrix(-self.a, -self.b, -self.c, -self.d)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def minus_identity(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The (in general singular) integer matrix M - I."""
        return ((self.a - 1, self.b), (self.c, self.d - 1))


IDENTITY = SL2Matrix(1, 0, 0, 1)

def _run_entries(generator: str, exponent: int):
    """The image of the run generator^exponent in closed form: h^e is
    (-1)^e I, x^n is [[1, n], [0, 1]] and y^n is [[1, 0], [-n, 1]]."""
    if generator == "h":
        sign = -1 if exponent % 2 else 1
        return sign, 0, 0, sign
    if generator == "x":
        return 1, exponent, 0, 1
    if generator == "y":
        return 1, 0, -exponent, 1
    raise ValueError(f"malformed run {(generator, exponent)!r}")


def _product(m, n):
    """The product of two matrices given as entries (a, b, c, d)."""
    p, q, r, s = m
    a, b, c, d = n
    return p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d


# The image of every window of CHUNK letters at its packed byte, and of
# every window of POSITIVE_CHUNK positive letters at its byte, the product
# of its two halves' images.
_CHUNK_ENTRIES = window_table(_run_entries, _product, (1, 0, 0, 1))
_POSITIVE_ENTRIES = positive_table(_CHUNK_ENTRIES, _product)


def _balanced_product(factors):
    """The product of (a, b, c, d) factors in order: ``_product`` of
    adjacent pairs, level by level, an odd last factor carried up, so that
    big factors meet big factors; (1, 0, 0, 1) for no factors."""
    level = list(factors)
    while len(level) > 1:
        carried = level[-1:] if len(level) % 2 else []
        level = [*map(_product, level[::2], level[1::2]), *carried]
    return level[0] if level else (1, 0, 0, 1)


def image(w: BraidWord) -> SL2Matrix:
    """Product of the per-run matrices, multiplicative over concatenation.

    The factors are ``words.fold_factors`` of ``_CHUNK_ENTRIES``, built
    from ``_run_entries`` by ``words.window_table``, of
    ``_POSITIVE_ENTRIES``, built from it by ``words.positive_table``, and
    of ``_run_entries`` itself.  They are multiplied by
    ``_balanced_product``, and the determinant is checked once, on the
    result: a product of determinant
    other than 1 is a fault of the factors, so it raises
    ``InternalInconsistency``, whose message does not print the entries.

    >>> from threebraid.words import parse
    >>> image(parse("x y x y x y")) == -IDENTITY
    True
    """
    a, b, c, d = _balanced_product(
        fold_factors(w, _CHUNK_ENTRIES, _POSITIVE_ENTRIES, _run_entries))
    if a * d - b * c != 1:
        raise InternalInconsistency("the image's determinant is not 1")
    return SL2Matrix._normal((a, b, c, d))


# Integers of more bits than this (about 4,900 digits) are printed by
# divide and conquer, whose leaves have at most _LEAF_BITS bits.
_SPLIT_BITS = 1 << 14
_LEAF_BITS = 1 << 11


def _int_text(n: int) -> str:
    """``str(n)``, in subquadratic time for huge n, whatever the
    interpreter's int-to-str digit limit.

    Up to ``_SPLIT_BITS`` bits this is ``str``: the cut reads n's bit
    length, so no integer of that size is built to compare n with.  Above,
    or over the digit limit, n is converted to a ``decimal.Decimal`` by
    divide and conquer, the algorithm of ``int_to_decimal_string`` in
    CPython 3.12's ``Lib/_pylong.py``: n = hi * 2**w + lo, both halves
    converted the same way and joined by libmpdec's exact multiplication,
    whose transform method makes the whole O(M(n) log n).  Here w is the
    largest power of two below n's bit length, so the powers 2**w are few
    and each is computed once, by squaring the one before.
    ``Decimal(int)`` and ``str(Decimal)`` never read the digit limit.

    >>> _int_text(-(10**20000 + 1)) == "-1" + "0" * 19999 + "1"
    True
    """
    if n.bit_length() <= _SPLIT_BITS:
        try:
            return str(n)
        except ValueError:  # over the int-to-str digit limit
            pass
    import decimal

    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              traps=[decimal.Inexact])
    powers = {0: decimal.Decimal(2)}  # 2 ** 2 ** j by j

    def power(j: int) -> decimal.Decimal:
        if j not in powers:
            half = power(j - 1)
            powers[j] = context.multiply(half, half)
        return powers[j]

    def convert(m: int, bits: int) -> decimal.Decimal:
        if bits <= _LEAF_BITS:
            return decimal.Decimal(m)
        j = (bits - 1).bit_length() - 1
        hi = m >> (1 << j)
        lo = m - (hi << (1 << j))
        return context.fma(convert(hi, bits - (1 << j)), power(j),
                           convert(lo, 1 << j))

    text = str(convert(abs(n), n.bit_length()))
    return text if n >= 0 else "-" + text


class AbelianGroup(_Value, namedtuple("AbelianGroup", "free_rank torsion",
                                      defaults=((),))):
    """A finitely generated abelian group Z^free_rank + Z/d1 + Z/d2 + ...

    The free rank is not negative.  Torsion coefficients satisfy the
    divisibility chain d1 | d2 | ... and every di is at least 2.  One loop
    checks both, each coefficient's size first, so a zero is refused as too
    small and never divided by.
    """

    __slots__ = ()
    free_rank: int
    torsion: tuple[int, ...]

    def __new__(cls, free_rank: int,
                torsion: tuple[int, ...] = ()) -> AbelianGroup:
        if free_rank < 0:
            raise ValueError(f"negative free rank {free_rank}")
        earlier = 1
        for d in torsion:
            if d < 2:
                raise ValueError(
                    f"torsion coefficients must be >= 2: {torsion}")
            if d % earlier:
                raise ValueError(f"torsion {torsion} violates divisibility")
            earlier = d
        return cls._normal((free_rank, torsion))

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        return None if self.free_rank else prod(self.torsion)

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank
        parts += map("Z/".__add__, map(_int_text, self.torsion))
        return " + ".join(parts) if parts else "0"


def h1_from_image(m: SL2Matrix) -> AbelianGroup:
    """First homology of the branched double cover of the closure of a braid
    with image m: the cokernel of m - I on the homology of the fiber torus,
    Z/g + Z/(D / g) for g = gcd(a - 1, b, c, d - 1) and D = |2 - tr m| from
    ``determinant_from_image``, a zero factor being Z.  At m = I both are 0
    (Z + Z).  The gcd is one call over the four entries of m - I, so only
    its first step can be between two huge entries, and no two entries are
    multiplied.  g^2 divides D, so for g >= 2 both factors are torsion;
    for g = 1 only D can be, and g = 0 only at m = I."""
    g = gcd(m.a - 1, m.b, m.c, m.d - 1)
    det = determinant_from_image(m)
    if det:
        return AbelianGroup(0, (g, det // g) if g > 1 else
                            (det,) if det > 1 else ())
    if g:
        return AbelianGroup(1, (g,) if g > 1 else ())
    return AbelianGroup(2)


def determinant_from_image(m: SL2Matrix) -> int:
    """|det(m - I)|, which is |2 - tr m| because det m = 1."""
    return abs(2 - m.trace)


def components_from_image(m: SL2Matrix) -> int:
    """Components of the closure of a braid with image m, read from m mod 2.

    Reduction mod 2 maps the braid group onto SL(2, F_2), which is the
    symmetric group on the three strands: the identity has three cycles, the
    three transpositions have even trace and the two 3-cycles odd trace.
    """
    if m.b % 2 == 0 and m.c % 2 == 0:
        return 3
    return 2 if m.trace % 2 == 0 else 1


def h1_branched_cover(w: BraidWord) -> AbelianGroup:
    """First homology of the double cover of S^3 branched over the closure."""
    return h1_from_image(image(w))


def determinant(w: BraidWord) -> int:
    """|det(image(w) - I)| = order of H1 of the branched double cover.

    Zero signals positive first Betti number (infinite homology).
    """
    return determinant_from_image(image(w))


CENTRAL = "Central"
ELLIPTIC = "Elliptic"
PARABOLIC = "Parabolic"
HYPERBOLIC = "Hyperbolic"


class TraceClass(_Value, namedtuple("TraceClass", "kind epsilon")):
    """Conjugacy type in PSL(2,Z) together with the trace-normalizing sign.

    epsilon * M has nonnegative trace (and equals +I for central matrices).
    """

    __slots__ = ()
    kind: str
    epsilon: int


def trace_class(m: SL2Matrix) -> TraceClass:
    """The conjugacy type of m, read from its entries: m is central when
    b = c = 0, and then ad = 1 forces a = d = epsilon."""
    if m.b == m.c == 0:
        return TraceClass._normal((CENTRAL, m.a))
    t = m.trace
    kind = (ELLIPTIC if abs(t) <= 1 else
            PARABOLIC if abs(t) == 2 else HYPERBOLIC)
    return TraceClass._normal((kind, -1 if t < 0 else 1))


def _nilpotent_power(b: int, c: int) -> int:
    """The k of a nilpotent k * [[-q s, q^2], [-s^2, q s]], (q, s) primitive,
    read from its off-diagonal entries b and c: |k| = gcd(b, c), and k > 0
    exactly when b > 0 or c < 0, so the zero matrix gives k = 0."""
    k = gcd(b, c)
    return k if b > 0 or c < 0 else -k


def parabolic_invariant(m: SL2Matrix) -> tuple[int, int]:
    """Complete SL(2,Z)-conjugacy invariant (epsilon, k) of a parabolic matrix:
    epsilon * m is conjugate to [[1, 0], [-k, 1]] and k is unique.

    Read in closed form.  epsilon is the sign of the trace, and k is the
    ``_nilpotent_power`` of epsilon * m - I, which is nilpotent of rank one.

    >>> from threebraid.words import parse
    >>> parabolic_invariant(image(parse("h y^-1")))
    (-1, -1)
    """
    tc = trace_class(m)
    if tc.kind != PARABOLIC:
        # Not the entries: they may pass the int-to-str digit limit.
        raise NotParabolic(f"{tc.kind} matrix is not parabolic")
    return tc.epsilon, _nilpotent_power(tc.epsilon * m.b, tc.epsilon * m.c)
