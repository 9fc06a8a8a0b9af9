"""Murasugi conjugacy normal form for 3-braid words.

Every 3-braid is conjugate to exactly one of three model families, with
``h = (xy)^3`` the full twist:

    family 1:  h^d x y^-a1 ... x y^-an   (ai >= 0, some aj >= 1)
    family 2:  h^d y^m                   (m any integer)
    family 3:  h^d x^m y^-1              (m in {-1, -2, -3})

The family is decided through the image in PSL(2,Z), which is the free
product Z/2 * Z/3 on the order-2 element S = [[0,-1],[1,0]] and the order-3
element U = S*[[1,1],[0,1]].  Since the kernel of the map from the braid
group to PSL(2,Z) is generated by the central full twist, the cyclically
reduced free-product word together with the exponent sum is a complete
conjugacy invariant; the power d of the full twist is recovered from the
exponent sum.

Dictionary (fixed once, validated by tests): in PSL(2,Z)

    x = S U        x^-1 = U^2 S        y = U S        y^-1 = S U^2

so a hyperbolic word becomes a cyclic word in R = SU (the image of x) and
L = SU^2 (the image of y^-1), from which the family-1 block tuple is read.

Syllables are the bytes S = 0, U = 1, U^2 = 2 from the letter table to the
block tuple: the U-powers of a reduced word, at whichever parity holds them,
are its R/L word (1 for R, 2 for L), and a power run costs O(n) memcpy work
at 2 bytes per letter.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from . import homology
from . import words as w_
from .homology import InternalInconsistency, SL2Matrix
from .words import BraidWord, _Value, window_table


class InvalidForm(ValueError):
    pass


def least_rotation(seq: Sequence) -> tuple:
    """The lexicographically least cyclic rotation of seq, in linear time.

    Two candidate starts i != j are compared over the doubled sequence, k
    entries agreeing so far.  At the first mismatch the start with the
    larger entry jumps k + 1 places: if that is i, each skipped start i + p
    (p <= k) agrees with j + p for k - p entries and is then larger, so it
    is not least.  A least start is never skipped, so i, which moves only
    by jumps, never passes the first one, and j passes it only by stepping
    off i.  The scan ends with i on it: when j passes n, every other start
    has been skipped, and when k reaches n, the rotations at i and j are
    equal, so every start repeats one below j.  i + j + k grows at every
    step, so the scan is O(n) and keeps no failure array.

    >>> least_rotation((3, 0, 1))
    (0, 1, 3)
    """
    n = len(seq)
    doubled = tuple(seq) * 2
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return doubled[i:i + n]


# --- the free product Z/2 * Z/3 -------------------------------------------

# Syllables: S = 0 for the involution, U = 1 and UU = 2 for the two
# nontrivial powers of the order-3 element; a word is the bytes of them.
S, U, UU = 0, 1, 2

# The syllables of each letter, keyed by plain (generator, sign) pairs, so
# that a lookup compares two plain tuples: a Letter compares through the
# Python-level slot that its refused orderings give it.
_LETTER_SYLLABLES = {
    ("x", 1): bytes((S, U)),
    ("x", -1): bytes((UU, S)),
    ("y", 1): bytes((U, S)),
    ("y", -1): bytes((S, UU)),
}


def _run_syllables(generator: str, exponent: int) -> tuple[bytes, int]:
    """The syllables and the exponent sum of a run.  h is central and
    trivial in PSL(2,Z); a generator power repeats the letter's syllables,
    which leaves them reduced."""
    if generator == "h":
        return b"", 6 * exponent
    if generator not in ("x", "y"):
        raise ValueError(f"malformed run {(generator, exponent)!r}")
    sign = 1 if exponent > 0 else -1
    return _LETTER_SYLLABLES[generator, sign] * (exponent * sign), exponent


def _multiply(stack: bytearray, syllables: bytes) -> None:
    """Multiply the reduced word ``stack`` by the reduced word ``syllables``
    in place.  Both alternate S and U-powers, so cancellation happens only
    where they meet: two syllables of the same kind (both S or both U-powers)
    merge to (a + b) % 3, which is 0, and dropped, for S*S and for inverse
    U-powers.  A nonzero merge is pushed back and ends the merge, as the
    next syllable is an S.  The rest is one bytes copy, 2 bytes a letter."""
    i = 0
    while stack and i < len(syllables) \
            and (not stack[-1]) == (not syllables[i]):
        e = (stack.pop() + syllables[i]) % 3
        if e:
            stack.append(e)
        i += 1
    stack += syllables[i:]


def _reduced_product(left, right):
    """The product of two (reduced syllables, exponent sum) pairs."""
    stack = bytearray(left[0])
    _multiply(stack, right[0])
    return bytes(stack), left[1] + right[1]


# The reduced syllables and the exponent sum of every window of CHUNK
# letters at its packed byte, from _LETTER_SYLLABLES alone, so that the
# syllable pass stays a derivation independent of the matrix.
_CHUNK_SYLLABLES = window_table(_run_syllables, _reduced_product, (b"", 0))


class FreeProductWord(_Value, namedtuple("FreeProductWord", "syllables",
                                         defaults=(b"",))):
    """A cyclically reduced alternating word in Z/2 * Z/3; its length is
    the syllable count."""

    __slots__ = ()
    syllables: bytes

    def __len__(self) -> int:
        return len(self.syllables)

    def __str__(self) -> str:
        return " ".join(("S", "U", "U^2")[s] for s in self.syllables) or "1"

    def cyclic_key(self) -> tuple[int, ...]:
        """Canonical representative of the rotation class, for conjugacy tests."""
        return least_rotation(self.syllables)


def _cyclic_reduce(syllables: bytes) -> bytes:
    """Conjugate away matching end syllables, moving two indices inward."""
    first, last = 0, len(syllables) - 1
    while first < last and (not syllables[first]) == (not syllables[last]):
        e = (syllables[first] + syllables[last]) % 3
        first += 1
        last -= 1
        if e:
            # The merged power is followed by an S, so reduction stops.
            return syllables[first:last + 1] + bytes((e,))
    return syllables[first:last + 1]


def _syllable_pass(w: BraidWord) -> tuple[FreeProductWord, int]:
    """The cyclically reduced image in Z/2 * Z/3 and the exponent sum, read
    in one pass over the word.

    The steps are the word's packed fold keys (``BraidWord._fold_keys``):
    a packed window indexes ``_CHUNK_SYLLABLES``, built from
    ``_run_syllables`` by ``words.window_table``, and a run (a power run, an
    h run, or a letter left at the end of a stretch) is read in closed form.
    Each step multiplies the reduced stack by reduced syllables, which only
    touch the stack where the two meet, and only when the stack's top has
    the kind of their first one.
    """
    stack = bytearray()
    exponent_sum = 0
    for key in w._fold_keys:
        syllables, weight = _CHUNK_SYLLABLES[key] if type(key) is int \
            else _run_syllables(*key)
        exponent_sum += weight
        if stack and syllables and (not stack[-1]) == (not syllables[0]):
            _multiply(stack, syllables)
        else:
            stack += syllables
    return FreeProductWord(_cyclic_reduce(bytes(stack))), exponent_sum


def psl2_normal_form(w: BraidWord) -> FreeProductWord:
    """Image of the word in PSL(2,Z), cyclically reduced in Z/2 * Z/3.

    >>> len(psl2_normal_form(w_.parse("h")))
    0
    >>> str(psl2_normal_form(w_.parse("x^-2 y^-1")))
    'S'
    """
    return _syllable_pass(w)[0]


# --- the three families -----------------------------------------------------


class _Form(_Value):
    """Equality and hash by family: a form equals only a form of its own
    family with equal fields, never one of another family or a plain tuple,
    as ``Family2(0, -1)`` (y^-1) and ``Family3(0, -1)`` (x^-1 y^-1) are
    not conjugate."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((type(self), *self))


class Family1(_Form, namedtuple("Family1", "d a")):
    """Pseudo-Anosov class h^d x y^-a1 ... x y^-an, block tuple stored in its
    lexicographically least cyclic rotation."""

    __slots__ = ()
    d: int
    a: tuple[int, ...]

    def __new__(cls, d: int, a: tuple[int, ...]) -> Family1:
        return super().__new__(cls, d, least_rotation(a) if a else a)

    def __str__(self) -> str:
        return f"family 1, d = {self.d}, a = {self.a}"


class Family2(_Form, namedtuple("Family2", "d m")):
    """Central or parabolic class h^d y^m."""

    __slots__ = ()
    d: int
    m: int

    def __str__(self) -> str:
        return f"family 2, d = {self.d}, m = {self.m}"


class Family3(_Form, namedtuple("Family3", "d m")):
    """Elliptic (finite-order) class h^d x^m y^-1 with m in {-1, -2, -3}."""

    __slots__ = ()
    d: int
    m: int

    def __str__(self) -> str:
        return f"family 3, d = {self.d}, m = {self.m}"


MurasugiForm = Family1 | Family2 | Family3

# Elliptic classes: the single surviving syllable determines m, and the
# residues of m - 1 mod 6 are pairwise distinct, so the exponent sum
# corroborates it.
_ELLIPTIC_M = {U: -1, S: -2, UU: -3}


def _exact_quotient(numerator: int, denominator: int) -> int:
    d, remainder = divmod(numerator, denominator)
    if remainder:
        raise InternalInconsistency(
            f"twist power {numerator}/{denominator} is not an integer")
    return d


def _blocks(syllables: bytes) -> bytes:
    """The cyclic R/L word: the U-exponents, 1 for R and 2 for L.

    The word alternates S and U-powers with equal counts, so the powers
    fill one parity of places: the odd ones when the word starts with an S,
    the even ones otherwise.  Read at that parity, they are the R/L word up
    to rotation, which ``Family1`` canonicalises away."""
    powers = syllables[1::2] if syllables[0] == S else syllables[::2]
    if len(syllables) % 2 or S in powers or syllables.count(S) != len(powers):
        raise InternalInconsistency(
            f"{FreeProductWord(syllables)} does not alternate S and U-powers")
    return powers


def _block_tuple(exponents: bytes) -> tuple[int, ...]:
    """Convert a cyclic R/L word (R where e=1, L where e=2) into the family-1
    tuple: each R opens a block whose entry counts the following run of Ls.

    Reading from the first R, which the word holds, the Ls before it closing
    the last block, gives one rotation of the tuple; ``Family1`` stores the
    least of them, which is the normal form."""
    parts = exponents.split(b"\x01")
    return (*map(len, parts[1:-1]), len(parts[-1]) + len(parts[0]))


def _check_image(f: MurasugiForm, matrix: SL2Matrix) -> None:
    """Raise unless ``matrix`` lies in the SL(2,Z) class of the model word
    of ``f``.  The model's image is (-1)^d times that of its tail, so with
    tau = (-1)^d * trace the image fits when

        central (family 2, m = 0):    it equals (-1)^d I;
        parabolic (family 2, m != 0): its parabolic invariant is ((-1)^d, m);
        elliptic (family 3):          tau == 2 + m;
        hyperbolic (family 1):        tau > 2.

    A parabolic form whose image is not parabolic is a misfit as well."""
    sign = -1 if f.d % 2 else 1
    if isinstance(f, Family1):
        fits = sign * matrix.trace > 2
    elif isinstance(f, Family3):
        fits = sign * matrix.trace == 2 + f.m
    elif f.m == 0:
        fits = matrix.b == matrix.c == 0 and matrix.a == sign
    else:
        try:
            fits = homology.parabolic_invariant(matrix) == (sign, f.m)
        except homology.NotParabolic:
            fits = False
    if not fits:
        kind = homology.trace_class(matrix).kind
        raise InternalInconsistency(f"{kind} image does not fit {f}")


def classify(w: BraidWord, matrix: SL2Matrix | None = None) -> MurasugiForm:
    """The conjugacy normal form of a word.

    The cyclically reduced syllables give the family and the tail: none is
    central (tail exponent sum t = 0), one is elliptic (m from the
    syllable, t = m - 1), and an R/L word gives t = #R - #L, which is m for
    a pure power and n - sum(a) for a block tuple.  The twist power is
    d = (e - t) / 6 for the word's exponent sum e, and the form is checked
    once against ``matrix``, which is ``homology.image(w)``, computed here
    when not given (see ``_check_image``).

    >>> classify(w_.parse("x x y x x"))
    Family2(d=1, m=-1)
    >>> classify(w_.parse("y x^5"))
    Family1(d=1, a=(1,))
    """
    fp, e = _syllable_pass(w)
    if matrix is None:
        matrix = homology.image(w)

    if not fp:
        family, tail, t = Family2, 0, 0
    elif len(fp) == 1:
        tail = _ELLIPTIC_M[fp.syllables[0]]
        family, t = Family3, tail - 1
    else:
        exponents = _blocks(fp.syllables)
        t = exponents.count(1) - exponents.count(2)
        if abs(t) == len(exponents):
            # Parabolic: a pure power of R or of L.
            family, tail = Family2, t
        else:
            family, tail = Family1, _block_tuple(exponents)
    form = family(_exact_quotient(e - t, 6), tail)
    _check_image(form, matrix)
    return form


def _validate(f: MurasugiForm) -> None:
    if isinstance(f, Family1):
        if not f.a or any(x < 0 for x in f.a) or not any(f.a):
            raise InvalidForm(f"bad family-1 tuple {f.a}")
    elif isinstance(f, Family3):
        if f.m not in (-1, -2, -3):
            raise InvalidForm(f"family-3 m must be in -1..-3, got {f.m}")
    elif not isinstance(f, Family2):
        raise InvalidForm(f"not a normal form: {f!r}")


def canonical_word(f: MurasugiForm) -> BraidWord:
    """The model word of a normal form: the run h^d followed by the tail.

    >>> str(canonical_word(Family3(1, -1)))
    'x y x y x y x^-1 y^-1'
    >>> canonical_word(Family2(10**9, 2)).runs
    (('h', 1000000000), ('y', 2))
    """
    _validate(f)
    runs: list[w_.Run] = [("h", f.d)] if f.d else []
    if isinstance(f, Family1):
        for ai in f.a:
            runs.append(w_.X)
            if ai:
                runs.append(("y", -ai))
    elif isinstance(f, Family2):
        if f.m:
            runs.append(("y", f.m))
    else:
        runs += [("x", f.m), w_.Y_INV]
    return BraidWord(tuple(runs))


def tail_exponent_sum(f: MurasugiForm) -> int:
    """Exponent sum of the model word's tail x y^-a1 ... x y^-an, y^m or
    x^m y^-1; the model word's is 6d more, since h counts 6.

    >>> tail_exponent_sum(Family1(1, (5,)))
    -4
    """
    if isinstance(f, Family1):
        return len(f.a) - sum(f.a)
    if isinstance(f, Family2):
        return f.m
    return f.m - 1


def is_conjugate(w1: BraidWord, w2: BraidWord) -> bool:
    """Whether two words are conjugate in the 3-strand braid group.

    >>> is_conjugate(w_.parse("x"), w_.parse("y"))
    True
    >>> is_conjugate(w_.parse("x"), w_.parse("x^-1"))
    False
    """
    return classify(w1) == classify(w2)


def mirror_form(f: MurasugiForm) -> MurasugiForm:
    """Normal form of the inverse mapping class (mirror of the closure), in
    O(n + sum(a)) with no word built.  Inversion reverses the cyclic R/L
    word R L^a1 ... R L^an of a family-1 form and swaps R and L.

    >>> mirror_form(Family1(1, (5,)))
    Family1(d=-1, a=(0, 0, 0, 0, 1))
    """
    _validate(f)
    if isinstance(f, Family1):
        return Family1(-f.d, _block_tuple(
            b"".join(b"\x01" * ai + b"\x02" for ai in reversed(f.a))))
    if isinstance(f, Family2):
        return Family2(-f.d, -f.m)
    return Family3(1 - f.d, -4 - f.m)
