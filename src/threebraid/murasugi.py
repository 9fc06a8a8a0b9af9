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
from .words import (BraidWord, _Value, fold_factors, positive_table,
                    window_table)


class InvalidForm(ValueError):
    pass


def _least_start(doubled: Sequence, n: int) -> int:
    """Where the lexicographically least cyclic rotation of the n entries
    of ``doubled``, which holds them twice, starts, in linear time: the
    package's one least-rotation scan.

    Two candidate starts i != j are compared over the doubled sequence, k
    entries agreeing so far.  At the first mismatch the start with the
    larger entry jumps k + 1 places: if that is i, each skipped start i + p
    (p <= k) agrees with j + p for k - p entries and is then larger, so it
    is not least.  A least start is never skipped, so i, which moves only
    by jumps, never passes the first one, and j passes it only by stepping
    off i.  The scan ends with i on it: when j passes n, every other start
    has been skipped, and when k reaches n, the rotations at i and j are
    equal, so every start repeats one below j.  i + j + k grows at every
    step, so the scan is O(n) and keeps no failure array.  It runs in a
    Python step per entry.
    """
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
    return i


def least_rotation(seq: Sequence) -> tuple:
    """The lexicographically least cyclic rotation of seq, in linear time:
    the doubled tuple sliced where ``_least_start`` finds it.

    ``classify`` and ``mirror_form`` call it on the block tuple of an R/L
    word shorter than ``_SEARCH_CUT`` bytes; a longer one is sliced by
    ``_least_word``.  ``Family1(d, a)`` and ``FreeProductWord.cyclic_key``
    call it always.

    >>> least_rotation((3, 0, 1))
    (0, 1, 3)
    """
    n = len(seq)
    doubled = tuple(seq) * 2
    start = _least_start(doubled, n)
    return doubled[start:start + n]


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


# The kind of each syllable, by its byte: 1 for S, 2 for a U-power.  Two
# syllables merge only when their kinds are equal; kind 0 stands for no
# syllable, the first or last of an empty factor or the top of an empty
# stack.
_KINDS = (1, 2, 2)


def _run_syllables(generator: str,
                   exponent: int) -> tuple[bytes, int, int, int]:
    """The fold factor of a run: its syllables, its exponent sum, and the
    kinds (``_KINDS``) of its first and last syllable, 0 for none.  h is
    central and trivial in PSL(2,Z), and a zero exponent is the empty
    word; a generator power repeats the letter's two syllables, which
    leaves them reduced."""
    if generator == "h":
        return b"", 6 * exponent, 0, 0
    if generator not in ("x", "y"):
        raise ValueError(f"malformed run {(generator, exponent)!r}")
    if not exponent:
        return b"", 0, 0, 0
    sign = 1 if exponent > 0 else -1
    first, last = syllables = _LETTER_SYLLABLES[generator, sign]
    return (syllables * (exponent * sign), exponent, _KINDS[first],
            _KINDS[last])


def _fold_syllables(stack: bytearray, factors) -> int:
    """Multiply the reduced word ``stack`` in place by the reduced
    syllables of each (syllables, weight, first kind, last kind) factor in
    turn, and return the sum of the weights.  Both words alternate S and
    U-powers, so cancellation happens only where they meet, and only when
    the stack's top has the kind of the factor's first syllable.  That
    kind is held in ``top`` (``_KINDS``, 0 on an empty stack), so a factor
    of another kind, or an empty one, costs one compare and one bytes copy,
    2 bytes a letter, after which the top has the factor's last kind, or
    keeps its own after an empty factor.  Two
    syllables of the same kind merge to (a + b) % 3, which is 0, and
    dropped, for S*S and for inverse U-powers.  After a drop the next two
    have one kind again.  A nonzero merge is pushed back and ends the
    merge, as the next syllable is an S; after a merge the top's kind is
    read off the stack."""
    total = 0
    pop, push = stack.pop, stack.append
    top = _KINDS[stack[-1]] if stack else 0
    for syllables, weight, first, last in factors:
        total += weight
        if first != top:
            stack += syllables
            top = last or top
            continue
        i = 0
        for syllable in syllables:
            i += 1
            e = (pop() + syllable) % 3
            if e:
                push(e)
                break
            if not stack:
                break
        stack += syllables[i:]
        top = _KINDS[stack[-1]] if stack else 0
    return total


def _reduced_product(left, right):
    """The product of two fold factors: the right one folded onto the left
    one's syllables by ``_fold_syllables``, with the kinds of the result's
    ends."""
    stack = bytearray(left[0])
    weight = left[1] + _fold_syllables(stack, (right,))
    if not stack:
        return b"", weight, 0, 0
    return bytes(stack), weight, _KINDS[stack[0]], _KINDS[stack[-1]]


# The fold factor (syllables, exponent sum, first and last kind) of every
# window of CHUNK letters at its packed byte, and of every window of
# POSITIVE_CHUNK positive letters at its byte, from _LETTER_SYLLABLES alone,
# so that the syllable pass stays a derivation independent of the matrix.
_CHUNK_SYLLABLES = window_table(_run_syllables, _reduced_product,
                                (b"", 0, 0, 0))
_POSITIVE_SYLLABLES = positive_table(_CHUNK_SYLLABLES, _reduced_product)


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


def _syllable_pass(w: BraidWord) -> tuple[bytes, int]:
    """The syllables of the cyclically reduced image in Z/2 * Z/3, as
    bytes, and the exponent sum, read in one pass over the word.

    One ``_fold_syllables`` loop multiplies the empty stack by every factor
    of ``words.fold_factors``: each packed window's entry in
    ``_CHUNK_SYLLABLES``, built from ``_run_syllables`` by
    ``words.window_table``, or in ``_POSITIVE_SYLLABLES``, built from it by
    ``words.positive_table``, then each run of the tail by
    ``_run_syllables`` itself.  It makes no Python call per factor, so
    the Python calls of a word read on parse's byte path do not grow with
    its length.
    """
    stack = bytearray()
    exponent_sum = _fold_syllables(
        stack, fold_factors(w, _CHUNK_SYLLABLES, _POSITIVE_SYLLABLES,
                            _run_syllables))
    return _cyclic_reduce(bytes(stack)), exponent_sum


def psl2_normal_form(w: BraidWord) -> FreeProductWord:
    """Image of the word in PSL(2,Z), cyclically reduced in Z/2 * Z/3, as
    a ``FreeProductWord`` of ``_syllable_pass``'s bytes.

    >>> len(psl2_normal_form(w_.parse("h")))
    0
    >>> str(psl2_normal_form(w_.parse("x^-2 y^-1")))
    'S'
    """
    return FreeProductWord(_syllable_pass(w)[0])


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
    lexicographically least cyclic rotation: the constructor refuses a
    tuple with a negative entry or none positive and rotates it by
    ``least_rotation``, and ``classify``, which finds that rotation itself,
    builds the form by ``_normal`` alone."""

    __slots__ = ()
    d: int
    a: tuple[int, ...]

    def __new__(cls, d: int, a: tuple[int, ...]) -> Family1:
        if not any(a) or min(a) < 0:
            raise InvalidForm(f"bad family-1 tuple {a}")
        return cls._normal((d, least_rotation(a)))

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
    """Elliptic (finite-order) class h^d x^m y^-1 with m in {-1, -2, -3};
    the constructor refuses any other m."""

    __slots__ = ()
    d: int
    m: int

    def __new__(cls, d: int, m: int) -> Family3:
        if m not in (-1, -2, -3):
            raise InvalidForm(f"family-3 m must be in -1..-3, got {m}")
        return cls._normal((d, m))

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
    to rotation, which ``_least_blocks`` canonicalises away.  The empty
    word is the empty R/L word, the central case of a pure power."""
    powers = syllables[1::2] if S in syllables[:1] else syllables[::2]
    if len(syllables) % 2 or S in powers or syllables.count(S) != len(powers):
        raise InternalInconsistency(
            f"{FreeProductWord(syllables)} does not alternate S and U-powers")
    return powers


def _block_tuple(exponents: bytes) -> tuple[int, ...]:
    """Convert a cyclic R/L word (R where e=1, L where e=2) into the family-1
    tuple: each R opens a block whose entry counts the following run of Ls.

    Reading from the first R, which the word holds, the Ls before it closing
    the last block, gives one rotation of the tuple.  Two rotations of the
    word that start at an R first differ where one block's L-run ends,
    with an R, and the other's goes on, with an L, so the one with the
    smaller entry is less: the least rotation of the word gives the least
    rotation of the tuple, which the normal form holds and
    ``_least_blocks`` reads."""
    parts = exponents.split(b"\x01")
    return (*map(len, parts[1:-1]), len(parts[-1]) + len(parts[0]))


# R/L words of at least this many bytes have their least rotation read by
# _least_word; shorter ones, where its fixed cost loses to the Python steps
# of least_rotation on the block tuple, take that scan.
_SEARCH_CUT = 64


def _least_word(exponents: bytes) -> bytes:
    """The least rotation of a cyclic R/L word that holds both letters.

    R (1) is less than L (2), so the least rotation opens with a longest
    cyclic run R^r.  In the doubled word, which holds every cyclic run
    whole since the word holds an L, r is read by records at C speed: the
    first run, then the first run longer than the longest so far, found by
    one ``bytes.find`` that resumes past it and lands on the start of a
    run, as a first match after an L.  Each pattern is at most one longer
    than a run already read, those runs lying apart, so the searches scan
    the doubled word once.

    The word is rotated to one run R^r and split at every R^r, each of
    which is a whole run, into the tokens that follow them; each token
    opens and closes with an L.  Two rotations that start at an R^r
    compare as their token sequences do: at the first unequal pair, a
    token that is a proper prefix of the other is followed by R^r, which
    sorts below what the longer one holds there, an L or a run of R
    shorter than r.  So one ``_least_start`` scan of the tokens, whose
    entries compare at C speed, finds the least token rotation in linear
    time, however many runs tie.  The doubled word is sliced at the start
    of that token rotation, the R^r before its first token: ``first``
    plus r and the token's length for each token before it.  ``first`` is
    the first R^r at 1 or later, so every R^r starts between first and n,
    and the slice lies inside the doubled word.

    >>> list(_least_word(bytes((2, 1, 2, 1, 1, 2))))
    [1, 1, 2, 2, 1, 2]
    """
    n = len(exponents)
    doubled = exponents * 2
    run, start = 0, doubled.find(1)
    while start >= 0:
        end = doubled.find(2, start)
        run = end - start
        start = doubled.find(b"\x01" * (run + 1), end, n + run + 1)
    longest = b"\x01" * run
    first = doubled.find(longest, 1, n + run)
    tokens = doubled[first + run:first + n].split(longest)
    least = _least_start(tokens * 2, len(tokens))
    start = first + least * run + sum(map(len, tokens[:least]))
    return doubled[start:start + n]


def _least_blocks(exponents: bytes) -> tuple[int, ...]:
    """The family-1 block tuple of a cyclic R/L word that holds both
    letters, in its least rotation: on a word of at least ``_SEARCH_CUT``
    bytes, read from ``_least_word``, which slices its doubled word at the
    start of its least token rotation, else ``least_rotation`` of the
    tuple read from the word as it is."""
    if len(exponents) >= _SEARCH_CUT:
        return _block_tuple(_least_word(exponents))
    return least_rotation(_block_tuple(exponents))


def _check_image(f: MurasugiForm, matrix: SL2Matrix) -> None:
    """Raise unless ``matrix`` lies in the SL(2,Z) class of the model word
    of ``f``.  The model's image is s = (-1)^d times that of its tail, so
    with tau = s * trace the image fits when

        family 1, tail x y^-a1 ... x y^-an:  tau > 2;
        family 2, tail y^m:  tau == 2 and s * matrix - I has
            ``homology._nilpotent_power`` m, so matrix = s I at m = 0;
        family 3, tail x^m y^-1:  tau == 2 + m and s * c > 0.

    The tail x^m y^-1 maps to [[1 + m, m], [1, 1]], whose c is 1.  An
    elliptic matrix's c has the sign of its definite form
    c x^2 + (d - a) x y - b y^2, which conjugation keeps, and with the
    trace that sign is a complete invariant."""
    sign = -1 if f.d % 2 else 1
    tau = sign * matrix.trace
    if isinstance(f, Family1):
        fits = tau > 2
    elif isinstance(f, Family3):
        fits = tau == 2 + f.m and sign * matrix.c > 0
    else:
        fits = tau == 2 and homology._nilpotent_power(
            sign * matrix.b, sign * matrix.c) == f.m
    if not fits:
        kind = homology.trace_class(matrix).kind
        raise InternalInconsistency(f"{kind} image does not fit {f}")


def classify(w: BraidWord, matrix: SL2Matrix | None = None) -> MurasugiForm:
    """The conjugacy normal form of a word.

    The cyclically reduced syllables give the family and the tail: one is
    elliptic (m from the syllable, t = m - 1), and any other count is an
    R/L word, which gives t = #R - #L: m for a pure power, the empty word
    among them as the central case t = 0, and n - sum(a) for a block
    tuple.  The tuple is read in its least rotation by ``_least_blocks``:
    from the least rotation of an R/L word of at least ``_SEARCH_CUT``
    bytes, which ``_least_word`` reads, else by ``least_rotation``.
    The twist power is d = (e - t) / 6 for the word's exponent sum e, the
    form is built by ``_normal``, with no second rotation, and it is
    checked once against ``matrix``, which is ``homology.image(w)``,
    computed here when not given (see ``_check_image``).

    >>> classify(w_.parse("x x y x x"))
    Family2(d=1, m=-1)
    >>> classify(w_.parse("y x^5"))
    Family1(d=1, a=(1,))
    """
    syllables, e = _syllable_pass(w)
    if matrix is None:
        matrix = homology.image(w)

    if len(syllables) == 1:
        tail = _ELLIPTIC_M[syllables[0]]
        family, t = Family3, tail - 1
    else:
        exponents = _blocks(syllables)
        t = exponents.count(1) - exponents.count(2)
        if abs(t) == len(exponents):
            # A pure power of R or of L: parabolic, or central if empty.
            family, tail = Family2, t
        else:
            family, tail = Family1, _least_blocks(exponents)
    form = family._normal((_exact_quotient(e - t, 6), tail))
    _check_image(form, matrix)
    return form


def _validate(f: MurasugiForm) -> None:
    """Refuse a value that is not a form; the constructors of the
    families refuse invalid fields."""
    if not isinstance(f, (Family1, Family2, Family3)):
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
    O(n + sum(a)) with no braid word built.  Inversion reverses the cyclic
    R/L word R L^a1 ... R L^an of a family-1 form and swaps R and L; the
    word holds both letters, since the form is valid, and
    ``_least_blocks`` reads its tuple in the least rotation.

    >>> mirror_form(Family1(1, (5,)))
    Family1(d=-1, a=(0, 0, 0, 0, 1))
    """
    _validate(f)
    if isinstance(f, Family1):
        return Family1._normal((-f.d, _least_blocks(
            b"".join(b"\x01" * ai + b"\x02" for ai in reversed(f.a)))))
    if isinstance(f, Family2):
        return Family2._normal((-f.d, -f.m))
    return Family3._normal((1 - f.d, -4 - f.m))
