"""Words in the two standard generators of the 3-strand braid group.

A word is a finite sequence of signed letters in the generators ``x`` and
``y`` (the elementary braid generators sigma_1 and sigma_2, equivalently the
Dehn twists about the two dual curves on a once-punctured torus).  Everything
here is a pure function on immutable values.

A word is stored as runs ``(generator, exponent)`` with generator ``x``,
``y`` or ``h`` (the full twist ``x y x y x y``), so ``x^n`` and ``h^d`` each
cost one run whatever their exponent.  A ``Letter`` is the run
``(generator, +-1)``, so a letter sequence is already a run sequence.  The
letter sequence itself is expanded only on demand.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import chain


class ParseError(ValueError):
    """A word string that does not match the grammar.  ``position`` is the
    1-based index of the offending whitespace-separated token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (token {position})")
        self.position = position


class UnknownToken(ParseError):
    pass


class MalformedExponent(ParseError):
    pass


class WordTooLong(ParseError):
    """The word has more than ``MAX_LETTERS`` letters outside ``h`` runs."""


# Input bounds: an exponent literal has at most this many digits, and a
# word at most this many x/y letters (h runs do not count: they cost O(1)).
MAX_EXPONENT_DIGITS = 18
MAX_LETTERS = 10**6


class _Value(tuple):
    """The base of every value type, each written
    ``class X(_Value, namedtuple("X", "field ..."))`` with ``__slots__ = ()``
    and its fields annotated in its body: a record that indexes and unpacks
    as its fields and, unless its type says otherwise, equals their tuple,
    but refuses tuple arithmetic and ordering with ``TypeError``, so
    ``2 * m`` or ``m < n`` never repeats, concatenates or orders fields.
    The refusals raise: were they to return ``NotImplemented``,
    ``(0,) + value`` would still concatenate and ``value < (0,)`` still
    order."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        """Through the type's own constructor, so ``_replace`` runs its
        check, and with no field count taken by ``len``, which a type may
        define otherwise."""
        return cls(*iterable)

    def _refuse(self, other):
        raise TypeError(
            f"{type(self).__name__} has no tuple arithmetic or ordering")

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = _refuse


class Letter(_Value, namedtuple("Letter", "generator sign")):
    __slots__ = ()
    generator: str  # 'x' or 'y'
    sign: int       # +1 or -1

    def inverse(self) -> "Letter":
        return Letter(self.generator, -self.sign)


X = Letter("x", 1)
Y = Letter("y", 1)
X_INV = Letter("x", -1)
Y_INV = Letter("y", -1)

# h = (xy)^3, the full positive twist; it generates the center of the group
# and h^2 is the boundary-parallel twist.
H_LETTERS = (X, Y, X, Y, X, Y)

# A run: (generator, nonzero exponent), generator 'x', 'y' or 'h'.
Run = tuple[str, int]

# Letters per packed window: four 2-bit letter codes fill one byte.
CHUNK = 4

# The letters in the order of their codes.  A window of CHUNK letters packs
# to the byte 4 * prefix + code, the first letter in the top two bits.
PACKED_LETTERS = (X, Y, X_INV, Y_INV)


class _Digits(dict):
    """Each letter's code as a base-4 digit, and "-" for a run that is not
    a letter, so that a word's digits are one ``str.join``."""

    def __missing__(self, run):
        return "-"


_letter_digit = _Digits(
    (letter, str(code)) for code, letter in enumerate(PACKED_LETTERS)).__getitem__


def window_table(letter_value, product, identity) -> list:
    """Each window of CHUNK letters' value at the byte ``_fold_keys``
    packs it to, a letter's value being ``letter_value(generator, sign)``
    (the "Four Russians" table of Arlazarov, Dinic, Kronrod and Faradzev,
    1970).  Windows grow a letter per layer: byte = 4 * prefix + code.

    >>> window_table(lambda g, s: g if s > 0 else g.upper(),
    ...              str.__add__, "")[27]
    'xyXY'
    """
    letters = [letter_value(*letter) for letter in PACKED_LETTERS]
    layer = [identity]
    for _ in range(CHUNK):
        layer = [product(prefix, value) for prefix in layer for value in letters]
    return layer


_INVERSE_LETTERS = {X: X_INV, X_INV: X, Y: Y_INV, Y_INV: Y}

# The letters of one run with exponent +1 and -1, by generator: only the
# four PACKED_LETTERS, which _same_letters compares by identity.
_UNIT_LETTERS = {
    "x": ((X,), (X_INV,)),
    "y": ((Y,), (Y_INV,)),
    "h": (H_LETTERS, (Y_INV, X_INV) * 3),
}


# The word hash is a polynomial in _HASH_BASE modulo the Mersenne prime
# 2^61 - 1 (see BraidWord._hash).
_HASH_MODULUS = (1 << 61) - 1
_HASH_BASE = 1_000_003

# 1 / (B^2 - 1) modulo the prime: k pairs of letters that each hash to p
# hash to p (1 + B^2 + ... + B^(2 (k - 1))) = p (B^(2 k) - 1) / (B^2 - 1).
_PAIRS = pow(_HASH_BASE**2 - 1, -1, _HASH_MODULUS)


def _segment(run: Run) -> tuple[Letter, Letter, int]:
    """(a, b, n): the run's n letters alternate a, b, a, ..., starting with
    a.  An x or y run has a == b; h^e alternates x, y and h^-e y^-1, x^-1.

    >>> _segment(("h", -2))
    (Letter(generator='y', sign=-1), Letter(generator='x', sign=-1), 12)
    """
    generator, exponent = run
    unit = _UNIT_LETTERS[generator][exponent < 0]
    return unit[0], unit[len(unit) > 1], len(unit) * abs(exponent)


def _same_letters(u: Sequence[Run], v: Sequence[Run]) -> bool:
    """Whether two run sequences spell the same letters.  Each step
    compares the next k letters of both, k the shorter head's length, by
    their first two, and drops them, which uses up at least one run: O(runs)
    whatever the exponents.  ``_segment`` gives only the four
    ``PACKED_LETTERS``, so letters compare by identity."""
    left, right = [(s for s in map(_segment, runs) if s[2]) for runs in (u, v)]
    n = m = 0
    while True:
        if not n:
            a, b, n = next(left, (None, None, 0))
        if not m:
            c, d, m = next(right, (None, None, 0))
        if not (n and m):
            return n == m
        k = min(n, m)
        if a is not c or (k > 1 and b is not d):
            return False
        n, m = n - k, m - k
        if k % 2:
            a, b, c, d = b, a, d, c


def _run_letters(run: Run) -> tuple[Letter, ...]:
    generator, exponent = run
    positive, negative = _UNIT_LETTERS[generator]
    return (positive if exponent > 0 else negative) * abs(exponent)


class _RunLetters(dict):
    """The letters of each run: the four unit runs of x and y, keyed by the
    ``PACKED_LETTERS`` that ``parse`` stores them as, are looked up, and
    every other run is expanded by ``_run_letters``."""

    def __missing__(self, run):
        return _run_letters(run)


_letters_of_run = _RunLetters(
    (letter, (letter,)) for letter in PACKED_LETTERS).__getitem__


class BraidWord:
    """An immutable word, stored as runs; the empty word is the identity.

    Length, iteration, equality, hashing and the string are those of the
    letter sequence: ``parse("h") == word(H_LETTERS)``.  Equality walks
    the two run sequences once (``_same_letters``) and the hash is read
    from the runs, so neither expands a letter, whatever the exponents.
    The string expands them (``run_text`` does not).
    """

    def __init__(self, runs: tuple[Run, ...] = ()):
        self.__dict__["runs"] = runs

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to BraidWord.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete BraidWord.{name}")

    def __repr__(self) -> str:
        return f"BraidWord(runs={self.runs!r})"

    @cached_property
    def letters(self) -> tuple[Letter, ...]:
        """The letter sequence, expanded once and cached."""
        return tuple(chain.from_iterable(map(_letters_of_run, self.runs)))

    @cached_property
    def _length(self) -> int:
        return sum(6 * abs(e) if g == "h" else abs(e) for g, e in self.runs)

    @cached_property
    def _hash(self) -> int:
        """The polynomial hash of the letter sequence modulo
        ``_HASH_MODULUS``, each letter's value its code plus one: each
        distinct run's (B^n, hash) is read in closed form from its
        ``_segment`` once, so this is O(runs) whatever the exponents."""
        value = 0
        terms = {}
        for run in self.runs:
            term = terms.get(run)
            if term is None:
                a, b, n = _segment(run)
                first = PACKED_LETTERS.index(a) + 1
                pair = first * _HASH_BASE + PACKED_LETTERS.index(b) + 1
                power = pow(_HASH_BASE, n - n % 2, _HASH_MODULUS)
                run_hash = pair * (power - 1) * _PAIRS % _HASH_MODULUS
                if n % 2:
                    power *= _HASH_BASE
                    run_hash = run_hash * _HASH_BASE + first
                term = terms[run] = power, run_hash
            power, run_hash = term
            value = (value * power + run_hash) % _HASH_MODULUS
        return value

    @cached_property
    def _fold_keys(self) -> Sequence[int | Run]:
        """The word as the factors that both folds read, packed once: a
        byte (an int 0-255, see ``PACKED_LETTERS``) for each aligned window
        of CHUNK letters in a maximal stretch of letters, and the run itself
        for the 0 to CHUNK - 1 letters left at the end of a stretch and for
        each h run and power run.  So a word with no full window keys on its
        runs alone.  The digits are joined at C speed and read by ``int`` in
        base 4, a power of two, so no int-to-str digit limit applies.

        >>> parse("x y x^-1 y^-1 x h^2")._fold_keys
        [27, Letter(generator='x', sign=1), ('h', 2)]
        """
        runs = self.runs
        if len(runs) < CHUNK:
            return runs
        keys: list[int | Run] = []
        start = 0
        for stretch in "".join(map(_letter_digit, runs)).split("-"):
            length = len(stretch)
            full = length - length % CHUNK
            if full:
                keys += int(stretch[:full], 4).to_bytes(full // CHUNK, "big")
            # The letters left over and the run that ends the stretch.
            keys += runs[start + full:start + length + 1]
            start += length + 1
        return keys

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, BraidWord):
            return NotImplemented
        return self.runs == other.runs or _same_letters(self.runs, other.runs)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return run_text(BraidWord(self.letters))


def run_text(w: BraidWord) -> str:
    """The word as a string that ``parse`` reads back as an equal word:
    one token per h run (``h``, ``h^-1`` or ``h^d``), so no letter is
    expanded, and one per stretch of x/y runs of equal generator and sign,
    as in ``str(w)``, which it equals on a word with no h run.

    >>> run_text(parse("h^1000000000 x x y^-3"))
    'h^1000000000 x^2 y^-3'
    """
    # The token being written is (generator, exponent); an x/y run adds to
    # it while generator and sign match.  The first entry, (None, None),
    # is dropped.
    tokens = []
    generator = exponent = None
    for g, e in w.runs:
        if g == generator != "h" and (e > 0) == (exponent > 0):
            exponent += e
        else:
            tokens.append((generator, exponent))
            generator, exponent = g, e
    tokens.append((generator, exponent))
    return " ".join([g if e == 1 else f"{g}^{e}" for g, e in tokens[1:]])


def word(letters) -> BraidWord:
    """Build a word from any iterable of letters (or runs)."""
    return BraidWord(tuple(letters))


def parse(text: str) -> BraidWord:
    """Parse a word string.

    Grammar: whitespace-separated tokens ``base('^'int)?`` with base one of
    ``x``, ``y``, ``s1``, ``s2``, ``h`` (``x`` = ``s1``, ``y`` = ``s2``,
    ``h`` = the full twist ``x y x y x y``).  Exponents may be negative and
    have at most ``MAX_EXPONENT_DIGITS`` digits.  Each token becomes one
    run, except that a zero exponent (``x^0``) gives none; the x/y letters
    of a word total at most ``MAX_LETTERS``.

    >>> str(parse("x y^-2"))
    'x y^-2'
    >>> len(parse("h"))
    6
    >>> parse("h^1000000000 x").runs
    (('h', 1000000000), Letter(generator='x', sign=1))
    """
    tokens = text.split()
    try:
        # A list first: a tuple grown from an iterator is resized step by
        # step, which fragments the heap.
        runs = tuple([_UNIT_TOKENS[token] for token in tokens])
    except KeyError:
        pass
    else:
        # Each unit token is one letter, so this is the letter count.
        if len(runs) <= MAX_LETTERS:
            return BraidWord(runs)
    return _parse_tokens(tokens)


def _parse_tokens(tokens: list[str]) -> BraidWord:
    """The grammar of ``parse``, token by token; it alone raises the parse
    errors, so their class and position do not depend on the table.  A
    token in ``_UNIT_TOKENS`` is looked up there as one letter, and only
    the others go through the grammar."""
    runs: list[Run] = []
    letter_count = 0
    for position, token in enumerate(tokens, start=1):
        run = _UNIT_TOKENS.get(token)
        if run is not None:
            letter_count += 1
        else:
            base, caret, exponent_text = token.partition("^")
            exponent = _exponent(exponent_text, token, position) if caret else 1
            try:
                positive, negative = _BASE_UNITS[base]
            except KeyError:
                raise UnknownToken(f"unknown generator {base!r}",
                                   position) from None
            if exponent == 1:
                run = positive
            elif exponent == -1:
                run = negative
            elif exponent:
                run = (positive[0], exponent)
            else:
                continue
            if run[0] != "h":
                letter_count += abs(exponent)
        if letter_count > MAX_LETTERS:
            raise WordTooLong(f"more than {MAX_LETTERS} x/y letters", position)
        runs.append(run)
    return BraidWord(tuple(runs))


def _exponent(text: str, token: str, position: int) -> int:
    """The exponent literal ``-?[0-9]+``, at most MAX_EXPONENT_DIGITS digits
    long; other Unicode digits are rejected."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise MalformedExponent(f"bad exponent {text!r} in {token!r}", position)
    if len(digits) > MAX_EXPONENT_DIGITS:
        raise MalformedExponent(
            f"exponent has more than {MAX_EXPONENT_DIGITS} digits", position)
    return int(text)


# Each base token as its runs with exponent +1 and -1.
_BASE_UNITS = {
    "x": (X, X_INV),
    "s1": (X, X_INV),
    "y": (Y, Y_INV),
    "s2": (Y, Y_INV),
    "h": (("h", 1), ("h", -1)),
}

# Every x/y token with exponent 1 or -1, written out, as its run; parse
# looks whole tokens up here before it falls back to the grammar.
_UNIT_TOKENS = {
    base + suffix: units[index]
    for base, units in _BASE_UNITS.items() if base != "h"
    for suffix, index in (("", 0), ("^1", 0), ("^-1", 1))
}


def exponent_sum(w: BraidWord) -> int:
    """Sum of the letter signs (the algebraic crossing number of the closure)."""
    return sum(6 * e if g == "h" else e for g, e in w.runs)


def inverse(w: BraidWord) -> BraidWord:
    return BraidWord(tuple((g, -e) for g, e in reversed(w.runs)))


def concat(u: BraidWord, w: BraidWord) -> BraidWord:
    return BraidWord(u.runs + w.runs)


def conjugate(w: BraidWord, u: BraidWord) -> BraidWord:
    """u w u^-1."""
    return concat(concat(u, w), inverse(u))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent letter/inverse pairs until none remain.  A word's
    letters are the four ``PACKED_LETTERS``, so each is compared with the
    inverse of the top of the stack by identity.

    >>> str(free_reduce(parse("x x^-1 y")))
    'y'
    """
    stack: list[Letter | None] = [None]  # a bottom that cancels nothing
    for letter in w.letters:
        if stack[-1] is _INVERSE_LETTERS[letter]:
            stack.pop()
        else:
            stack.append(letter)
    letters = tuple(stack[1:])
    reduced = BraidWord(letters)
    reduced.__dict__["letters"] = letters  # each run is one letter
    return reduced


def power(w: BraidWord, n: int) -> BraidWord:
    if n < 0:
        return power(inverse(w), -n)
    return BraidWord(w.runs * n)


class Perm3(_Value, namedtuple("Perm3", "images")):
    """A permutation of the three strand positions {1, 2, 3}."""

    __slots__ = ()
    images: tuple[int, int, int]

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def then(self, other: "Perm3") -> "Perm3":
        """The composite 'self first, then other'."""
        return Perm3(tuple([other.images[j - 1] for j in self.images]))

    @property
    def cycle_count(self) -> int:
        """The fixed points plus the one cycle through the moved points, if
        any: three points leave room for no second cycle."""
        moved = (self.images[0] != 1) + (self.images[1] != 2) + \
            (self.images[2] != 3)
        return 3 - moved + (moved > 0)


IDENTITY_PERM = Perm3((1, 2, 3))

# Both generators and their inverses act as the same transposition.
_LETTER_PERM = {"x": Perm3((2, 1, 3)), "y": Perm3((1, 3, 2))}


def permutation(w: BraidWord) -> Perm3:
    """Image under the quotient to the symmetric group on the strands: h
    runs and even runs act trivially, an odd run acts as its letter."""
    perm = IDENTITY_PERM
    for generator, exponent in w.runs:
        if exponent % 2 and generator != "h":
            perm = perm.then(_LETTER_PERM[generator])
    return perm


def components(w: BraidWord) -> int:
    """Number of components of the braid closure (cycles of the permutation)."""
    return permutation(w).cycle_count
