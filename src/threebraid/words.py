"""Words in the two standard generators of the 3-strand braid group.

A word is a finite sequence of signed letters in the generators ``x`` and
``y`` (the elementary braid generators sigma_1 and sigma_2, equivalently the
Dehn twists about the two dual curves on a once-punctured torus).  Everything
here is a pure function on immutable values.

A word is stored as runs ``(generator, exponent)`` with generator ``x``,
``y`` or ``h`` (the full twist ``x y x y x y``), so ``x^n`` and ``h^d`` each
cost one run whatever their exponent.  A ``Letter`` is the run
``(generator, +-1)``, so a letter sequence is already a run sequence.  The
letter sequence itself is expanded only on demand.  A word that ``parse``
reads from the tokens ``x``, ``y``, ``x^-1`` and ``y^-1`` alone, and every
word that ``free_reduce`` returns, is stored as its base-4 letter codes and
packed windows instead; its runs, which are its letters, are built from
the codes only when something reads them.  The windows of a long word from
``parse`` are packed from its codes after two passes that delete adjacent
inverse letters (``_fold_digits``), which neither fold can see; all else
reads the word's own codes.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import chain, starmap, zip_longest


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
# to the byte 4 * prefix + code, the first letter in the top two bits.  Each
# letter is two codes from its inverse, so code ^ 2 is the inverse's code.
PACKED_LETTERS = (X, Y, X_INV, Y_INV)

# Each code as the ASCII base-4 digit that ``BraidWord._digits`` holds; bit
# 1 of a digit is that of its code, so digit ^ 2 is the inverse's digit too.
CODE_DIGITS = b"0123"

# Each letter by its code's digit.
_DIGIT_LETTERS = dict(zip(CODE_DIGITS, PACKED_LETTERS))


def window_table(letter_value, product, identity) -> list:
    """Each window of CHUNK letters' value at the byte parse's byte path
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


def fold_factors(w: BraidWord, table: Sequence, run_value) -> Iterator:
    """The factors of both folds, in order: each window that parse's byte
    path packed (``BraidWord._windows``) as its entry in ``table``, a
    ``window_table``, then each run after them (``BraidWord._tail``) read
    in closed form by ``run_value(generator, exponent)``.  Both folds are
    homomorphisms, so the windows may be packed from the word's letters
    with cancelling pairs deleted (``_fold_digits``).

    >>> list(fold_factors(parse("x y x^-1 y^-1 x"), range(256),
    ...                   lambda g, e: (g, e)))
    [27, ('x', 1)]
    """
    return chain(map(table.__getitem__, w._windows),
                 starmap(run_value, w._tail))


# The letters of one run with exponent +1 and -1, by generator: only the
# four PACKED_LETTERS, which _letter_blocks compares by identity.
_UNIT_LETTERS = {
    "x": ((X,), (X_INV,)),
    "y": ((Y,), (Y_INV,)),
    "h": (H_LETTERS, (Y_INV, X_INV) * 3),
}

# The same units as code digits: a run's codes are one of them repeated.
_LETTER_DIGITS = {letter: digit for digit, letter in _DIGIT_LETTERS.items()}
_UNIT_DIGITS = {
    generator: tuple(bytes(map(_LETTER_DIGITS.__getitem__, unit))
                     for unit in units)
    for generator, units in _UNIT_LETTERS.items()
}


def _segment(run: Run) -> tuple[Letter, Letter, int]:
    """(a, b, n): the run's n letters alternate a, b, a, ..., starting with
    a.  An x or y run has a == b; h^e alternates x, y and h^-e y^-1, x^-1.

    >>> _segment(("h", -2))
    (Letter(generator='y', sign=-1), Letter(generator='x', sign=-1), 12)
    """
    generator, exponent = run
    unit = _UNIT_LETTERS[generator][exponent < 0]
    return unit[0], unit[len(unit) > 1], len(unit) * abs(exponent)


def _letter_blocks(runs: Sequence[Run]) -> Iterator[tuple[Letter, Letter, int]]:
    """The letters of a run sequence as maximal alternating blocks
    (a, b, n), the n letters a, b, a, ..., read greedily from the left, a
    one-letter block as (a, a, 1): two run sequences spell the same
    letters exactly when they give the same blocks.  Each run's
    ``_segment`` extends the open block by all of its letters, by its
    first letter only, or by none, so this is O(runs) whatever the
    exponents; its four ``PACKED_LETTERS`` compare by identity.

    >>> [(a.generator + b.generator, n)
    ...  for a, b, n in _letter_blocks(parse("x y x^2 h").runs)]
    [('xy', 3), ('xx', 2), ('yx', 5)]
    """
    a, b, n = None, None, 0
    for c, d, m in map(_segment, runs):
        if not m:
            continue
        if n == 1:
            b = c  # a one-letter block goes on with any letter
        # The block's next two letters are a, b when n is even, else b, a.
        if n and c is (b if n % 2 else a):
            if m == 1 or d is (a if n % 2 else b):
                n += m
                continue
            # Only the run's first letter goes on with the block.
            yield a, b, n + 1
            c, d, m = d, c, m - 1
        elif n:
            yield a, b, n
        a, b, n = c, d, m
    if n:
        yield a, b, n


def _run_letters(run: Run) -> tuple[Letter, ...]:
    generator, exponent = run
    positive, negative = _UNIT_LETTERS[generator]
    return (positive if exponent > 0 else negative) * abs(exponent)


class BraidWord:
    """An immutable word, stored as runs; the empty word is the identity.

    Length, iteration, equality, hashing and the string are those of the
    letter sequence: ``parse("h") == word(H_LETTERS)``.  Equality compares
    the lengths, then the letter blocks that ``_letter_blocks`` streams
    from the runs, which the hash folds, so neither expands a letter,
    whatever the exponents.  The string expands them (``run_text`` does
    not).

    Both folds read two plain fields (``fold_factors``): ``_windows``, the
    CHUNK-letter windows that parse's byte path packed, as bytes, and
    ``_tail``, the runs after them, which are all the runs of a word built
    from runs.  A word of letter codes (``_unit_letter_word``), which
    parse's byte path and ``free_reduce`` build, also holds its codes and
    its length; its runs and letters, one tuple, are built from the codes
    on first read.  Its windows and tail are packed from the codes that
    ``_fold_digits`` leaves, which on parse's byte path may lack some
    cancelling pairs of its letters.
    """

    # The ASCII base-4 letter codes (CODE_DIGITS) of a word of letter codes.
    _digits = None
    _windows = b""

    def __init__(self, runs: tuple[Run, ...] = ()):
        self.__dict__["runs"] = self.__dict__["_tail"] = runs

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to BraidWord.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete BraidWord.{name}")

    def __repr__(self) -> str:
        return f"BraidWord(runs={self.runs!r})"

    @cached_property
    def runs(self) -> tuple[Run, ...]:
        """Set by the constructor; only a word of letter codes, each of
        whose runs is one letter, builds them here."""
        return self.letters

    @cached_property
    def letters(self) -> tuple[Letter, ...]:
        """The letter sequence, expanded once and cached."""
        if self._digits is not None:
            return tuple(map(_DIGIT_LETTERS.__getitem__, self._digits))
        return tuple(chain.from_iterable(map(_run_letters, self.runs)))

    @cached_property
    def _length(self) -> int:
        """The letter count, 6 for each twist of an h run, summed in a plain
        loop, which enters no generator frame."""
        length = 0
        for g, e in self.runs:
            length += 6 * abs(e) if g == "h" else abs(e)
        return length

    @cached_property
    def _hash(self) -> int:
        """The letter blocks (``_letter_blocks``) folded into one hash."""
        value = 0
        for block in _letter_blocks(self.runs):
            value = hash((value, *block))
        return value

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self._length != other._length:
            return False
        return self.runs == other.runs or all(
            block == other_block for block, other_block in zip_longest(
                _letter_blocks(self.runs), _letter_blocks(other.runs)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return run_text(BraidWord(self.letters))


def run_text(w: BraidWord) -> str:
    """The word as a string that ``parse`` reads back as an equal word:
    one token per h run (``h``, ``h^-1`` or ``h^d``), so no letter is
    expanded, and one per stretch of x/y runs of equal generator and sign,
    as in ``str(w)``, which it equals on a word with no h run.  A run of
    exponent 0 is the empty word and writes nothing.

    >>> run_text(parse("h^1000000000 x x y^-3"))
    'h^1000000000 x^2 y^-3'
    """
    # The token being written is (generator, exponent); an x/y run adds to
    # it while generator and sign match.  The first entry, (None, None),
    # is dropped.
    tokens = []
    generator = exponent = None
    for g, e in w.runs:
        if not e:
            continue
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

    A text whose tokens are all ``x``, ``y``, ``x^-1`` or ``y^-1``, between
    ASCII whitespace, is read at C speed on the byte path
    (``_unit_letter_digits``); every other text, ``s1``, ``s2`` and ``x^1``
    spellings included, is read by the grammar (``_parse_tokens``), which
    alone raises the parse errors.  Both give the same word.  A text that
    holds an ``h`` is never on the byte path, so it goes to the grammar
    before any byte is translated.  The byte path packs the fold input from
    the codes that ``_fold_digits`` leaves: on a long word with inverse
    letters, two C-speed passes first delete adjacent cancelling pairs.

    >>> str(parse("x y^-2"))
    'x y^-2'
    >>> len(parse("h"))
    6
    >>> parse("h^1000000000 x").runs
    (('h', 1000000000), Letter(generator='x', sign=1))
    """
    if "h" not in text:
        digits = _unit_letter_digits(text)
        if digits is not None:
            return _unit_letter_word(digits, _fold_digits(digits))
    return _parse_tokens(text.split())


# The byte path of parse reads a text as a chain of byte classes, class 0
# the six ASCII whitespace bytes (those bytes.split splits on).  A step
# from one byte to the next is the byte 8 * class + class before; its
# grammar allows the steps from whitespace to whitespace, x or y, from a
# letter to whitespace or ^, from ^ to -, from - to 1 and from 1 to
# whitespace.  The step out of a letter tells its sign, so it is read as
# the letter's code (PACKED_LETTERS) and the other steps are skipped.
_SPACE, _X, _Y, _CARET, _MINUS, _ONE, _OTHER = range(7)
_CLASS_OF_BYTE = dict.fromkeys(b" \t\n\r\v\f", _SPACE) | dict(
    zip(b"xy^-1", (_X, _Y, _CARET, _MINUS, _ONE)))
_BYTE_CLASSES = bytes(_CLASS_OF_BYTE.get(byte, _OTHER) for byte in range(256))
_LETTER_STEP_DIGITS = {
    8 * after + letter: digit
    for (letter, after), digit in zip(
        ((_X, _SPACE), (_Y, _SPACE), (_X, _CARET), (_Y, _CARET)), CODE_DIGITS)}
# Each step as its letter's digit, and a step off the grammar as "!".
_STEP_DIGITS = bytes(_LETTER_STEP_DIGITS.get(step, ord("!"))
                     for step in range(256))
_SKIPPED_STEPS = bytes(8 * after + before for before, after in (
    (_SPACE, _SPACE), (_SPACE, _X), (_SPACE, _Y), (_CARET, _MINUS),
    (_MINUS, _ONE), (_ONE, _SPACE)))


def _unit_letter_digits(text: str) -> bytes | None:
    """The letter codes of ``text`` as ASCII base-4 digits (see
    ``PACKED_LETTERS``) if its tokens are all ``x``, ``y``, ``x^-1`` or
    ``y^-1`` between ASCII whitespace, and there are at most
    ``MAX_LETTERS`` of them; else None, and the grammar reads the text.
    With the byte classes read as one int, ``classes << 11 | classes``
    holds each step of the text, padded with whitespace, in a byte (class
    0 is whitespace), so that every step is read at C speed.

    >>> _unit_letter_digits("x y^-1\\tx^-1\\ny")
    b'0321'
    >>> _unit_letter_digits("x y^-1x") is _unit_letter_digits("s1") is None
    True
    """
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    classes = int.from_bytes(data.translate(_BYTE_CLASSES), "big")
    steps = (classes << 11 | classes).to_bytes(len(data) + 1, "big")
    digits = steps.translate(_STEP_DIGITS, _SKIPPED_STEPS)
    # Past the cap the grammar raises WordTooLong at the right token.
    if b"!" in digits or len(digits) > MAX_LETTERS:
        return None
    return digits


# Letter codes of at least CANCEL_CUT letters that hold an inverse letter
# are folded after CANCEL_PASSES passes of _cancel_pairs: below the cut the
# passes cost more than the windows they save, and a third pass saves about
# what it costs (README's Library section gives the crossover).
CANCEL_CUT = 256
CANCEL_PASSES = 2

# Two adjacent digits XOR to 2 exactly when their letters cancel; such an
# XOR reads as the flag 4, every other as 0.  A digit ORed with the flag is
# one of _CANCELLED, which no digit is.
_PAIR_FLAGS = bytes(4 * (byte == 2) for byte in range(256))
_CANCELLED = b"4567"


def _cancel_pairs(digits: bytes) -> bytes:
    """One pass over the letter codes, at C speed: each digit that cancels
    the one before it is flagged, the first flag of each run of adjacent
    flags is kept, so that no two kept pairs overlap, and both digits of
    each kept pair are deleted.  A pass that flags nothing returns
    ``digits`` itself.

    >>> _cancel_pairs(b"0120200")
    b'01200'
    """
    length = len(digits)
    codes = int.from_bytes(digits, "big")
    # Byte j of codes ^ codes >> 8 is digit j XOR digit j - 1; byte 0, the
    # first digit itself, is never flagged.
    flags = (codes ^ codes >> 8).to_bytes(length, "big").translate(
        _PAIR_FLAGS)
    if 4 not in flags:
        return digits
    flags = int.from_bytes(flags, "big")
    # The flags whose predecessor is not flagged (flags & ~(flags >> 8),
    # in fewer int operations), each marking its digit and the one before.
    kept = flags ^ (flags & flags >> 8)
    return (codes | kept | kept << 8).to_bytes(length, "big").translate(
        None, _CANCELLED)


def _fold_digits(digits: bytes) -> bytes:
    """The letter codes that parse's byte path packs for both folds: what
    CANCEL_PASSES passes of ``_cancel_pairs`` leave when there are at least
    CANCEL_CUT of them and one is an inverse letter, else ``digits``
    itself.  Both folds are homomorphisms, so a cancelled pair changes
    neither; the word keeps its own codes for everything else."""
    if len(digits) >= CANCEL_CUT and (b"2" in digits or b"3" in digits):
        for _ in range(CANCEL_PASSES):
            passed = _cancel_pairs(digits)
            if passed is digits:
                break
            digits = passed
    return digits


def _unit_letter_word(digits: bytes, fold_digits: bytes) -> BraidWord:
    """The word of the letter codes ``digits``, holding them and its
    length, with its fold input packed from ``fold_digits``: ``digits``
    itself, or what ``_fold_digits`` left of them.  The windows are read by
    one ``int(b"0" + fold_digits, 4)``, which no int-to-str digit limit
    applies to, and the 0 to CHUNK - 1 letters left are the tail."""
    w = BraidWord.__new__(BraidWord)
    length = len(fold_digits)
    full = length - length % CHUNK
    w.__dict__.update(
        _digits=digits, _length=len(digits),
        _windows=int(b"0" + fold_digits[:full], 4).to_bytes(
            full // CHUNK, "big"),
        _tail=tuple(map(_DIGIT_LETTERS.__getitem__, fold_digits[full:])))
    return w


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

# Every x/y token with exponent 1 or -1, written out, as its run; the
# token loop looks whole tokens up here before it reads them by the grammar.
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


def reduced_digits(w: BraidWord) -> bytes:
    """The letter codes of the freely reduced word, as ``CODE_DIGITS``:
    the codes that parse's byte path stored, else each run's codes
    repeated.  Codes that hold none of the four cancelling pairs (x x^-1,
    x^-1 x, y y^-1, y^-1 y) are reduced already and come back as they are;
    otherwise a stack cancels each code against its top, which is its
    inverse when the two digits differ by 2 (``PACKED_LETTERS``).

    >>> reduced_digits(parse("x y y^-1 h^-1"))
    b'0323232'
    """
    digits = w._digits
    if digits is None:
        # A plain loop, which enters no comprehension frame.
        parts = []
        for g, e in w.runs:
            parts.append(_UNIT_DIGITS[g][e < 0] * abs(e))
        digits = b"".join(parts)
    if not (b"02" in digits or b"20" in digits or b"13" in digits
            or b"31" in digits):
        return digits
    stack = [0]  # a bottom that cancels nothing
    for code in digits:
        if stack[-1] == code ^ 2:
            stack.pop()
        else:
            stack.append(code)
    return bytes(stack[1:])


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent letter/inverse pairs until none remain: the word of
    ``reduced_digits(w)``, held as parse's byte path holds its codes.

    >>> str(free_reduce(parse("x x^-1 y")))
    'y'
    """
    digits = reduced_digits(w)
    return _unit_letter_word(digits, digits)


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
