"""Words in the two standard generators of the 3-strand braid group.

A word is a finite sequence of signed letters in the generators ``x`` and
``y`` (the elementary braid generators sigma_1 and sigma_2, equivalently the
Dehn twists about the two dual curves on a once-punctured torus).  Everything
here is a pure function on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple


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


class Letter(NamedTuple):
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


@dataclass(frozen=True)
class BraidWord:
    """An immutable letter sequence; the empty word is the identity braid."""

    letters: tuple[Letter, ...] = ()

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return ""
        tokens = []
        run_letter, run = self.letters[0], 0
        for letter in self.letters + (None,):
            if letter == run_letter:
                run += 1
                continue
            exponent = run * run_letter.sign
            tokens.append(run_letter.generator if exponent == 1
                          else f"{run_letter.generator}^{exponent}")
            run_letter, run = letter, 1
        return " ".join(tokens)


EMPTY = BraidWord()


def word(letters) -> BraidWord:
    """Build a word from any iterable of letters."""
    return BraidWord(tuple(letters))


def parse(text: str) -> BraidWord:
    """Parse a word string.

    Grammar: whitespace-separated tokens ``base('^'int)?`` with base one of
    ``x``, ``y``, ``s1``, ``s2``, ``h`` (``x`` = ``s1``, ``y`` = ``s2``,
    ``h`` = the full twist ``x y x y x y``).  Exponents may be negative.

    >>> str(parse("x y^-2"))
    'x y^-2'
    >>> len(parse("h"))
    6
    """
    letters: list[Letter] = []
    for position, token in enumerate(text.split(), start=1):
        base, caret, exponent_text = token.partition("^")
        if caret and not _is_int(exponent_text):
            raise MalformedExponent(f"bad exponent {exponent_text!r} in {token!r}",
                                    position)
        if base not in _BASE_LETTERS:
            raise UnknownToken(f"unknown generator {base!r}", position)
        exponent = int(exponent_text) if caret else 1
        positive, negative = _BASE_LETTERS[base]
        letters.extend((positive if exponent >= 0 else negative) * abs(exponent))
    return BraidWord(tuple(letters))


def _is_int(text: str) -> bool:
    """Whether text is ``-?[0-9]+``; other Unicode digits are rejected."""
    body = text[1:] if text.startswith("-") else text
    return body.isascii() and body.isdigit()


_INVERSE = {letter: letter.inverse() for letter in (X, X_INV, Y, Y_INV)}


def _inverse_letters(letters) -> tuple[Letter, ...]:
    return tuple(map(_INVERSE.__getitem__, reversed(letters)))


# Each base token, expanded for a positive and for a negative exponent.
_BASE_LETTERS = {
    "x": ((X,), (X_INV,)),
    "s1": ((X,), (X_INV,)),
    "y": ((Y,), (Y_INV,)),
    "s2": ((Y,), (Y_INV,)),
    "h": (H_LETTERS, _inverse_letters(H_LETTERS)),
}


def exponent_sum(w: BraidWord) -> int:
    """Sum of the letter signs (the algebraic crossing number of the closure)."""
    return sum(letter.sign for letter in w)


def inverse(w: BraidWord) -> BraidWord:
    return BraidWord(_inverse_letters(w.letters))


def concat(u: BraidWord, w: BraidWord) -> BraidWord:
    return BraidWord(u.letters + w.letters)


def conjugate(w: BraidWord, u: BraidWord) -> BraidWord:
    """u w u^-1."""
    return concat(concat(u, w), inverse(u))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent letter/inverse pairs until none remain.

    >>> str(free_reduce(parse("x x^-1 y")))
    'y'
    """
    stack: list[Letter] = []
    for letter in w:
        if stack and stack[-1].generator == letter.generator \
                and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(tuple(stack))


def power(w: BraidWord, n: int) -> BraidWord:
    if n < 0:
        return power(inverse(w), -n)
    return BraidWord(w.letters * n)


@dataclass(frozen=True)
class Perm3:
    """A permutation of the three strand positions {1, 2, 3}."""

    images: tuple[int, int, int]

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def then(self, other: "Perm3") -> "Perm3":
        """The composite 'self first, then other'."""
        return Perm3(tuple(other(self(i)) for i in (1, 2, 3)))

    @property
    def cycle_count(self) -> int:
        seen, count = set(), 0
        for start in (1, 2, 3):
            if start in seen:
                continue
            count += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = self(i)
        return count


IDENTITY_PERM = Perm3((1, 2, 3))

# Both generators and their inverses act as the same transposition.
_LETTER_PERM = {"x": Perm3((2, 1, 3)), "y": Perm3((1, 3, 2))}

# S_3 as constant tables: _S3 lists the six permutations (the identity
# first), _S3_THEN[g][i] is the index of _S3[i] followed by the transposition
# of generator g, and _S3_CYCLES[i] is the cycle count of _S3[i].
_S3 = (IDENTITY_PERM, Perm3((2, 1, 3)), Perm3((1, 3, 2)), Perm3((3, 2, 1)),
       Perm3((2, 3, 1)), Perm3((3, 1, 2)))
_S3_THEN = {generator: tuple(_S3.index(p.then(t)) for p in _S3)
            for generator, t in _LETTER_PERM.items()}
_S3_CYCLES = tuple(p.cycle_count for p in _S3)


def _s3_index(w: BraidWord) -> int:
    index = 0
    for letter in w.letters:
        index = _S3_THEN[letter.generator][index]
    return index


def permutation(w: BraidWord) -> Perm3:
    """Image under the quotient to the symmetric group on the strands."""
    return _S3[_s3_index(w)]


def components(w: BraidWord) -> int:
    """Number of components of the braid closure (cycles of the permutation)."""
    return _S3_CYCLES[_s3_index(w)]
