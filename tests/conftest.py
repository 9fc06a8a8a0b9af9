import random
import sys

import pytest

from threebraid import words as w_

LETTERS = (w_.X, w_.Y, w_.X_INV, w_.Y_INV)


def random_word(rng: random.Random, max_len: int, min_len: int = 0) -> w_.BraidWord:
    n = rng.randint(min_len, max_len)
    return w_.word(rng.choice(LETTERS) for _ in range(n))


def random_nonsplit_word(rng: random.Random, max_len: int) -> w_.BraidWord:
    """A word that still uses both generator columns after free reduction."""
    while True:
        w = w_.free_reduce(random_word(rng, max_len, min_len=2))
        if {letter.generator for letter in w} == {"x", "y"}:
            return w


@pytest.fixture
def rng():
    return random.Random(0x3B41D)


@pytest.fixture
def default_int_digit_limit():
    """The interpreter's default cap on int/str conversion, set for the
    test, which main leaves as it is; the previous cap is restored
    afterwards."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(previous)
