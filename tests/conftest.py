import random
import sys

import pytest

from threebraid import words as w_
from threebraid.murasugi import Family1, Family2, Family3, canonical_word
from threebraid.words import components

# short_words and short_diagrams are session fixtures, imported here so that
# every test module can ask for them.
from reference import LETTERS, short_diagrams, short_words


def random_word(rng: random.Random, max_len: int, min_len: int = 0) -> w_.BraidWord:
    n = rng.randint(min_len, max_len)
    return w_.word(rng.choice(LETTERS) for _ in range(n))


def random_nonsplit_word(rng: random.Random, max_len: int) -> w_.BraidWord:
    """A word that still uses both generator columns after free reduction."""
    while True:
        w = w_.free_reduce(random_word(rng, max_len, min_len=2))
        if {letter.generator for letter in w} == {"x", "y"}:
            return w


def all_forms(d_range, max_param, max_blocks=4):
    """Every normal form with d in d_range and parameters bounded by
    max_param, deduplicated by canonical rotation."""
    tuples = {(a,) for a in range(1, max_param + 1)}
    frontier = [(a,) for a in range(0, max_param + 1)]
    for _ in range(max_blocks - 1):
        frontier = [t + (a,) for t in frontier for a in range(0, max_param + 1)]
        tuples.update(t for t in frontier if any(t))
    forms = []
    for d in d_range:
        forms.extend(Family1(d, t) for t in tuples)
        forms.extend(Family2(d, m) for m in range(-max_param, max_param + 1))
        forms.extend(Family3(d, m) for m in (-1, -2, -3))
    return list(dict.fromkeys(forms))


def knot_forms(d_range, max_param, max_blocks=4):
    """The forms of ``all_forms`` whose closure is a knot."""
    for form in all_forms(d_range, max_param, max_blocks=max_blocks):
        if isinstance(form, Family2):
            continue
        if isinstance(form, Family3) and form.m == -2:
            continue
        if components(canonical_word(form)) == 1:
            yield form


def literature_box():
    """The 1,364 forms with |d| <= 5: family-1 tuples of 1-4 entries over
    0..3, family 2 with |m| <= 8, and family 3."""
    forms = [form for form in all_forms(range(-5, 6), 3)
             if not isinstance(form, Family2)]
    forms += [Family2(d, m) for d in range(-5, 6) for m in range(-8, 9)]
    return forms


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
