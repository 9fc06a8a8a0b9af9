import functools
import itertools
import sys

import pytest

from threebraid import homology, murasugi
from threebraid import words as w_
from threebraid.words import (
    BraidWord,
    MAX_LETTERS,
    MalformedExponent,
    UnknownToken,
    WordTooLong,
    components,
    concat,
    exponent_sum,
    free_reduce,
    inverse,
    parse,
    permutation,
    run_text,
)

from conftest import random_word


def test_parse_negative_exponent():
    assert parse("x y^-2").letters == (w_.X, w_.Y_INV, w_.Y_INV)


def test_parse_full_twist_macro():
    assert parse("h").letters == (w_.X, w_.Y, w_.X, w_.Y, w_.X, w_.Y)


def test_parse_braid_generator_spellings():
    assert parse("s1 s2^-1") == parse("x y^-1")


def test_parse_zero_exponent_is_empty():
    assert parse("x^0") == BraidWord()


def test_parse_unknown_token_position():
    with pytest.raises(UnknownToken) as excinfo:
        parse("x z")
    assert excinfo.value.position == 2


def test_parse_malformed_exponent():
    for text in ("x^", "y^1.5", "x^--2", "h^a"):
        with pytest.raises(MalformedExponent):
            parse(text)


def test_parse_accepts_only_ascii_digits():
    # Superscript two and Arabic-Indic three are Unicode digits, not [0-9].
    for text in ("x^\u00b2", "x^\u0663", "y^-\u0663", "h^1_0", "x^+1"):
        with pytest.raises(MalformedExponent):
            parse(text)
    assert parse("x^-03") == parse("x^-3")


def test_parse_bounds_exponent_digits():
    for text in ("h^" + "9" * 19, "x^-" + "1" * 19, "y^" + "0" * 4299 + "1"):
        with pytest.raises(MalformedExponent) as excinfo:
            parse(text)
        assert "more than 18 digits" in str(excinfo.value)
    assert parse("h^-" + "9" * 18).runs == (("h", -(10**18 - 1)),)


def test_parse_bounds_letters_outside_h_runs():
    assert len(parse(f"x^{MAX_LETTERS}")) == MAX_LETTERS
    assert len(parse(f"h^{10**17} y^-{MAX_LETTERS}")) == \
        6 * 10**17 + MAX_LETTERS
    with pytest.raises(WordTooLong) as excinfo:
        parse(f"x^{MAX_LETTERS - 1} h^5 s2^-1 x")
    assert excinfo.value.position == 4
    with pytest.raises(WordTooLong):
        parse("x^999999999")


def test_words_of_more_than_sys_maxsize_letters_compare():
    # len() overflows on such a word, so equality must not call it.
    huge = parse("h^999999999999999999 h^999999999999999999")
    assert huge._length > sys.maxsize
    assert huge != parse("x") and parse("x") != huge
    assert huge == parse("h^999999999999999999 h^999999999999999999")


def test_words_with_huge_runs_compare_and_hash_from_their_runs():
    # Neither may expand the 6 * 10^17 letters of such a word.
    assert isinstance(hash(parse("h^99999999999999999")), int)
    assert parse("h^99999999999999999 h^99999999999999999") == \
        parse("h^199999999999999998")
    assert hash(parse("h^99999999999999999 h^99999999999999999")) == \
        hash(parse("h^199999999999999998"))
    # Equal lengths, other letters: told apart by their letters.
    assert BraidWord((("x", 3), ("x", -2), ("x", 10**17))) != \
        BraidWord((("x", 10**17), ("x", -2), ("x", 3)))


def test_words_with_other_runs_compare_by_their_letters():
    assert parse("h") == parse("x y x y x y") == parse("h x^0")
    assert hash(parse("h")) == hash(parse("x y x y x y"))
    assert parse("h x") == parse("x y x y x y x")
    assert parse("h") != parse("y x y x y x")
    assert parse("h^-1") == parse("y^-1 x^-1 y^-1 x^-1 y^-1 x^-1")
    assert parse("x x^-1") != BraidWord()


def test_h_runs_moved_past_their_letters_compare_from_their_runs():
    # Neither equality nor the hash may expand the 6 * 10^17 letters.
    n = 99999999999999999
    for one, other in ((f"h^{n} x y x y x y", f"x y x y x y h^{n}"),
                       (f"h^-{n} y^-1 x^-1", f"y^-1 x^-1 h^-{n}")):
        u, v = parse(one), parse(other)
        assert u == v and v == u
        assert hash(u) == hash(v)
    assert parse(f"x h^{n}") != parse(f"h^{n} x")
    assert parse(f"h^{n} x") != parse(f"x h^{n}")


# Every run value the walk tells apart: both generators and signs, a power
# run, h runs of both signs and of exponent 2, and an empty run.
_RUNS = (w_.X, w_.X_INV, w_.Y, w_.Y_INV, ("y", -2),
         ("h", 1), ("h", -1), ("h", 2), ("x", 0))

# All 820 words of at most three of those runs.
_SHORT_WORDS = [BraidWord(runs) for count in range(4)
                for runs in itertools.product(_RUNS, repeat=count)]


def test_short_words_are_equal_exactly_when_their_letters_are():
    assert len(_SHORT_WORDS) == 820
    hashes = {}
    for u in _SHORT_WORDS:
        assert hashes.setdefault(u.letters, hash(u)) == hash(u)
        for v in _SHORT_WORDS:
            assert (u == v) == (u.letters == v.letters), (u.runs, v.runs)


# Two more run values: a positive power of each generator.
_BLOCK_RUNS = _RUNS + (("y", 3), ("x", 2))


def block_letters(block):
    a, b, n = block
    return (a, b) * (n // 2) + (a,) * (n % 2)


def test_letter_blocks_name_each_letter_class_once():
    # All 16,105 words of at most four runs, grouped by their letters: each
    # class has one block stream, which spells its letters and which no
    # other class has, and one hash.
    classes = {}
    for count in range(5):
        for runs in itertools.product(_BLOCK_RUNS, repeat=count):
            classes.setdefault(BraidWord(runs).letters, []).append(runs)
    assert sum(map(len, classes.values())) == 16_105
    assert len(classes) == 8_953
    streams = set()
    for letters, members in classes.items():
        blocks = {tuple(w_._letter_blocks(runs)) for runs in members}
        assert len(blocks) == 1, letters
        (stream,) = blocks
        assert all(a is b for a, b, n in stream if n == 1), stream
        assert sum(map(block_letters, stream), ()) == letters, stream
        streams.add(stream)
        assert len({hash(BraidWord(runs)) for runs in members}) == 1, letters
    assert len(streams) == len(classes)


def test_hash_tells_short_words_apart():
    # A hash of the letter counts alone would give 45 values.
    hashes = {hash(w_.word(letters)) for letters in itertools.product(
        (w_.X, w_.Y, w_.X_INV, w_.Y_INV), repeat=8)}
    assert len(hashes) >= 4**8 // 4


def test_word_equality_and_cached_values_against_other_objects():
    # Against a non-word, == defers to the other side, and a cached value
    # read on the class is its descriptor.
    assert parse("x").__eq__(("x", 1)) is NotImplemented
    assert parse("x") != ("x", 1)
    assert isinstance(BraidWord.letters, functools.cached_property)


def test_unit_letters_are_the_packed_letters():
    # _letter_blocks compares the letters of _segment by identity.
    packed = {id(letter) for letter in w_.PACKED_LETTERS}
    for units in w_._UNIT_LETTERS.values():
        for unit in units:
            assert {id(letter) for letter in unit} <= packed, unit


def test_exponent_sum():
    assert exponent_sum(BraidWord()) == 0
    assert exponent_sum(parse("h")) == 6
    assert exponent_sum(parse("x y^-2")) == -1


def test_inverse_and_free_reduce():
    assert str(inverse(parse("x y"))) == "y^-1 x^-1"
    assert str(free_reduce(parse("x x^-1 y"))) == "y"
    assert free_reduce(concat(parse("x"), parse("x^-1"))) == BraidWord()


def test_each_letter_code_is_two_from_its_inverse():
    # reduced_digits cancels two codes whose digits differ by 2.
    for code, letter in enumerate(w_.PACKED_LETTERS):
        assert w_.PACKED_LETTERS[code ^ 2] == letter.inverse()
        assert w_.CODE_DIGITS[code] ^ 2 == w_.CODE_DIGITS[code ^ 2]


def test_rendering_round_trips():
    for text in ("", "x", "x y^-2", "h x y^-5", "x^3 y^-4 x"):
        assert parse(str(parse(text))) == parse(text)


def letter_text(w):
    """str(w) as it was written: one token per stretch of equal letters."""
    tokens = []
    for letter, group in itertools.groupby(w.letters):
        exponent = sum(1 for _ in group) * letter.sign
        tokens.append(letter.generator if exponent == 1
                      else f"{letter.generator}^{exponent}")
    return " ".join(tokens)


def assert_run_text_reads_back(w):
    text = run_text(w)
    assert parse(text) == w, w.runs
    h_runs = [e for g, e in w.runs if g == "h"]
    if h_runs:
        assert [parse(token).runs[0][1] for token in text.split()
                if token[0] == "h"] == h_runs, w.runs
    else:
        assert text == str(w) == letter_text(w), w.runs


def test_run_text_on_all_words_up_to_length_8():
    level = [()]
    checked = 0
    for length in range(9):
        for letters in level:
            assert_run_text_reads_back(BraidWord(letters))
            checked += 1
        level = [letters + (letter,) for letters in level
                 for letter in (w_.X, w_.Y, w_.X_INV, w_.Y_INV)]
    assert checked == 87_381


def test_run_text_on_all_words_of_four_tokens():
    tokens = [(g, e) for g in "xyh" for e in (1, -1, 2, -2)]
    for count in range(5):
        for runs in itertools.product(tokens, repeat=count):
            assert_run_text_reads_back(BraidWord(runs))


def test_run_text_on_random_words(rng):
    for _ in range(200):
        runs = [(rng.choice("xxxyyyh"), rng.choice((1, -1)) * rng.randint(1, 9))
                for _ in range(rng.randint(0, 60))]
        assert_run_text_reads_back(BraidWord(tuple(runs)))


def test_run_text_keeps_a_huge_twist_power_as_one_token():
    w = parse("h^100000000000000000 x x y^-3 h^-1")
    assert run_text(w) == "h^100000000000000000 x^2 y^-3 h^-1"
    assert parse(run_text(w)).runs == (("h", 10**17), ("x", 2), ("y", -3),
                                       ("h", -1))


def test_permutation_fixtures():
    assert permutation(parse("h")).images == (1, 2, 3)
    perm = permutation(parse("x y"))
    assert perm.images == (3, 1, 2)
    assert [perm(i) for i in (1, 2, 3)] == [3, 1, 2]
    assert permutation(parse("y^-1"))(2) == 3
    assert components(parse("h")) == 3
    assert components(parse("x y^-5")) == 1
    assert components(parse("x^-2 y^-1")) == 2


def test_permutation_matches_transposition_product():
    # Independent route: multiply transpositions as dictionaries.
    def apply(mapping, i):
        return mapping.get(i, i)

    flip_x = {1: 2, 2: 1}
    flip_y = {2: 3, 3: 2}
    word = parse("x y^-5 x^-1 y x")
    current = {1: 1, 2: 2, 3: 3}
    for letter in word:
        flip = flip_x if letter.generator == "x" else flip_y
        current = {i: apply(flip, current[i]) for i in (1, 2, 3)}
    expected = tuple(current[i] for i in (1, 2, 3))
    assert permutation(word).images == expected


def test_free_reduce_idempotent_and_exponent_invariants(rng):
    for _ in range(300):
        w = random_word(rng, 30)
        u = random_word(rng, 10)
        reduced = free_reduce(w)
        assert free_reduce(reduced) == reduced
        assert exponent_sum(reduced) == exponent_sum(w)
        assert exponent_sum(w_.conjugate(w, u)) == exponent_sum(w)
        assert exponent_sum(inverse(w)) == -exponent_sum(w)


def test_permutation_is_homomorphism(rng):
    for _ in range(300):
        u = random_word(rng, 15)
        w = random_word(rng, 15)
        assert permutation(concat(u, w)) == permutation(u).then(permutation(w))


def test_components_conjugation_invariant(rng):
    for _ in range(300):
        u = random_word(rng, 10)
        w = random_word(rng, 20)
        assert components(w_.conjugate(w, u)) == components(w)


def test_folds_of_a_long_word_ignore_the_int_digit_limit(rng):
    # The packing reads each stretch of letters as one base-4 integer, which
    # the int-to-str digit limit exempts: image and classify are public, so
    # they must work under any limit their caller sets.  Eight power and h
    # runs split 10^5 letters, so some stretch has over 11,000 digits.
    tokens = [rng.choice(("x", "y", "x^-1", "y^-1")) for _ in range(10**5)]
    for run in ("x^3", "y^-2", "h^7", "h^-1") * 2:
        tokens.insert(rng.randrange(len(tokens)), run)
    text = " ".join(tokens)
    w = parse(text)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        folded = homology.image(w), murasugi.classify(w)
    finally:
        sys.set_int_max_str_digits(limit)
    sys.set_int_max_str_digits(0)
    try:
        assert folded == (homology.image(parse(text)),
                          murasugi.classify(parse(text)))
    finally:
        sys.set_int_max_str_digits(limit)
