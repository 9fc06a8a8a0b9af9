"""Fast paths checked against the references of ``reference.py``.

Words of at most 8 letters come from the session's ``short_words``; other
short inputs are enumerated here, and long words and forms are drawn at
random.  A test that pins a property of an algorithm itself (a count of
comparisons, calls, lines or products) keeps its own helper.
"""

import functools
import itertools
import json
import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import prod
from operator import add, is_

import pytest

from threebraid import cli, floer, homology, invariants, murasugi
from threebraid import seifert as seifert_module
from threebraid import words as w_
from threebraid.floer import (
    FIGURE_EIGHT_LIKE,
    LEFT_TREFOIL_LIKE,
    RIGHT_TREFOIL_LIKE,
    GradedModule,
    B1NotOne,
    PositiveB1,
    correction_term,
    form_determinant,
    hf_plus_s0,
    is_tight,
    is_tight_inverse,
    shift,
    surgery_table,
    torus_bundle_hf,
)
from threebraid.homology import (
    AbelianGroup,
    SL2Matrix,
    components_from_image,
    determinant_from_image,
    image,
)
from threebraid.invariants import (
    PASS,
    FamilyNotCovered,
    NotAKnot,
    analyze_word,
    delta,
    finite_order_screen,
    signature,
    stein_report,
)
from threebraid.murasugi import (
    Family1,
    Family2,
    Family3,
    canonical_word,
    classify,
    is_conjugate,
    least_rotation,
    mirror_form,
    psl2_normal_form,
)
from threebraid.seifert import (
    seifert_matrix,
    sym_determinant,
    sym_signature,
)
from threebraid.words import (
    CHUNK,
    MAX_LETTERS,
    BraidWord,
    ParseError,
    WordTooLong,
    components,
    exponent_sum,
    free_reduce,
    inverse,
    parse,
    permutation,
)

from conftest import all_forms
from reference import (
    FRACTION_ZERO_SURGERY_ROWS,
    LETTERS,
    OracleValues,
    TOKEN,
    attribute_free_reduce,
    basis_parabolic_invariant,
    booth_least_rotation,
    branching_cyclic_reduce,
    branching_trace_class,
    cancelling_pass,
    dense_crossing_rows,
    encoder_json_line,
    end_kinds,
    fold_letters,
    fraction_pivots,
    grammar_parse,
    groupby_run_text,
    letter_level_blocks,
    model_letters,
    oracle_reference,
    oracle_rows,
    packed_keys,
    pair_loop_seifert,
    pairwise_gcd_smith_normal_form,
    per_branch_surgery_table,
    per_family_assembly,
    per_family_delta,
    per_run_letters,
    per_syllable_stack,
    rational_form,
    reference_analyze_word,
    renormalised_shift,
    slow_image,
    slow_least_rotation,
    slow_mirror_form,
    tait_goeritz,
    walk_same_letters,
)

# Periodic and near-periodic tuples of a few hundred entries, for the long
# matches and long jumps that the short tuples do not reach.
PERIODIC_TUPLES = {
    "all equal": (7,) * 300,
    "(0, 1) * k": (0, 1) * 150,
    "((0,) * 50 + (1,)) * k": ((0,) * 50 + (1,)) * 6,
    "single minimum at the end": (1,) * 299 + (0,),
    "(0, 1) * k, one entry changed": (0, 1) * 75 + (0, 0) + (0, 1) * 74,
    "((0,) * 50 + (1,)) * k, one block short":
        ((0,) * 50 + (1,)) * 3 + (0,) * 49 + (1,) + ((0,) * 50 + (1,)) * 2,
    "((0,) * 50 + (1,)) * k, one block long":
        ((0,) * 50 + (1,)) * 5 + (0,) * 51 + (1,),
}


def test_booth_matches_minimum_over_rotations(rng):
    for length in range(9):
        for seq in itertools.product(range(3), repeat=length):
            assert least_rotation(seq) == slow_least_rotation(seq), seq
    for name, seq in PERIODIC_TUPLES.items():
        n = len(seq)
        for shift in (0, 1, n // 2, n - 1, rng.randrange(n)):
            rotated = seq[shift:] + seq[:shift]
            assert least_rotation(rotated) == slow_least_rotation(rotated), \
                (name, shift)


def test_booth_on_syllables_and_lists():
    syllables = (("u", 2), ("s", 1), ("u", 1), ("s", 1))
    assert least_rotation(syllables) == slow_least_rotation(syllables)
    assert least_rotation([2, 0, 1, 0]) == (0, 1, 0, 2)
    assert least_rotation(bytes((2, 0, 1, 0))) == (0, 1, 0, 2)
    # Tokens between longest R-runs, each a proper prefix of the next.
    tokens = (b"\x02\x01\x02", b"\x02", b"\x02\x01\x02\x02", b"\x02\x01")
    assert least_rotation(tokens) == slow_least_rotation(tokens) == \
        (b"\x02", b"\x02\x01\x02\x02", b"\x02\x01", b"\x02\x01\x02")


def test_least_rotation_matches_booth_on_random_tuples(rng):
    # Half of the tuples repeat a short block with a few entries changed,
    # so that long matches, and long jumps, are common.
    for trial in range(200):
        length = rng.choice((rng.randint(1, 10**4), int(10 ** rng.uniform(0, 4))))
        alphabet = rng.randint(1, 4)
        if trial % 2:
            seq = [rng.randrange(alphabet) for _ in range(length)]
        else:
            block = [rng.randrange(alphabet) for _ in range(rng.randint(1, 20))]
            seq = (block * (length // len(block) + 1))[:length]
            for _ in range(rng.randint(0, 3)):
                seq[rng.randrange(length)] = rng.randrange(alphabet)
        seq = tuple(seq)
        assert least_rotation(seq) == booth_least_rotation(seq), (trial, length)


def test_least_rotation_makes_linearly_many_comparisons():
    # A single 1 between 400 and 401 zeros: a mismatch is found only after
    # a match of up to 400, so a scan that steps one place, not k + 1, at a
    # mismatch makes 82,205 comparisons where the two-pointer scan makes
    # 1,605.  Counting comparisons, not time, keeps the test exact.
    comparisons = 0

    class Counted(int):
        def __eq__(self, other):
            nonlocal comparisons
            comparisons += 1
            return int.__eq__(self, other)

        def __gt__(self, other):
            nonlocal comparisons
            comparisons += 1
            return int.__gt__(self, other)

        __hash__ = int.__hash__

    m = 400
    seq = tuple(map(Counted, (0,) * m + (1,) + (0,) * (m + 1)))
    n = len(seq)
    least = least_rotation(seq)
    count = comparisons
    assert least == (0,) * (2 * m + 1) + (1,)
    assert count <= 3 * n, count


def test_the_run_search_reads_the_least_block_rotation():
    # The block tuple of the least rotation that the search reads is the
    # least rotation of the one read from the word as it stands, on every
    # R/L word (R = 1, L = 2) of 2 to 14 letters that holds both letters:
    # ties, runs across the wrap and every start.
    checked = 0
    for length in range(2, 15):
        for letters in itertools.product(b"\x01\x02", repeat=length):
            exponents = bytes(letters)
            if 1 in exponents and 2 in exponents:
                assert murasugi._block_tuple(
                    murasugi._least_word(exponents)) == \
                    slow_least_rotation(murasugi._block_tuple(exponents)), \
                    exponents
                checked += 1
    assert checked == 32_738


def test_tied_runs_cost_one_scan_of_the_tokens(monkeypatch):
    # (x y^-1)^k is the R/L word (R L)^k, whose k runs of R all tie, here
    # read from an L: the search makes as many bytes searches and splits
    # at k = 10^3 as at 10^4, counted here, and one _least_start scan of
    # the k tokens, not k slice comparisons of k bytes each.
    scans = []
    least_start = murasugi._least_start

    def counting(doubled, n):
        scans.append(n)
        return least_start(doubled, n)

    monkeypatch.setattr(murasugi, "_least_start", counting)
    c_calls = Counter()

    def profiler(frame, event, arg):
        if event == "c_call" and arg.__name__ in ("find", "split"):
            c_calls[arg.__name__] += 1

    counts = []
    for k in (10**3, 10**4):
        c_calls.clear()
        scans.clear()
        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            least = murasugi._least_word(b"\x02\x01" * k)
        finally:
            sys.setprofile(previous)
        assert least == b"\x01\x02" * k
        assert scans == [k], scans
        counts.append(dict(c_calls))
    assert counts[0] == counts[1] and counts[0]["split"] == 1, counts


def test_the_run_search_holds_no_buffer_per_token():
    # (R L)^k splits into k one-byte tokens.  Slicing the doubled word
    # peaks at about 28 bytes a token; a join of the tokens would hold an
    # 80-byte buffer per token, about 102 bytes a token in all.
    k = 10**5
    exponents = b"\x01\x02" * k
    tracemalloc.start()
    try:
        blocks = murasugi._least_blocks(exponents)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == (1,) * k
    assert peak < 60 * k, peak / k


def test_classify_on_long_words_matches_the_scan(rng, monkeypatch):
    # Words of 10^3 to 10^5 letters, and periodic ones whose longest runs
    # tie 100 to 5,000 times, take the search; the forms equal those of
    # the scan alone, with the cut past every word.
    alphabets = (("x", "y", "x^-1", "y^-1"), ("x", "y"),
                 ("x", "y^-1", "x^3", "y^-2", "h"),
                 ("x", "y", "x^-1", "y^-1", "x^4", "y^-3", "h^-2"))
    searched = [" ".join(rng.choice(alphabet)
                         for _ in range(int(10 ** rng.uniform(3, 5))))
                for alphabet in alphabets for _ in range(2)]
    # Five tied runs of R R, each rotation equal.
    searched.append(("x y^-1 " * 50 + "x^2 y^-1 ") * 5)
    periodic = ["x y^-1 " * 5000, ("x y^-1 " * 50 + "x^2 y^-1 ") * 100,
                "h^3 " + "x^2 y^-1 x y^-1 " * 2000]
    forms = {}
    for text in searched + periodic:
        w = parse(text)
        exponents = murasugi._blocks(murasugi._syllable_pass(w)[0])
        assert len(exponents) >= murasugi._SEARCH_CUT, text[:40]
        forms[text] = classify(w)
        assert isinstance(forms[text], Family1), text[:40]
    monkeypatch.setattr(murasugi, "_SEARCH_CUT", sys.maxsize)
    for text, form in forms.items():
        assert classify(parse(text)) == form, text[:40]


def test_smith_normal_form_matches_the_pairwise_gcd(rng, monkeypatch):
    # H1 of SL(2,Z) images: I, -I, parabolics of trace 2 and -2, and words
    # of 1 to about 25,000 letters, some repeated so that the entries of
    # m - I share a factor, whose entries run from a few bits to over 10^4.
    matrices = [SL2Matrix(1, 0, 0, 1), SL2Matrix(-1, 0, 0, -1),
                image(parse("x^12")), image(parse("h y^-6"))]
    for trial in range(300):
        tokens = ("x", "y^-1") if trial % 2 else ("x", "y", "x^-1", "y^-1")
        text = " ".join(rng.choice(tokens)
                        for _ in range(int(10 ** rng.uniform(0, 4.4))))
        matrices.append(image(parse(" ".join(
            (text,) * rng.choice((1, 2, 3, 6))))))
    bits = [max(abs(e) for e in m).bit_length() for m in matrices]
    assert min(bits) <= 4 and max(bits) > 10_000, (min(bits), max(bits))
    gcd_calls = 0

    def counted_gcd(*entries):
        nonlocal gcd_calls
        gcd_calls += 1
        return math.gcd(*entries)

    monkeypatch.setattr(homology, "gcd", counted_gcd)
    for m in matrices:
        assert homology.h1_from_image(m) == \
            pairwise_gcd_smith_normal_form(m.minus_identity()), m
    assert gcd_calls == len(matrices)


def test_word_layer_on_all_words_up_to_length_8(short_words):
    # image(w) == word.image on these words is checked, with the same words,
    # by test_chunked_fold_on_all_words_up_to_two_windows; here the values
    # read off the image are checked on the reference image.
    checked = 0
    for word in short_words:
        w = w_.BraidWord(word.letters)
        m = word.image
        assert permutation(w) == word.permutation, word.letters
        assert components(w) == word.permutation.cycle_count, word.letters
        assert components_from_image(m) == word.permutation.cycle_count, \
            word.letters
        (a, b), (c, d) = m.minus_identity()
        assert determinant_from_image(m) == abs(a * d - b * c), word.letters
        checked += 1
    assert checked == 87_381


def test_tree_product_matches_left_to_right_on_long_words(rng):
    for length in (1, 2, 3, 5, 64, 100, 1023, 1024, 1025, 4097, 10_000):
        for alphabet in (LETTERS, (w_.X, w_.Y)):
            letters = tuple(rng.choice(alphabet) for _ in range(length))
            assert image(w_.BraidWord(letters)) == slow_image(letters), length


def test_parabolic_invariant_matches_basis_completion_up_to_length_8(
        short_words):
    images = {word.image for word in short_words}
    parabolic = 0
    for m in images:
        if homology.trace_class(m).kind == homology.PARABOLIC:
            assert homology.parabolic_invariant(m) == \
                basis_parabolic_invariant(m), m
            parabolic += 1
        else:
            with pytest.raises(homology.NotParabolic):
                homology.parabolic_invariant(m)
    assert (len(images), parabolic) == (2284, 232)


def test_parabolic_invariant_matches_basis_completion_on_conjugates(rng):
    for _ in range(500):
        u = w_.word(rng.choice(LETTERS) for _ in range(rng.randint(0, 40)))
        d = rng.randint(-5, 5)
        m = rng.choice((1, -1)) * rng.randint(1, 10**rng.randint(0, 6))
        matrix = image(w_.conjugate(BraidWord((("h", d), ("y", m))), u))
        assert homology.parabolic_invariant(matrix) == \
            basis_parabolic_invariant(matrix) == ((-1) ** d, m), (u, d, m)


def assert_matrix_layer_matches_references(m, label):
    assert homology.h1_from_image(m) == \
        pairwise_gcd_smith_normal_form(m.minus_identity()), label
    trace_class = homology.trace_class(m)
    assert trace_class == branching_trace_class(m), label
    if trace_class.kind == homology.PARABOLIC:
        assert homology.parabolic_invariant(m) == \
            basis_parabolic_invariant(m), label
    return trace_class


def test_matrix_layer_matches_references_on_short_images(short_words):
    # Every image of a word of at most 8 letters, and h runs of both signs
    # and parities, a huge one among them: +-I.
    h_runs = (1, -1, 2, -2, 3, -4, 10**17 + 1)
    matrices = {word.image for word in short_words} | {
        image(BraidWord((("h", e),))) for e in h_runs}
    kinds = Counter(tuple(assert_matrix_layer_matches_references(m, m))
                    for m in matrices)
    assert kinds == {
        (homology.CENTRAL, 1): 1, (homology.CENTRAL, -1): 1,
        (homology.ELLIPTIC, 1): 118, (homology.ELLIPTIC, -1): 60,
        (homology.PARABOLIC, 1): 120, (homology.PARABOLIC, -1): 112,
        (homology.HYPERBOLIC, 1): 1320, (homology.HYPERBOLIC, -1): 552,
    }, kinds


def test_matrix_layer_matches_references_on_long_words(rng):
    for trial in range(40):
        length = 10**5 if trial < 2 else int(10 ** rng.uniform(0, 5))
        runs = [rng.choice(LETTERS) for _ in range(length)]
        if trial % 2:
            runs.insert(rng.randint(0, length), ("h", rng.randint(-3, 3)))
        assert_matrix_layer_matches_references(
            image(BraidWord(tuple(runs))), (trial, length))


def test_h1_from_image_multiplies_no_two_entries():
    # H1 takes its order from the trace, so no entry of m or of m - I is
    # multiplied by another: at the letter cap such a product costs more
    # than a tenth of a second.
    multiplications = 0

    class Counted(int):
        def __mul__(self, other):
            nonlocal multiplications
            multiplications += 1
            return int.__mul__(self, other)

        __rmul__ = __mul__

    for text in ("", "h", "y^3", "h^-1 x^5 y^-1", "x y^-1 " * 40):
        m = image(parse(text))
        counted = SL2Matrix(*map(Counted, tuple(m)))
        multiplications = 0
        h1 = homology.h1_from_image(counted)
        assert multiplications == 0, text
        assert h1 == pairwise_gcd_smith_normal_form(m.minus_identity()), text


def test_trace_class_and_image_fits_build_no_matrix(monkeypatch):
    # The trace class, the parabolic invariant and the central fit of
    # classify's image check read the entries: none of them builds -I or
    # (-1)^d I, whose constructor multiplies entries to check det = 1.
    forms = [Family2(d, 0) for d in (-3, -2, 0, 1)] + \
        [Family2(d, m) for d in (-1, 2) for m in (-7, 1)] + \
        [Family3(d, m) for d in (-1, 0) for m in (-1, -2, -3)] + \
        [Family1(d, a) for d in (-2, 1) for a in ((1,), (0, 4, 2))]
    checks = [(f, image(canonical_word(f))) for f in forms]
    # Each near a central image of d = 0: -I, and b = 0 or c = 0 alone.
    misfits = [image(parse(text)) for text in ("h", "y", "x^-2")]
    built = 0
    check = SL2Matrix._check

    def counted_check(matrix):
        nonlocal built
        built += 1
        check(matrix)

    monkeypatch.setattr(SL2Matrix, "_check", counted_check)
    for f, m in checks:
        if homology.trace_class(m).kind == homology.PARABOLIC:
            homology.parabolic_invariant(m)
        murasugi._check_image(f, m)
    for m in misfits:
        with pytest.raises(homology.InternalInconsistency):
            murasugi._check_image(Family2(0, 0), m)
    assert built == 0


def assert_runs_match_letters(w):
    """A run-stored word and the same letters stored one per run agree."""
    letters = BraidWord(w.letters)
    assert all(abs(e) == 1 and g != "h" for g, e in letters.runs)
    assert image(w) == image(letters) == slow_image(w.letters), w.runs
    assert classify(w) == classify(letters), w.runs
    assert psl2_normal_form(w) == psl2_normal_form(letters), w.runs
    assert components(w) == components(letters), w.runs
    assert permutation(w) == permutation(letters), w.runs
    assert exponent_sum(w) == exponent_sum(letters) == \
        sum(letter.sign for letter in w.letters), w.runs
    assert len(w) == len(letters) == len(w.letters), w.runs
    assert str(w) == str(letters), w.runs
    assert inverse(w).letters == inverse(letters).letters, w.runs
    assert w == letters and hash(w) == hash(letters), w.runs


def test_runs_match_letters_on_all_words_of_three_tokens():
    tokens = [(g, e) for g in "xyh" for e in (1, -1, 2, -2, 3, -3)]
    checked = 0
    for count in range(4):
        for runs in itertools.product(tokens, repeat=count):
            assert_runs_match_letters(BraidWord(runs))
            checked += 1
    assert checked == 1 + 18 + 18**2 + 18**3


def test_zero_runs_are_the_empty_word():
    # A run of exponent 0 anywhere, first on the empty syllable stack
    # among the places, is the empty word to every stage, and run_text
    # writes nothing for it.
    tokens = [*LETTERS, ("x", 2), ("y", -3), ("h", 1), ("h", -1), ("x", 0),
              ("y", 0)]
    checked = 0
    for count in range(5):
        for runs in itertools.product(tokens, repeat=count):
            w = BraidWord(runs)
            assert_runs_match_letters(w)
            assert is_conjugate(w, BraidWord(w.letters)), runs
            text = w_.run_text(w)
            assert parse(text) == w and "^0" not in text, (runs, text)
            if all(g != "h" for g, _ in runs):
                assert text == str(w), (runs, text)
            checked += 1
    assert checked == 11_111


def test_runs_match_letters_on_long_words(rng):
    for _ in range(4):
        runs = []
        while sum(6 * abs(e) if g == "h" else abs(e) for g, e in runs) < 10**4:
            runs.append((rng.choice("xxxyyyh"),
                         rng.choice((1, -1)) * rng.randint(1, 50)))
        w = BraidWord(tuple(runs))
        assert_runs_match_letters(w)
        assert parse(" ".join(f"{g}^{e}" for g, e in runs)) == w


def assert_packed_fold_matches_references(w):
    """The image and the syllable pass against the letter-by-letter image
    and the per-syllable stack over the word's runs."""
    assert image(w) == slow_image(w.letters), w.runs
    stack, exponent_sum = per_syllable_stack(w.runs)
    assert murasugi._syllable_pass(w) == \
        (branching_cyclic_reduce(stack), exponent_sum), w.runs


def packed_window(byte):
    """The letters of a packed byte, the first in the top two bits."""
    return tuple(LETTERS[byte >> shift & 3]
                 for shift in range(2 * CHUNK - 2, -1, -2))


def byte_path_word(letters):
    """``parse`` of the letters spelled as unit tokens, which it reads on
    its byte path, checked to hold the packed fold input of its letters
    (``fold_letters``)."""
    w = parse(" ".join(map(TOKEN.__getitem__, letters)))
    assert "_digits" in vars(w), letters
    assert (w._windows, w._tail) == packed_keys(fold_letters(letters)), \
        letters
    return w


def test_window_table_lays_out_windows_as_fold_keys_packs_them():
    # Letters as one-letter tuples, multiplied by concatenation: each entry
    # is the window itself, which must pack to its own index.
    table = w_.window_table(lambda generator, sign: ((generator, sign),),
                            tuple.__add__, ())
    assert len(table) == 4 ** CHUNK == 256
    for byte, window in enumerate(table):
        assert len(window) == CHUNK, window
        w = byte_path_word(window)
        assert (w._windows, w._tail) == (bytes([byte]), ()), window
    # Words of 0 to 9 letters: a window per CHUNK letters, then the rest.
    for length in range(10):
        w = byte_path_word((LETTERS * 3)[:length])
        assert (len(w._windows), len(w._tail)) == divmod(len(w), CHUNK)


def test_chunk_tables_hold_the_product_of_their_letters():
    assert len(homology._CHUNK_ENTRIES) == len(murasugi._CHUNK_SYLLABLES) \
        == 4 ** CHUNK == 256
    windows = [packed_window(byte) for byte in range(256)]
    assert set(windows) == set(itertools.product(LETTERS, repeat=CHUNK))
    for byte, window in enumerate(windows):
        w = byte_path_word(window)
        assert (w._windows, w._tail) == (bytes([byte]), ()), window
        assert SL2Matrix(*homology._CHUNK_ENTRIES[byte]) == \
            slow_image(window), window
        entry = murasugi._CHUNK_SYLLABLES[byte]
        assert entry[:2] == per_syllable_stack(window), window
        assert entry[2:] == end_kinds(entry[0]), window
    # Each tail-run factor holds its ends' kinds too.
    for run in (("x", 3), ("x", -2), ("y", 1), ("y", -5), ("h", 2)):
        factor = murasugi._run_syllables(*run)
        assert factor[:2] == per_syllable_stack((run,)), run
        assert factor[2:] == end_kinds(factor[0]), run
    empty = {window for window, (syllables, *_) in
             zip(windows, murasugi._CHUNK_SYLLABLES) if not syllables}
    assert len(empty) == 28
    assert (w_.X, w_.X_INV, w_.Y, w_.Y_INV) in empty
    assert empty == {window for window in windows
                     if not free_reduce(BraidWord(window)).runs}


def test_chunked_fold_on_all_words_up_to_two_windows(short_words):
    # Every word of at most two windows, built from its letters and read on
    # parse's byte path, through the chunk tables.
    assert len(short_words[-1].letters) == 2 * CHUNK
    checked = 0
    for word in short_words:
        expected = branching_cyclic_reduce(word.stack), word.exponent_sum
        for w in (BraidWord(word.letters), byte_path_word(word.letters)):
            assert image(w) == word.image, word.letters
            assert murasugi._syllable_pass(w) == expected, word.letters
        checked += 1
    assert checked == 87_381


def test_chunked_fold_on_all_words_of_five_tokens():
    tokens = [*LETTERS, ("h", 1), ("y", -3)]
    checked = 0
    for count in range(6):
        for runs in itertools.product(tokens, repeat=count):
            assert_packed_fold_matches_references(BraidWord(runs))
            checked += 1
    assert checked == sum(6 ** count for count in range(6))


@pytest.mark.parametrize("alphabet", [LETTERS, (w_.X, w_.Y), (w_.X, w_.Y_INV)],
                         ids=["uniform", "positive", "alternating"])
def test_chunked_fold_on_long_words_with_power_runs(rng, alphabet):
    for length in (10, 11, 97, 1000, 10_000):
        runs = [rng.choice(alphabet) for _ in range(length)]
        # The letters alone on the byte path: every window and the 0 to
        # CHUNK - 1 letters left go through the chunk tables.
        assert_packed_fold_matches_references(byte_path_word(runs))
        for _ in range(rng.randint(1, 12)):
            power = (rng.choice("xyh"), rng.choice((1, -1)) * rng.randint(1, 7))
            runs.insert(rng.randint(0, len(runs)), power)
        assert_packed_fold_matches_references(BraidWord(tuple(runs)))


def test_byte_merge_matches_the_per_kind_merge(rng):
    # Runs of 40 letters against their inverses cancel 80 syllables in one
    # merge; the reduced products are then cyclically reduced both ways.
    tokens = [*LETTERS, ("x", 40), ("x", -40), ("y", 40), ("y", -40)]
    for _ in range(2000):
        left, right = (tuple(rng.choice(tokens)
                             for _ in range(rng.randint(0, 4)))
                       for _ in range(2))
        product = per_syllable_stack(left + right)[0]
        # The fold's merge returns the factor's weight, and the product of
        # the two factors holds the kinds of its ends.
        folded = bytearray(per_syllable_stack(left)[0])
        left_factor, factor = ((*stack, *end_kinds(stack[0])) for stack in
                               map(per_syllable_stack, (left, right)))
        assert murasugi._fold_syllables(folded, [factor]) == factor[1]
        assert folded == product, (left, right)
        assert murasugi._reduced_product(left_factor, factor) == (
            product, left_factor[1] + factor[1], *end_kinds(product)), \
            (left, right)
        assert murasugi._cyclic_reduce(product) == \
            branching_cyclic_reduce(product), (left, right)


def test_deep_cascades_unwind_the_whole_stack(rng):
    # u u^-1 unwinds every syllable that u pushed, window by window, and
    # u x u^-1 every one but x's.  The cyclic reduction of the conjugate may
    # leave a rotation of x's syllables, so the forms are compared.
    u = [rng.choice(LETTERS) for _ in range(10_000)]
    u_inv = [letter.inverse() for letter in reversed(u)]
    w = byte_path_word(u + u_inv)
    assert murasugi._syllable_pass(w) == (b"", 0)
    assert_packed_fold_matches_references(w)
    for x in ((w_.X, w_.Y_INV, w_.X, w_.Y_INV, w_.Y_INV, w_.Y_INV),
              (w_.X_INV, w_.X_INV, w_.Y_INV), (w_.Y,) * 5,
              tuple(rng.choice(LETTERS) for _ in range(37))):
        conjugate = byte_path_word(u + list(x) + u_inv)
        assert classify(conjugate) == classify(byte_path_word(x)), x
        assert_packed_fold_matches_references(conjugate)


def syllable_pass_calls(w):
    """The Python calls, profile events of kind "call", that
    ``murasugi._syllable_pass(w)`` makes, itself included."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        murasugi._syllable_pass(w)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("alphabet", [LETTERS, (w_.X, w_.Y)],
                         ids=["uniform", "positive"])
def test_syllable_pass_makes_no_python_call_per_window(rng, alphabet):
    # Lengths divisible by CHUNK leave no tail of their own, so every factor
    # is a window or, past the cancelling passes, one of the 0 to CHUNK - 1
    # tail letters, a call each; a call per merging window would grow with
    # the length.
    words = [byte_path_word([rng.choice(alphabet) for _ in range(length)])
             for length in (40, 40_000)]
    counts = [syllable_pass_calls(w) - len(w._tail) for w in words]
    assert counts[0] == counts[1] > 0, counts


def test_canonical_word_expands_to_the_old_model_word():
    for d in range(-5, 6):
        forms = [Family1(d, a) for a in ((1,), (0, 2), (3, 1, 0))]
        forms += [Family2(d, m) for m in range(-3, 4)]
        forms += [Family3(d, m) for m in (-1, -2, -3)]
        for f in forms:
            model = canonical_word(f)
            assert model.letters == model_letters(f), f
            assert len(model) == len(model.letters), f
            assert sum(1 for g, _ in model.runs if g == "h") == (d != 0), f


def test_mirror_form_shifts_d_by_the_twist_power():
    tails = [Family1(0, (1, 3)), Family1(0, (2,)), Family2(0, 4),
             Family2(0, -1), Family2(0, 0), Family3(0, -1), Family3(0, -2),
             Family3(0, -3)]
    for big in (10**17, -10**17):
        for f in tails:
            shifted = type(f)(big, f.a if isinstance(f, Family1) else f.m)
            mirror = mirror_form(f)
            expected = type(mirror)(
                mirror.d - big,
                mirror.a if isinstance(mirror, Family1) else mirror.m)
            assert mirror_form(shifted) == expected, (big, f)


def test_huge_twist_power_is_classified_from_one_run():
    w = parse("h^100000000000000000 x y^-3 x y^-1")
    assert w.runs[0] == ("h", 10**17)
    assert analyze_word(w, raw_text="").normal_form == Family1(10**17, (1, 3))


def assert_mirror_matches_round_trip(f):
    mirror = mirror_form(f)
    assert mirror == slow_mirror_form(f), f
    assert mirror_form(mirror) == f, f


def test_mirror_form_matches_round_trip_on_short_forms():
    checked = 0
    for d in range(-2, 3):
        forms = [Family2(d, m) for m in range(-6, 7)]
        forms += [Family3(d, m) for m in (-1, -2, -3)]
        forms += [Family1(d, a) for n in range(1, 6)
                  for a in itertools.product(range(4), repeat=n) if any(a)]
        for f in forms:
            assert_mirror_matches_round_trip(f)
            checked += 1
    assert checked == 5 * (13 + 3 + sum(4**n - 1 for n in range(1, 6)))


def test_mirror_form_matches_round_trip_on_long_tuples(rng):
    for _ in range(50):
        a = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 400)))
        assert_mirror_matches_round_trip(
            Family1(rng.randint(-10**6, 10**6), a + (1,)))


def test_surgery_rows_match_their_branches():
    for tag in (RIGHT_TREFOIL_LIKE, LEFT_TREFOIL_LIKE, FIGURE_EIGHT_LIKE):
        for n in (*range(-50, 51), -10**17, 10**17):
            assert surgery_table(tag, n) == per_branch_surgery_table(tag, n), \
                (tag, n)


def assert_closed_forms_match_model_word(f):
    """Each value the report reads off the form equals the one the model
    word, the Floer module or the per-family formulas gave."""
    model = canonical_word(f)
    assert form_determinant(f) == homology.determinant(model), f
    assert is_tight_inverse(f) == is_tight(mirror_form(f)), f
    assert stein_report(f).dehn_twist_count_bound == exponent_sum(model), f
    try:
        tag, n, q = per_family_assembly(f)
    except PositiveB1:
        with pytest.raises(PositiveB1):
            floer._quarter_assembly(f)
        with pytest.raises(PositiveB1):
            correction_term(f)
    else:
        quarter_tag, quarter_n, k = floer._quarter_assembly(f)
        assert (quarter_tag, quarter_n, Fraction(k, 4)) == (tag, n, q), f
        module = shift(per_branch_surgery_table(tag, n), q)
        assert hf_plus_s0(f) == module, f
        assert correction_term(f) == min(module.towers), f
    try:
        expected = per_family_delta(f)
    except FamilyNotCovered:
        with pytest.raises(FamilyNotCovered):
            delta(f, 1)
    else:
        assert delta(f, 1) == expected, f
    if isinstance(f, Family1):
        old_signature = -len(f.a) - 4 * f.d + sum(f.a)
        assert signature(f, 1) == old_signature, f
        assert (finite_order_screen(f, 1) == PASS) == \
            (f.d in (-1, 0, 1) and old_signature == 0), f


def test_closed_forms_match_model_word_on_short_forms():
    forms = all_forms(range(-6, 7), 4)
    assert len(forms) == 3094
    for f in forms:
        assert_closed_forms_match_model_word(f)


def test_closed_forms_match_model_word_on_random_forms(rng):
    for _ in range(50):
        d = rng.randint(-10**17, 10**17)
        a = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 400)))
        for f in (Family1(d, a if any(a) else a + (1,)),
                  Family2(d, rng.randint(-10**6, 10**6)),
                  Family3(d, rng.choice((-1, -2, -3)))):
            assert_closed_forms_match_model_word(f)


def test_closed_forms_match_model_word_on_mid_range_twist_powers():
    # Between the box's |d| <= 6 and the random |d| near 10^17, with one
    # tuple longer than the random ones.
    long_tail = tuple(i * 7 % 5 for i in range(457))
    tails = [Family1(0, a) for a in ((1,), (0, 2), (3, 1, 0, 2), long_tail)]
    tails += [Family2(0, m) for m in (-3, 0, 5)]
    tails += [Family3(0, m) for m in (-1, -2, -3)]
    for d in range(-40, 41):
        for tail in tails:
            f = type(tail)(d, tail.a if isinstance(tail, Family1) else tail.m)
            assert_closed_forms_match_model_word(f)
            assert_report_matches_per_value_and_old_path(f)


def assert_form_determinant_matches_the_model_image(f):
    """|2 - tr| of the model word's image, multiplied out letter by
    letter."""
    assert form_determinant(f) == \
        abs(2 - slow_image(model_letters(f)).trace), f


def test_form_determinant_matches_sequential_fold_on_short_tuples():
    assert homology._balanced_product(()) == (1, 0, 0, 1)
    checked = 0
    for n in range(1, 7):
        for a in itertools.product(range(4), repeat=n):
            for d in (0, 1):
                assert_form_determinant_matches_the_model_image(Family1(d, a))
            checked += 1
    assert checked == 4 + 4**2 + 4**3 + 4**4 + 4**5 + 4**6


def test_form_determinant_matches_sequential_fold_on_long_tuples(rng):
    for n in (7, 8, 9, 63, 64, 65, 1000, 4097, 10**4):
        a = tuple(rng.randint(0, 3) for _ in range(n))
        assert_form_determinant_matches_the_model_image(
            Family1(rng.randint(-10, 10), a))


@pytest.fixture
def product_bits(monkeypatch):
    """Each call of ``homology._product``, logged as the larger operand's
    largest entry bit length."""
    bits = []
    product = homology._product

    def logged(m, n):
        bits.append(max(abs(e).bit_length() for e in (*m, *n)))
        return product(m, n)

    monkeypatch.setattr(homology, "_product", logged)
    return bits


def assert_balanced(bits, factors):
    """n factors take n - 1 products.  Balanced, each of the log2 n levels
    sums to about half the bits of the whole product, which stays under
    n log2 n at a few bits per factor; a left-to-right fold sums about
    n^2 / 2 times the bits per factor.  At 4,096 family-1 blocks of
    [[2, 1], [1, 1]] that is 35,756 bits against 11,644,741."""
    assert len(bits) == factors - 1
    assert sum(bits) <= factors * math.log2(factors)


def test_image_reduces_the_fold_keys_level_by_level(product_bits, rng):
    letters = tuple(rng.choice((w_.X, w_.Y)) for _ in range(16_384))
    w = byte_path_word(letters)
    factors = len(w._windows) + len(w._tail)
    assert factors == 16_384 // CHUNK
    assert image(w) == slow_image(letters)
    assert_balanced(product_bits, factors)


def test_matrix_product_is_the_one_product(product_bits):
    x, y = image(parse("x")), image(parse("y"))
    for m, n, expected in ((homology.IDENTITY, homology.IDENTITY,
                            SL2Matrix(1, 0, 0, 1)),
                           (x, y, SL2Matrix(0, 1, -1, 1))):
        product_bits.clear()
        assert m * n == expected
        assert len(product_bits) == 1


def test_form_determinant_reduces_the_blocks_level_by_level(product_bits):
    f = Family1(0, (1,) * 4096)
    determinant = form_determinant(f)
    assert_balanced(product_bits, 4096)
    assert determinant == slow_image(model_letters(f)).trace - 2


def assert_same_module(module, expected):
    """Identical field tuples, down to the type of each rank and grading."""
    assert (module.towers, module.frees, module.absolute) == \
        (expected.towers, expected.frees, expected.absolute)
    assert [type(g) for g in module.towers] == \
        [type(g) for g in expected.towers]
    assert [(type(r), type(g)) for r, g in module.frees] == \
        [(type(r), type(g)) for r, g in expected.frees]


def assert_normal(module):
    """A module built without renormalising is what the public constructor
    makes of its own parts, with ints for ranks and Fractions for gradings."""
    assert_same_module(
        GradedModule(module.towers, module.frees, module.absolute), module)
    assert all(type(g) is Fraction for g in module.towers)
    assert all(type(rank) is int and type(g) is Fraction
               for rank, g in module.frees)


def assert_report_matches_per_value_and_old_path(f):
    """Each report field equals the public function of that value, and the
    report's modules equal the per-branch rows shifted and renormalised."""
    report = analyze_word(canonical_word(f), raw_text="",
                          include_torus_bundle=True)
    assert report.normal_form == f
    components = report.components
    assert report.l_space == floer.is_l_space(f), f
    assert report.tight == is_tight(f), f
    assert report.tight_inverse == is_tight_inverse(f), f
    assert report.knot_type_tag == floer.knot_type(f), f
    assert report.stein == stein_report(f), f
    assert report.finite_order_screen == \
        finite_order_screen(f, components), f
    if components == 1:
        assert report.delta == delta(f, 1), f
        if isinstance(f, Family1):
            assert report.signature == signature(f, 1), f
    else:
        assert report.delta is report.signature is None, f
        with pytest.raises(NotAKnot):
            delta(f, components)
    if not report.determinant:
        assert report.hf_plus_s0 is report.correction_term is None, f
        assert report.torus_bundle is None, f
        with pytest.raises(PositiveB1):
            hf_plus_s0(f)
        with pytest.raises(B1NotOne):
            torus_bundle_hf(f)
        return
    module, bundle = report.hf_plus_s0, report.torus_bundle
    assert_same_module(module, hf_plus_s0(f))
    assert report.correction_term == correction_term(f) == module.towers[0]
    assert type(report.correction_term) is Fraction, f
    public_bundle = torus_bundle_hf(f)
    assert bundle == public_bundle, f
    assert_same_module(bundle.s0, public_bundle.s0)
    for carried in (module, bundle.s0, bundle.non_s0_relative):
        assert_normal(carried)
    tag, n, q = per_family_assembly(f)
    assert_same_module(
        module, renormalised_shift(per_branch_surgery_table(tag, n), q))
    assert_same_module(
        bundle.s0, renormalised_shift(FRACTION_ZERO_SURGERY_ROWS[tag], q))


def test_report_matches_per_value_and_old_path_on_short_forms():
    forms = all_forms(range(-6, 7), 4)
    assert len(forms) == 3094
    for f in forms:
        assert_report_matches_per_value_and_old_path(f)


def test_report_matches_per_value_and_old_path_on_random_forms(rng):
    for _ in range(50):
        d = rng.randint(-10**17, 10**17)
        a = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 400)))
        for f in (Family1(d, a if any(a) else a + (1,)),
                  Family2(d, rng.randint(-10**6, 10**6)),
                  Family3(d, rng.choice((-1, -2, -3)))):
            assert_report_matches_per_value_and_old_path(f)


def test_zero_surgery_rows_match_their_fraction_modules():
    for tag, module in FRACTION_ZERO_SURGERY_ROWS.items():
        assert_same_module(floer.zero_surgery_table(tag), module)
        assert_normal(floer.zero_surgery_table(tag))
        for k in range(-9, 10):
            shifted = floer._graded_module(floer._zero_row_quarters(tag, k))
            assert_same_module(shifted,
                               renormalised_shift(module, Fraction(k, 4)))


@pytest.fixture
def no_digit_limit():
    """No int-to-str digit limit while the test runs, so that the
    reference encoder can print huge integers; the previous limit is
    restored afterwards."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(previous)


def assert_writer_matches_encoder(record, oracle=None):
    assert cli._line(record, oracle) == \
        encoder_json_line(invariants._report(record), oracle), record


def test_writer_matches_encoder_on_short_forms_and_words(short_words,
                                                        no_digit_limit):
    for f in all_forms(range(-6, 7), 4):
        for torus in (False, True):
            assert_writer_matches_encoder(
                analyze_word(canonical_word(f), include_torus_bundle=torus,
                             _record=True))
    # Every word of at most 5 letters, with its real oracle block: split
    # closures get an error record, the others an agreeing verdict.
    verdicts = set()
    for word in short_words:
        if len(word.letters) > 5:
            break
        w = w_.word(word.letters)
        record = analyze_word(w, include_torus_bundle=True, _record=True)
        oracle = cli._oracle(w, record)
        verdicts.add(oracle.get("agrees", "error"))
        assert_writer_matches_encoder(record, oracle)
    assert verdicts == {True, "error"}
    # Family-1 entries at the edges of the writer's decimal table, which
    # holds 0-255: 0, 255, 256 and one far past it.
    for text in ("x y^-255", "x y^-256 x", "x y^-100000 x y^-3 x"):
        for torus in (False, True):
            assert_writer_matches_encoder(
                analyze_word(parse(text), include_torus_bundle=torus,
                             _record=True))


# Word characters that JSON escapes: a quote, a backslash, a control
# character, non-ASCII whitespace and a character outside the BMP.
AWKWARD_CHARACTERS = '"\\\x1c\u2003\u00e9\U0001f600 x'


def random_int(rng):
    """Mostly small, one in twenty of more than 4,300 digits, either
    sign."""
    bits = 20_000 if rng.random() < 0.05 else rng.choice((3, 40, 200))
    return rng.choice((1, -1)) * rng.getrandbits(bits)


def random_module(rng):
    """A quarter module: every grading a count of quarters, of each
    residue mod 4."""
    grading = lambda: rng.randint(-160, 160)
    return (tuple(grading() for _ in range(rng.randint(0, 3))),
            tuple((rng.randint(1, 5), grading())
                  for _ in range(rng.randint(0, 3))),
            rng.random() < 0.5)


def random_record(rng, base):
    """The values record ``base`` with random values, each field drawn on
    its own and every optional field present or absent at random."""
    maybe = lambda value: value if rng.random() < 0.5 else None
    form = rng.choice((
        Family1(random_int(rng), tuple(rng.choice((0, 1, 7, 255, 256, 10**9))
                                       for _ in range(rng.randint(1, 8)))),
        Family2(random_int(rng), random_int(rng)),
        Family3(random_int(rng), rng.choice((-1, -2, -3)))))
    g = abs(random_int(rng)) + 2
    torsion = rng.choice(((), (g,), (g, g * (abs(random_int(rng)) + 1))))
    determinant = random_int(rng)
    stein = (rng.random() < 0.5, rng.random() < 0.5,
             rng.choice(("No", "Unknown", "Constrained")),
             maybe(random_int(rng)), random_int(rng))
    bundle = (random_module(rng), random_int(rng), random_module(rng),
              rng.random() < 0.5)
    return base._replace(
        word="".join(rng.choice(AWKWARD_CHARACTERS)
                     for _ in range(rng.randint(0, 12))),
        normal_form=form,
        components=rng.randint(1, 3),
        determinant=determinant,
        h1=AbelianGroup(rng.randint(0, 2), torsion),
        b1=rng.randint(0, 2),
        l_space=rng.random() < 0.5,
        tight=rng.random() < 0.5,
        tight_inverse=rng.random() < 0.5,
        knot_type_tag=rng.choice(("right trefoil", 'a "tag"\u2003')),
        hf_plus_s0=maybe(random_module(rng)),
        spin_c_count=rng.choice((None, determinant, random_int(rng))),
        correction_quarters=maybe(random_int(rng)),
        delta_quarters=maybe(random_int(rng)),
        signature=maybe(random_int(rng)),
        qa=rng.random() < 0.5,
        finite_order_screen=rng.choice((PASS, "Fail", "NotAKnot")),
        stein=stein,
        torus_bundle=maybe(bundle),
    )


def test_writer_matches_encoder_on_random_reports(rng, no_digit_limit):
    base = analyze_word(parse("h x y^-5"), include_torus_bundle=True,
                        _record=True)
    oracles = (None, {"determinant": 9, "signature": -2, "agrees": True},
               {"determinant": -10**5000, "signature": 0, "agrees": False},
               {"error": 'split "closure"\u2003'})
    for _ in range(1000):
        assert_writer_matches_encoder(random_record(rng, base),
                                      rng.choice(oracles))


def test_writer_escapes_word_characters(capsys, no_digit_limit):
    # str.split splits at non-ASCII whitespace, so this is the word x y.
    assert cli.main(["analyze", "--json", "x\u2003y"]) == 0
    assert capsys.readouterr().out.startswith('{"word":"x\\u2003y",')
    record = analyze_word(parse("x y"), _record=True)
    for word in ('"', "\\", "\x1c", "\u2003", AWKWARD_CHARACTERS):
        assert_writer_matches_encoder(record._replace(word=word))


def assert_record_matches_reference(w, include_torus_bundle):
    """The public report, the report made from the values record, and the
    record's ``--json`` line all agree with the reference, down to the
    ``Fraction`` type of every grading."""
    expected = reference_analyze_word(w, include_torus_bundle=include_torus_bundle)
    record = analyze_word(w, include_torus_bundle=include_torus_bundle,
                          _record=True)
    for report in (invariants._report(record),
                   analyze_word(w, include_torus_bundle=include_torus_bundle)):
        assert report == expected, w.runs
        for value in (report.correction_term, report.delta):
            assert value is None or type(value) is Fraction, w.runs
        if report.hf_plus_s0 is not None:
            assert_same_module(report.hf_plus_s0, expected.hf_plus_s0)
        if report.torus_bundle is not None:
            for name in ("s0", "non_s0_relative"):
                assert_same_module(getattr(report.torus_bundle, name),
                                   getattr(expected.torus_bundle, name))
    assert cli._line(record, None) == \
        encoder_json_line(expected, None), w.runs


def test_record_matches_reference_on_every_word_of_five_tokens():
    tokens = [(g, e) for g in "xyh" for e in (1, -1)]
    checked = 0
    for count in range(6):
        for runs in itertools.product(tokens, repeat=count):
            w = parse(" ".join(g if e == 1 else f"{g}^-1" for g, e in runs))
            for torus in (False, True):
                assert_record_matches_reference(w, torus)
            checked += 1
    assert checked == sum(6**count for count in range(6))


def test_record_matches_reference_on_long_words_and_huge_twists(
        rng, no_digit_limit):
    for _ in range(20):
        length = rng.randint(200, 3000)
        w = parse(" ".join(rng.choice(("x", "y", "x^-1", "y^-1", "h^-1", "h"))
                           for _ in range(length)))
        assert_record_matches_reference(w, rng.random() < 0.5)
    for _ in range(30):
        d = rng.randint(-10**17, 10**17)
        a = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 60)))
        for f in (Family1(d, a if any(a) else a + (1,)),
                  Family2(d, rng.randint(-10**6, 10**6)),
                  Family3(d, rng.choice((-1, -2, -3)))):
            for torus in (False, True):
                assert_record_matches_reference(canonical_word(f), torus)


def test_quarter_text_writes_lowest_terms(no_digit_limit):
    # Every residue mod 4 with either sign, small counts and huge ones.
    for q in [*range(-80, 81),
              *(s * (2**k + r) for k in (10, 64, 200) for r in range(-5, 6)
                for s in (1, -1))]:
        fraction = Fraction(q, 4)
        assert cli._quarter_text(q) == \
            f'"num":{fraction.numerator},"den":{fraction.denominator}', q


def test_int_text_splits_down_to_bounded_leaves(monkeypatch, rng):
    # Leaves of at most _LEAF_BITS bits are what makes the conversion
    # subquadratic: Decimal(int) itself is quadratic.
    import decimal

    leaf_bits = []
    real = decimal.Decimal

    def counting_decimal(value):
        leaf_bits.append(value.bit_length())
        return real(value)

    monkeypatch.setattr(decimal, "Decimal", counting_decimal)
    n = rng.getrandbits(300_000)
    homology._int_text(n)
    assert max(leaf_bits) <= homology._LEAF_BITS
    assert sum(leaf_bits) <= n.bit_length() + homology._LEAF_BITS


def test_int_text_matches_str(rng, no_digit_limit):
    values = [0, -1, 1]
    for k in (1, 100, 640, 641, 4300, 4301, 4933, 10_000, 60_000):
        values += [10**k, 10**k - 1, 10**k + 1]
    split = homology._SPLIT_BITS
    for bits in (split - 1, split, split + 1, 2 * split, 2 * split + 1):
        values += [(1 << bits) - 1, 1 << bits, rng.getrandbits(bits)]
    for _ in range(40):
        values.append(rng.getrandbits(int(math.exp(rng.uniform(0, 12.6)))))
    values.append(rng.getrandbits(300_000))
    values += [-v for v in values]
    expected = [str(v) for v in values]
    # A digit limit as low as the interpreter allows: the conversion may
    # not lean on the caller lifting it.
    sys.set_int_max_str_digits(640)
    try:
        texts = [homology._int_text(v) for v in values]
    finally:
        sys.set_int_max_str_digits(0)
    for value, text, reference in zip(values, texts, expected):
        assert text == reference, value.bit_length()


PARSE_TOKENS = [base + suffix for base in ("x", "y", "s1", "s2", "h")
                for suffix in ("", "^1", "^-1", "^01", "^-0", "^2")]
PARSE_TOKENS += ["z", "x^", "x^+1", "x^\u00b2"]


def parse_outcome(parser, text):
    try:
        return parser(text).runs
    except ParseError as error:
        return type(error), error.position


def test_table_parse_matches_grammar_on_all_strings_of_three_tokens():
    def token_loop(text):
        return w_._parse_tokens(text.split())

    checked = 0
    for count in range(4):
        for tokens in itertools.product(PARSE_TOKENS, repeat=count):
            text = " ".join(tokens)
            expected = parse_outcome(grammar_parse, text)
            assert parse_outcome(parse, text) == expected, text
            assert parse_outcome(token_loop, text) == expected, text
            checked += 1
    assert checked == sum(34**n for n in range(4))


def test_parse_reads_only_tokens_outside_the_table_by_the_grammar(
        monkeypatch):
    calls = []
    exponent = w_._exponent

    def counting_exponent(*args):
        calls.append(args)
        return exponent(*args)

    monkeypatch.setattr(w_, "_exponent", counting_exponent)
    w = parse("x^-1 " * 1000 + "x^2")
    assert w.runs == (w_.X_INV,) * 1000 + (("x", 2),)
    assert calls == [("2", "x^2", 1001)]


def test_table_parse_keeps_the_letter_cap():
    assert len(parse("x " * MAX_LETTERS)) == MAX_LETTERS
    with pytest.raises(WordTooLong) as excinfo:
        parse("s2^-1 " * (MAX_LETTERS + 1))
    assert excinfo.value.position == MAX_LETTERS + 1


def assert_parse_matches_grammar(text):
    """``parse`` against the grammar on every token: the same error class,
    position and message, or a word whose length, hash, image, syllable
    pass, letters and runs are those of a word built from the grammar's
    runs, and whose fold input is its runs or, on the byte path, the
    packing of its ``fold_letters``.  All but the letters and runs are read
    first, while a word from the byte path holds no runs yet."""
    try:
        expected = BraidWord(grammar_parse(text).runs)
    except ParseError as error:
        expected = type(error), error.position, str(error)
    try:
        w = parse(text)
    except ParseError as error:
        assert (type(error), error.position, str(error)) == expected, text
        return
    assert isinstance(expected, BraidWord), text
    assert (w._windows, w._tail) == (
        packed_keys(fold_letters(expected.letters)) if "_digits" in vars(w)
        else (b"", expected.runs)), text
    assert len(w) == len(expected) and hash(w) == hash(expected), text
    assert image(w) == image(expected), text
    assert murasugi._syllable_pass(w) == murasugi._syllable_pass(expected), \
        text
    assert w.letters == expected.letters, text
    # free_reduce and _letter_blocks compare letters by identity.
    assert all(a is b for a, b in zip(w.letters, expected.letters)), text
    assert w.runs == expected.runs and w == expected, text


# The bytes of the four unit tokens, the two whitespace characters that
# only str.split splits on (\x1c, \xa0), and three letters off the byte
# path (X, s, h).
PARSE_CHARACTERS = "xy^-1 \t\x1c\xa0Xsh"


def test_byte_parse_matches_grammar_on_all_strings_of_five_characters():
    checked = 0
    for length in range(6):
        for characters in itertools.product(PARSE_CHARACTERS, repeat=length):
            assert_parse_matches_grammar("".join(characters))
            checked += 1
    assert checked == sum(12**n for n in range(6))


def test_byte_parse_matches_grammar_on_long_texts(rng):
    # Half the texts hold only the four unit tokens, between every kind of
    # ASCII whitespace; each of the others has one other spelling and one
    # other separator (or none) somewhere, which sends it to the grammar.
    units = ["x", "y", "x^-1", "y^-1"]
    others = ["s1", "s2^-1", "x^1", "y^2", "h^-3", "x^-1^-1", "xy", "X",
              "x^01", "y^-"]
    spaces = [" ", "\t", "\n", "\r", "\v", "\f", "  ", " \n"]
    for index in range(300):
        count = int(math.exp(rng.uniform(0, math.log(10**4))))
        tokens = [rng.choice(units) for _ in range(count)]
        separators = [rng.choice(spaces) for _ in range(count + 1)]
        if index % 2:
            tokens[rng.randrange(count)] = rng.choice(others)
            separators[rng.randrange(count + 1)] = rng.choice(
                spaces + ["\x1c", "\xa0", "\x85", ""])
        text = "".join(itertools.chain.from_iterable(
            zip(separators, tokens))) + separators[-1]
        assert_parse_matches_grammar(text)


def test_byte_parse_leaves_the_letter_cap_to_the_grammar():
    assert len(parse("x^-1\t" * MAX_LETTERS)) == MAX_LETTERS
    with pytest.raises(WordTooLong) as excinfo:
        parse("y^-1 " * (MAX_LETTERS + 1))
    assert excinfo.value.position == MAX_LETTERS + 1


def line_events(paths, action):
    """The line events that running ``action`` makes in the files
    ``paths``."""
    events = 0

    def trace(frame, event, arg):
        nonlocal events
        if frame.f_code.co_filename not in paths:
            return None
        events += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        action()
    finally:
        sys.settrace(previous)
    return events


def test_byte_parse_does_constant_python_work_per_word():
    def parse_length_and_keys(text):
        w = parse(text)
        len(w)
        w._windows, w._tail
        assert "runs" not in vars(w)  # len and the fold input build no runs

    # Every kind of ASCII whitespace, runs of it, and some at both ends.
    tokens = ["x", "y^-1", "y", "x^-1"]
    spaces = [" ", "\t", "\n  ", "\r\n", "\v", "\f"]
    texts = [" " + "".join(f"{tokens[i % 4]}{spaces[i % 6]}"
                           for i in range(length)) for length in (10, 10**5)]
    counts = [line_events({w_.__file__},
                          lambda: parse_length_and_keys(text))
              for text in texts]
    # Only the longer text is past CANCEL_CUT, so only its codes go through
    # the cancelling passes, whose own count is constant too (see
    # test_cancelling_passes_do_constant_python_work_on_nested_words).
    passes = [line_events({w_.__file__}, functools.partial(
        w_._fold_digits, w_._unit_letter_digits(text))) for text in texts]
    assert passes[0] < passes[1]
    assert counts[0] - passes[0] == counts[1] - passes[1] > 0


def code_letters(digits):
    """The letters of ASCII letter codes, as ``words.CODE_DIGITS`` reads
    them."""
    return tuple(LETTERS[digit - ord("0")] for digit in digits)


def test_cancelling_pass_matches_the_letter_pass_on_every_short_word(
        short_words):
    # One pass on every code string of at most 8 letters.  A second pass
    # reads what the first left, another of these strings, so the stack
    # free reduction of two passes is checked against the word's own.
    checked = 0
    for word in short_words:
        digits = bytes(map(CODE_DIGIT.__getitem__, word.letters))
        passed = w_._cancel_pairs(digits)
        expected = cancelling_pass(word.letters)
        assert code_letters(passed) == expected, word.letters
        # A pass that deletes nothing returns its input itself.
        assert (passed is digits) == (len(expected) == len(digits)), \
            word.letters
        assert attribute_free_reduce(code_letters(
            w_._cancel_pairs(passed))) == word.reduced, word.letters
        # Below CANCEL_CUT the byte path packs the codes as they are.
        assert w_._fold_digits(digits) is digits
        checked += 1
    assert checked == 87_381


def test_cancelling_passes_match_the_letter_passes_on_long_words(rng):
    # Uniform words on both sides of the cut and past it, words that
    # alternate a letter and its inverse in runs, and words of one sign,
    # which the passes leave alone.
    cases = [[rng.choice(LETTERS) for _ in range(length)]
             for length in (255, 256, 257, 1000, 10_000)]
    for _ in range(20):
        letters = []
        while len(letters) < 2000:
            a = rng.choice(LETTERS)
            letters += [a, a.inverse()] * rng.randint(1, 5) + \
                [a] * rng.randint(0, 2)
        cases.append(letters)
    cases += [[rng.choice(alphabet) for _ in range(1000)] for alphabet in
              ((w_.X, w_.Y), (w_.X_INV, w_.Y_INV))]
    for letters in cases:
        # byte_path_word checks the fold input against fold_letters.
        w = byte_path_word(letters)
        assert attribute_free_reduce(code_letters(w_._fold_digits(
            w._digits))) == code_letters(w_.reduced_digits(w)), letters


def test_cancelling_passes_do_constant_python_work_on_nested_words():
    # x^k x^-k, spelled as unit tokens, cancels one pair a pass, at the
    # middle: passes run until nothing cancels would make k of them, each
    # over all the letters.
    counts = []
    for k in (10**3, 10**4):
        text = "x " * k + "x^-1 " * k
        counts.append(line_events({w_.__file__}, functools.partial(
            parse, text)))
        w = parse(text)
        assert (len(w), len(w._windows) * CHUNK + len(w._tail)) == \
            (2 * k, 2 * k - 2 * w_.CANCEL_PASSES)
    assert counts[0] == counts[1] > 0


def test_analyze_reads_the_fold_input_through_no_cached_property(capsys):
    # The fold input is two plain fields on a word built from runs and on
    # one read on parse's byte path alike.
    getter = functools.cached_property.__get__.__code__
    for text in ("h^-3000 x^-2 y^-1", "x y^-1 x^-1 y x"):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code is getter

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            code = cli.main(["analyze", "--json", "--torus-bundle", text])
        finally:
            sys.setprofile(previous)
        assert code == 0 and calls == 0, text
    assert capsys.readouterr().out.count("\n") == 2


def test_report_builds_no_runs_of_a_byte_parsed_word(rng):
    text = " ".join(rng.choice(("x", "y", "x^-1", "y^-1"))
                    for _ in range(5000))
    w = parse(text)
    record = analyze_word(w, raw_text=text, _record=True)
    assert "runs" not in vars(w)
    assert record == analyze_word(BraidWord(w.runs), raw_text=text,
                                  _record=True)


def test_run_text_matches_groupby_on_random_words(rng):
    # Few kinds of run, so that equal generators and signs meet often: h
    # runs of both signs next to each other, and power runs among letters.
    runs = [*LETTERS, ("x", 3), ("x", -2), ("y", 5), ("y", -4),
            ("h", 1), ("h", -1), ("h", 2), ("h", -10**18)]
    assert w_.run_text(BraidWord()) == groupby_run_text(BraidWord()) == ""
    for _ in range(2000):
        w = BraidWord(tuple(rng.choice(runs)
                            for _ in range(rng.randint(0, 30))))
        assert w_.run_text(w) == groupby_run_text(w), w.runs


def test_line_writes_a_huge_non_s0_count_from_the_determinant(
        capsys, no_digit_limit):
    text = "x y^-1 " * 15000
    sys.set_int_max_str_digits(640)
    try:
        assert cli.main(["analyze", "--json", "--torus-bundle", text]) == 0
    finally:
        sys.set_int_max_str_digits(0)
    record = json.loads(capsys.readouterr().out)
    assert record["determinant"] >= 1 << homology._SPLIT_BITS
    assert record["torus_bundle"]["non_s0_count"] == record["determinant"] - 1


def assert_oracle_matches_references(w, expected=None):
    """The oracle on a reduced diagram that uses both columns, against its
    two references.  V + V^T of the pair loop, in crossing order and
    eliminated over the rationals, gives the closure's signature and |det|,
    and so does the Goeritz form of either column's shading: sign(G) - mu
    and |det G| (Gordon-Litherland).  The oracle reads the Goeritz rows and
    mu of the column with fewer crossings, x on a tie, which
    ``oracle_reference`` (or ``expected``) eliminates, and from them that
    signature and |det|."""
    if expected is None:
        expected = oracle_reference(w)
    entries, generators = pair_loop_seifert(w)
    rows = dense_crossing_rows(entries, generators)
    size = len(rows)
    signature, det = rational_form(rows)
    det = abs(det)
    assert (expected.signature, expected.determinant) == (signature, det), w
    # The other column's shading.
    xs = sum(letter.generator == "x" for letter in w)
    goeritz, mu = tait_goeritz(w, "y" if 2 * xs <= len(w) else "x")
    other_signature, other_det = rational_form(goeritz)
    assert other_signature - mu == signature, w
    assert abs(other_det) == det, w

    matrix = seifert_matrix(w)
    assert matrix.rows == expected.rows, w
    assert matrix.mu == expected.mu, w
    assert matrix.size == len(w) - 2 == size, w
    assert sym_signature(matrix) == signature, w
    assert sym_determinant(matrix) == det, w
    assert all(type(value) is int for value in matrix._values), w


def test_oracle_matches_old_code_on_all_short_diagrams(short_diagrams):
    # Every non-split word of 2-8 letters reduces to one of these.
    checked = 0
    for letters, expected in short_diagrams.items():
        assert_oracle_matches_references(BraidWord(letters), expected)
        checked += 1
    assert checked == 13_088


@pytest.mark.parametrize("alphabet", [LETTERS, (w_.X, w_.Y), (w_.X, w_.Y_INV)],
                         ids=["uniform", "positive", "alternating"])
def test_oracle_matches_old_code_on_long_words(rng, alphabet):
    for length in (10, 40, 200, 700, 2000):
        reduced = free_reduce(BraidWord(
            tuple(rng.choice(alphabet) for _ in range(length))))
        if {letter.generator for letter in reduced} == {"x", "y"}:
            assert_oracle_matches_references(reduced)


def test_seifert_pass_makes_linearly_many_steps():
    # In y^m x^m y^m x^m a pass that finds a crossing's region by counting
    # the x crossings before it, or that builds each row by scanning the
    # crossings, takes about m steps per crossing.  Counting the lines run
    # in the seifert module, not time, keeps the test exact: the words at m
    # and 2m have the same shape, so a linear pass takes at most twice the
    # steps.
    def count(m):
        word = parse(f"y^{m} x^{m} y^{m} x^{m}")
        matrices = []
        steps = line_events({seifert_module.__file__},
                            lambda: matrices.append(seifert_matrix(word)))
        assert len(matrices[0].rows) == 2 * m
        return steps

    small, large = count(250), count(500)
    assert small > 1000
    assert large <= 2 * small, (small, large)


def cyclic_form(links, diagonal):
    """The sparse rows of the cyclic tridiagonal form with the given
    diagonal, to which link r adds its sign between rows r - 1 and r
    (mod p), as cut crossing r does in the oracle."""
    p = len(diagonal)
    rows = [{r: a} for r, a in enumerate(diagonal)]
    if p > 1:
        for r, sign in enumerate(links):
            rows[r - 1][r] = rows[r][r - 1] = rows[r].get(r - 1, 0) + sign
    return [{j % p: x for j, x in row.items()} for row in rows]


def test_recurrence_matches_the_elimination_on_every_small_cyclic_form():
    # Every cyclic tridiagonal form of at most 5 rows with links +-1 and
    # diagonal -3..3, fed to the recurrence as the region sums that give
    # that diagonal.  A diagonal congruence by +-1 changes the links but
    # not their product, and a rotation of the rows changes neither, so the
    # elimination runs once per rotation class of the diagonal and product
    # (with p = 2, per link sum); the recurrence runs on every diagonal and
    # every sign pattern of the links.  The leading minor of order p - 1,
    # read once per first p - 1 diagonal entries, sorts the forms by the
    # signature's three branches: det G != 0; det G = 0 and D_(p-1) != 0;
    # both zero.
    branches = Counter()
    values, leading_zero = {}, {}
    for p in range(1, 6):
        patterns = [(list(links), sum(links) if p == 2 else prod(links),
                     [links[r] + links[(r + 1) % p] if p > 1 else 0
                      for r in range(p)])
                    for links in itertools.product((1, -1), repeat=p)]
        for diagonal in itertools.product(range(-3, 4), repeat=p):
            head = diagonal[:p - 1]
            if head not in leading_zero:
                leading = [{j: x for j, x in row.items() if j < p - 1}
                           for row in cyclic_form((1,) * p, diagonal)[:p - 1]]
                leading_zero[head] = 0 in fraction_pivots(leading)
            turn = min(diagonal[i:] + diagonal[:i] for i in range(p))
            expected = {}
            for links, key, touching in patterns:
                if key not in expected:
                    if (turn, key) not in values:
                        signature, det = rational_form(cyclic_form(links,
                                                                   turn))
                        values[turn, key] = det, signature
                    expected[key] = det, signature = values[turn, key]
                    branches[p, "det" if det else "last" if leading_zero[head]
                             else "leading"] += 1
                sums = list(map(add, diagonal, touching))
                assert seifert_module._determinant_and_signature(
                    links, sums) == expected[key], (links, diagonal)
    for branch in ("det", "leading", "last"):
        assert all(branches[p, branch] for p in range(2, 6)), branches
    assert branches[1, "last"] == 0


def test_recurrence_makes_linearly_many_multiplications(capsys):
    # At p = 3,000 rows a recurrence that recomputed each path minor from
    # D_0 would make about 4.5 million multiplications; one that steps
    # once per row makes about 2p.  Counting multiplications, not time,
    # keeps the test exact: each arithmetic result of a counted int is one.
    multiplications = 0

    class Counted(int):
        def __mul__(self, other):
            nonlocal multiplications
            multiplications += 1
            return Counted(int.__mul__(self, other))

        __rmul__ = __mul__

        def __add__(self, other):
            return Counted(int.__add__(self, other))

        def __radd__(self, other):
            return Counted(int.__radd__(self, other))

        def __sub__(self, other):
            return Counted(int.__sub__(self, other))

        def __rsub__(self, other):
            return Counted(int.__rsub__(self, other))

    matrix = seifert_matrix(parse("x y^-1 " * 3000))
    p = len(matrix._sums)
    assert p == 3000
    counted = seifert_module._determinant_and_signature(
        matrix._links, list(map(Counted, matrix._sums)))
    assert counted == matrix._values
    assert p <= multiplications <= 3 * p, multiplications

    # 5,999 alternating crossings and x^5998 y, at the crossing cap.
    for text in ("x y^-1 " * 2999 + "x", "x^5998 y"):
        assert cli.main(["analyze", "--json", "--oracle", text]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"]["agrees"] is True


def test_free_reduce_matches_the_attribute_stack(short_words, rng):
    # Every word of at most 7 letters, then random run sequences with h runs
    # and power runs of both signs.
    cases = [(BraidWord(word.letters), word.reduced) for word in short_words
             if len(word.letters) <= 7]
    runs = [*LETTERS, ("x", 3), ("x", -2), ("y", 4), ("y", -3),
            ("h", 1), ("h", -1), ("h", -2)]
    for _ in range(2000):
        w = BraidWord(tuple(rng.choice(runs)
                            for _ in range(rng.randint(0, 40))))
        cases.append((w, attribute_free_reduce(w.letters)))
    for w, expected in cases:
        reduced = free_reduce(w)
        assert reduced.runs == BraidWord(expected).runs, w
        assert reduced.letters == BraidWord(reduced.runs).letters, w


def split_message(reduced):
    """The oracle's message for a reduced diagram that leaves a column
    unused."""
    generators = {letter.generator for letter in reduced}
    unused = ("column 2" if generators == {"x"} else
              "column 1" if generators == {"y"} else "columns 1 and 2")
    return f"{unused} unused: the closure splits"


def expected_oracle(reduced, values=True):
    """The references' ``OracleValues`` of a reduced diagram, None for a
    split one; without ``values``, the signature and determinant are None
    and only the rows and mu are compared."""
    if {letter.generator for letter in reduced} != {"x", "y"}:
        return None
    if values:
        return oracle_reference(reduced)
    return OracleValues(*oracle_rows(reduced), None, None)


def assert_codes_match_references(reduced, expected, *words, seen=None):
    """The reduced codes, free_reduce and the oracle of each word, whose
    freely reduced letters are ``reduced``, agree with the references: the
    oracle reads the diagram of ``expected`` (``expected_oracle``), or
    reports the split closure, and it builds no Letter tuple of the word.
    With a dict ``seen``, the oracle of a diagram already checked need only
    hold the same fields as the first one."""
    expected_codes = bytes(map(CODE_DIGIT.__getitem__, reduced))
    for w in words:
        try:
            matrix = seifert_matrix(w)
        except seifert_module.SplitClosure as error:
            assert expected is None, w
            assert str(error) == split_message(reduced), w
        else:
            fields = (matrix._links, matrix._sums, matrix.mu,
                      matrix._crossings, matrix._values)
            if seen is not None and reduced in seen:
                assert fields == seen[reduced], w
            else:
                assert (matrix.rows, matrix.mu, matrix._crossings) == \
                    (expected.rows, expected.mu, len(reduced)), w
                if expected.signature is not None:
                    assert (sym_signature(matrix),
                            sym_determinant(matrix)) == \
                        (expected.signature, expected.determinant), w
                if seen is not None:
                    seen[reduced] = fields
        assert "letters" not in vars(w), w
        # free_reduce holds the codes of reduced_digits.
        reduced_word = free_reduce(w)
        assert reduced_word._digits == expected_codes, w
        assert reduced_word.letters == reduced, w
        assert all(map(is_, reduced_word.letters, reduced)), w


# Each letter's code digit.
CODE_DIGIT = dict(zip(w_.PACKED_LETTERS, w_.CODE_DIGITS))


def test_codes_match_the_letters_on_every_short_word(short_words,
                                                     short_diagrams):
    # Every word of at most 8 letters, parsed on the byte path and built
    # from runs, each stretch of one letter as one power run.
    seen = {}
    for word in short_words:
        letters = word.letters
        assert_codes_match_references(
            word.reduced, short_diagrams.get(word.reduced),
            parse(" ".join(map(TOKEN.__getitem__, letters))),
            BraidWord(tuple(
                (letter.generator, letter.sign * len(list(group)))
                for letter, group in itertools.groupby(letters))),
            seen=seen)
    assert len(seen) == len(short_diagrams) == 13_088


def test_codes_match_the_letters_on_random_run_words(rng):
    # Runs of every kind, zero exponents included, with u u^-1 pasted in
    # at random places, up to the oracle's crossing cap; each word built
    # from its runs, parsed from its run text and parsed from its letters.
    def random_runs(budget):
        runs = []
        while True:
            run = rng.choice((*LETTERS, ("x", rng.randint(-9, 9)),
                              ("y", rng.randint(-9, 9)),
                              ("h", rng.choice((-2, -1, 1, 2)))))
            budget -= BraidWord((run,))._length
            if budget < 0:
                return runs
            runs.append(run)

    for size in (10, 100, 1000, seifert_module.MAX_CROSSINGS):
        for _ in range(20):
            runs = random_runs(size // 2)
            for _ in range(rng.randint(0, 4)):
                u = random_runs(rng.randint(1, max(1, size // 16)))
                at = rng.randint(0, len(runs))
                runs[at:at] = u + list(inverse(BraidWord(tuple(u))).runs)
            w = BraidWord(tuple(runs))
            assert w._length <= seifert_module.MAX_CROSSINGS
            letters = per_run_letters(runs)
            reduced = attribute_free_reduce(letters)
            assert_codes_match_references(
                reduced, expected_oracle(
                    reduced, values=size < seifert_module.MAX_CROSSINGS),
                w, parse(w_.run_text(w)),
                parse(" ".join(map(TOKEN.__getitem__, letters))))
    # At the cap: a word that cancels to nothing, and power and h runs.
    for text in ("x y " * 1500 + "y^-1 x^-1 " * 1500, "x^5998 y^-2",
                 "h^999 x y^-1 x^-1 y x^2", "y^-3 h^-998 x y x^-2 y^-5"):
        assert len(parse(text)) == seifert_module.MAX_CROSSINGS, text
        reduced = attribute_free_reduce(parse(text).letters)
        assert_codes_match_references(
            reduced, expected_oracle(reduced, values=False), parse(text))


def test_the_oracle_builds_no_letter_tuple():
    # Neither on the byte path nor for a word built by the token grammar.
    for text in ("x y^-1 x y^-1", "x y x^-1 y^-1 y x", "x^2 y^-1 h",
                 "s1 s2^-1 x^1", "h^-1 x"):
        w = parse(text)
        seifert_matrix(w)
        assert "letters" not in vars(w), text


def test_a_second_oracle_call_imports_nothing(capsys):
    # The first --oracle call imports the oracle's module; a later one
    # finds it bound and runs no from-import machinery.
    argv = ["analyze", "--json", "--oracle", "x y^-1 x y^-1"]
    assert cli.main(argv) == 0
    called = set()

    def profiler(frame, event, arg):
        if event == "call":
            called.add(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(previous)
    assert code == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])[
        "oracle"]["agrees"] is True
    assert "seifert_matrix" in called
    assert "_handle_fromlist" not in called


def test_free_reduction_makes_linearly_many_steps():
    # u u^-1 of m letters cancels to nothing, and the stack grows to m/2
    # codes and unwinds.  A stack that copies itself in Python on a pop, or
    # a pass that starts over after a cancellation, takes about m steps per
    # code.  Counting the lines run in words and seifert, not time, keeps
    # the test exact: at 2m a linear reduction takes at most twice the
    # steps.
    def count(m):
        word = parse("x y " * (m // 4) + "y^-1 x^-1 " * (m // 4))

        def reduce():
            with pytest.raises(seifert_module.SplitClosure,
                               match="columns 1 and 2 unused"):
                seifert_matrix(word)

        return line_events({w_.__file__, seifert_module.__file__}, reduce)

    small, large = count(1000), count(2000)
    assert small > 1000
    assert large <= 2 * small, (small, large)


def test_letters_match_the_per_run_expansion(rng):
    # Unit runs as parse stores them and as plain pairs, then power runs
    # and h runs of both signs.
    runs = [*LETTERS, ("x", 1), ("x", -1), ("y", 1), ("y", -1), ("x", 3),
            ("x", -2), ("y", 4), ("y", -3), ("h", 1), ("h", -1), ("h", 2),
            ("h", -3)]
    sequences = [(), *([run] for run in runs)]
    sequences += [tuple(rng.choice(runs) for _ in range(rng.randint(0, 60)))
                  for _ in range(2000)]
    sequences += [tuple(parse(" ".join(rng.choice(("x", "y^-1", "y", "x^-2",
                                                   "h^-1"))
                                       for _ in range(50))).runs)]
    for runs in sequences:
        letters, expected = BraidWord(tuple(runs)).letters, per_run_letters(runs)
        assert letters == expected, runs
        # free_reduce compares letters by identity.
        assert all(a is b for a, b in zip(letters, expected)), runs


# Run values with a few letters each: both generators and signs, power
# runs, h runs of both signs and an empty run.
SHORT_RUNS = (*LETTERS, ("x", 2), ("x", -3), ("y", 3), ("y", -2), ("h", 1),
              ("h", -1), ("h", 2), ("x", 0))


def test_letter_blocks_match_the_letter_level_blocks(rng):
    for _ in range(20_000):
        runs = tuple(rng.choice(SHORT_RUNS) for _ in range(rng.randint(0, 12)))
        assert list(w_._letter_blocks(runs)) == \
            letter_level_blocks(BraidWord(runs).letters), runs


def same_letters_variant(rng, runs):
    """Other runs that spell the same letters: a run split in two or two
    merged, an h run's letters written out in part, two letters moved
    past the h run that they start, or an empty run put in."""
    runs = list(runs)
    i = rng.randrange(len(runs) + 1)
    if i == len(runs):
        runs.insert(rng.randrange(len(runs) + 1), ("x", 0))
        return runs
    g, e = runs[i]
    sign = 1 if e > 0 else -1
    unit = list(w_._UNIT_LETTERS["h"][e < 0])
    rest = [(g, e - sign)] if abs(e) > 1 else []
    pair = unit[:2]
    choice = rng.randrange(4)
    if choice == 0 and abs(e) > 1:
        k = rng.randint(1, abs(e) - 1)
        runs[i:i + 1] = [(g, sign * k), (g, e - sign * k)]
    elif choice == 1 and i + 1 < len(runs) and runs[i + 1][0] == g \
            and (runs[i + 1][1] > 0) == (e > 0):
        runs[i:i + 2] = [(g, e + runs[i + 1][1])]
    elif choice == 2 and g == "h":
        runs[i:i + 1] = rng.choice((unit + rest, rest + unit,
                                    pair + rest + unit[2:]))
    elif choice == 3 and g == "h":
        if runs[i + 1:i + 3] == pair:
            runs[i:i + 3] = pair + [runs[i]]
        elif i >= 2 and runs[i - 2:i] == pair:
            runs[i - 2:i + 1] = [runs[i]] + pair
    return runs


def other_letters_variant(rng, runs):
    """The runs with one changed: a letter's sign or generator, or an h
    run's exponent off by one."""
    runs = list(runs)
    i = rng.randrange(len(runs))
    g, e = runs[i]
    if g == "h":
        runs[i] = (g, e + rng.choice((1, -1)) or e + 2)
    elif rng.random() < 0.5:
        runs[i] = (g, -e)
    else:
        runs[i] = ("y" if g == "x" else "x", e)
    return runs


def test_word_equality_matches_the_walk_on_long_words_with_huge_twists(rng):
    # The letters cannot be expanded: h runs have exponents up to 10^17.
    outcomes = Counter()
    for trial in range(400):
        runs = []
        for _ in range(rng.randint(1, 200)):
            if rng.random() < 0.2:
                runs.append(("h", rng.choice((1, -1))
                             * rng.randint(1, 10 ** rng.randint(0, 17))))
            else:
                runs.append((rng.choice("xy"), rng.choice((1, -1))
                             * rng.randint(1, 4)))
        other = runs
        for _ in range(rng.randint(1, 20)):
            other = same_letters_variant(rng, other)
        if trial % 2:
            other = other_letters_variant(rng, other)
        u, v = BraidWord(tuple(runs)), BraidWord(tuple(other))
        equal = walk_same_letters(u.runs, v.runs)
        assert (u == v) is (v == u) is equal, (runs, other)
        if equal:
            assert hash(u) == hash(v), (runs, other)
        outcomes[trial % 2, equal] += 1
    assert outcomes[0, True] == 200 and outcomes[1, False] > 150, outcomes
