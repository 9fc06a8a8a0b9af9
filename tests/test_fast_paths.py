"""Fast paths checked against the slow code they replace.

The slow references live here only: the minimum over all rotations and
Booth's failure-function scan behind the two-pointer least rotation, the
left-to-right matrix product, the parabolic invariant read by completing
a basis, the per-run image, the per-syllable PSL(2,Z) stack behind the
chunk tables, the window-slicing image and syllable pass, which look up
CHUNK runs by their letters, behind the folds over packed 4-letter bytes,
the per-kind syllable merge and branching cyclic reduction behind the byte
alphabet (S = 0, U = 1, U^2 = 2, where a power run costs O(n) memcpy work
at 2 bytes per letter), the pairwise gcd of the Smith normal form, the
Smith form of m - I (``smith_h1_from_image``) behind H1 read with the
order |2 - tr m|, the trace class tested against +-I with one sign rule
per kind (``branching_trace_class``) behind the one read from the entries,
the per-letter permutation fold, words stored one letter per run, the mirror
read by classifying the inverse of the model word, the report's closed
forms read from the model word or the Floer module, the per-family
surgery rows, Floer assembly, delta and concordance screen behind the
tail's exponent sum, the shifted rows built by Fraction addition and
renormalised by the public constructor behind the rows built in quarters,
the token grammar on every token (``grammar_parse``) behind the
table-driven parse and the token loop that looks unit tokens up first,
the generic JSON encoder over ``report_json`` (``encoder_json_line``)
behind the report writer, the family-1 tail folded one block at a time
(``sequential_family1_trace``) behind the balanced product of
``form_determinant``, ``str`` behind the divide-and-conquer
``_int_text``, one ``groupby`` group per generator and sign
(``groupby_run_text``) behind the one-loop ``run_text``, the letter stack
that compares attributes (``attribute_free_reduce``) behind the one that
compares identities, the Seifert oracle's dense pair-loop construction
and rational elimination, the report's values computed as ``Fraction``s
and its record built by keyword (``reference_analyze_word``) behind the
values stage that holds every grading as a count of quarters, and every
run expanded on its own (``per_run_letters``) behind the letters that
look unit runs up.  The
layout that ``words.window_table`` gives both chunk tables is pinned
without matrices or syllables: built over letters recorded as tuples, each
entry is the window that packs to its byte
(``test_window_table_lays_out_windows_as_fold_keys_packs_them``).
Short inputs are enumerated exhaustively; long words and forms are drawn
at random.
"""

import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from math import prod

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
    TorusBundleModules,
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
    report_json,
    signature,
    stein_report,
)
from threebraid.murasugi import (
    S,
    Family1,
    Family2,
    Family3,
    canonical_word,
    classify,
    least_rotation,
    mirror_form,
    psl2_normal_form,
)
from threebraid.seifert import (
    SeifertMatrix,
    seifert_matrix,
    sym_determinant,
    sym_signature,
)
from threebraid.words import (
    CHUNK,
    MAX_LETTERS,
    BraidWord,
    ParseError,
    Perm3,
    WordTooLong,
    components,
    exponent_sum,
    free_reduce,
    inverse,
    parse,
    permutation,
)

from test_floer import all_forms

LETTERS = (w_.X, w_.Y, w_.X_INV, w_.Y_INV)

# The generator matrices and transpositions, written out independently of
# the package's tables.
GENERATOR = {
    w_.X: SL2Matrix(1, 1, 0, 1),
    w_.X_INV: SL2Matrix(1, -1, 0, 1),
    w_.Y: SL2Matrix(1, 0, -1, 1),
    w_.Y_INV: SL2Matrix(1, 0, 1, 1),
}
TRANSPOSITION = {"x": Perm3((2, 1, 3)), "y": Perm3((1, 3, 2))}


def slow_least_rotation(seq):
    return min((seq[i:] + seq[:i] for i in range(len(seq))), default=())


def booth_least_rotation(seq):
    """Booth's algorithm ("Lexicographically least circular substrings",
    IPL 10, 1980): a Knuth-Morris-Pratt failure function over the doubled
    sequence, reset whenever a smaller rotation start k is found."""
    n = len(seq)
    doubled = tuple(seq) * 2
    failure = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        item = doubled[j]
        i = failure[j - k - 1]
        while i != -1 and item != doubled[k + i + 1]:
            if item < doubled[k + i + 1]:
                k = j - i - 1
            i = failure[i]
        if i == -1 and item != doubled[k]:
            if item < doubled[k]:
                k = j
            failure[j - k] = -1
        else:
            failure[j - k] = i + 1
    return doubled[k:k + n]


def slow_image(letters):
    result = SL2Matrix(1, 0, 0, 1)
    for letter in letters:
        result = result * GENERATOR[letter]
    return result


def short_images(max_length):
    """The distinct images of the words of at most max_length letters."""
    level = {SL2Matrix(1, 0, 0, 1)}
    images = set(level)
    for _ in range(max_length):
        level = {m * GENERATOR[letter] for m in level for letter in LETTERS}
        images |= level
    return images


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


def pairwise_gcd_smith_normal_form(m):
    """The cokernel with the entry gcd taken pairwise, of absolute values."""
    (a, b), (c, d) = m
    g = math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d)))
    det = abs(a * d - b * c)
    diagonal = (g, det // g) if det else (g, 0)
    return homology.AbelianGroup(sum(e == 0 for e in diagonal),
                                 tuple(e for e in diagonal if e >= 2))


def test_smith_normal_form_matches_the_pairwise_gcd(rng, monkeypatch):
    def entry():
        bits = rng.choice((0, 1, 2, 8, 64, 10_000))
        return rng.choice((1, -1)) * rng.getrandbits(bits)
    gcd_calls = 0

    def counted_gcd(*entries):
        nonlocal gcd_calls
        gcd_calls += 1
        return math.gcd(*entries)

    monkeypatch.setattr(homology, "gcd", counted_gcd)
    for trial in range(2000):
        factor = rng.choice((1, 1, 2, 6, rng.getrandbits(100) + 1))
        m = tuple(tuple(factor * entry() for _ in range(2)) for _ in range(2))
        if trial % 7 == 0:
            m = (m[0], tuple(rng.choice((1, -1, 3)) * e for e in m[0]))
        assert homology.smith_normal_form(m) == \
            pairwise_gcd_smith_normal_form(m), m
    assert gcd_calls == 2000


def test_word_layer_on_all_words_up_to_length_8():
    # Each level extends the previous one by a letter, so the references
    # cost one multiplication per word.
    level = {(): (SL2Matrix(1, 0, 0, 1), Perm3((1, 2, 3)))}
    checked = 0
    for length in range(9):
        for letters, (matrix, perm) in level.items():
            w = w_.BraidWord(letters)
            m = image(w)
            assert m == matrix, letters
            assert permutation(w) == perm, letters
            assert components(w) == perm.cycle_count, letters
            assert components_from_image(m) == perm.cycle_count, letters
            (a, b), (c, d) = m.minus_identity()
            assert determinant_from_image(m) == abs(a * d - b * c), letters
            checked += 1
        if length < 8:
            level = {
                letters + (letter,): (
                    matrix * GENERATOR[letter],
                    perm.then(TRANSPOSITION[letter.generator]))
                for letters, (matrix, perm) in level.items()
                for letter in LETTERS
            }
    assert checked == 87_381


def test_tree_product_matches_left_to_right_on_long_words(rng):
    for length in (1, 2, 3, 5, 64, 100, 1023, 1024, 1025, 4097, 10_000):
        for alphabet in (LETTERS, (w_.X, w_.Y)):
            letters = tuple(rng.choice(alphabet) for _ in range(length))
            assert image(w_.BraidWord(letters)) == slow_image(letters), length


def basis_parabolic_invariant(m):
    """(epsilon, k) read by completing the primitive fixed vector v of
    epsilon * m to a determinant-one basis (v, u): (epsilon * m)u = u + k v."""
    if homology.trace_class(m).kind != homology.PARABOLIC:
        raise homology.NotParabolic(m)
    epsilon = 1 if m.trace > 0 else -1
    n = m if epsilon == 1 else -m
    (a, b), (c, d) = n.minus_identity()
    row = (a, b) if (a, b) != (0, 0) else (c, d)
    g = math.gcd(*row)
    v = (row[1] // g, -row[0] // g)
    old_r, r, old_s, s, old_t, t = v[0], v[1], 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    u = (-old_t, old_s)
    nu = (n.a * u[0] + n.b * u[1], n.c * u[0] + n.d * u[1])
    w = (nu[0] - u[0], nu[1] - u[1])
    k = w[0] // v[0] if v[0] else w[1] // v[1]
    assert w == (k * v[0], k * v[1]) and v[0] * u[1] - v[1] * u[0] == 1, m
    return epsilon, k


def test_parabolic_invariant_matches_basis_completion_up_to_length_8():
    images = short_images(8)
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


def smith_h1_from_image(m):
    """H1 as the Smith form of m - I, its determinant multiplied out."""
    return homology.smith_normal_form(m.minus_identity())


def branching_trace_class(m):
    """The trace class with centrality tested against +-I, and one sign
    rule per kind."""
    identity = SL2Matrix(1, 0, 0, 1)
    t = m.trace
    if m == identity or m == -identity:
        return homology.TraceClass(homology.CENTRAL,
                                   1 if m == identity else -1)
    if abs(t) <= 1:
        return homology.TraceClass(homology.ELLIPTIC, -1 if t < 0 else 1)
    if abs(t) == 2:
        return homology.TraceClass(homology.PARABOLIC, 1 if t > 0 else -1)
    return homology.TraceClass(homology.HYPERBOLIC, 1 if t > 0 else -1)


def assert_matrix_layer_matches_references(m, label):
    assert homology.h1_from_image(m) == smith_h1_from_image(m) == \
        pairwise_gcd_smith_normal_form(m.minus_identity()), label
    trace_class = homology.trace_class(m)
    assert trace_class == branching_trace_class(m), label
    if trace_class.kind == homology.PARABOLIC:
        assert homology.parabolic_invariant(m) == \
            basis_parabolic_invariant(m), label
    return trace_class


def test_matrix_layer_matches_references_on_short_images():
    # Every image of a word of at most 8 letters, and h runs of both signs
    # and parities, a huge one among them: +-I.
    h_runs = (1, -1, 2, -2, 3, -4, 10**17 + 1)
    matrices = short_images(8) | {
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
        assert h1 == smith_h1_from_image(m), text


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


def test_runs_match_letters_on_long_words(rng):
    for _ in range(4):
        runs = []
        while sum(6 * abs(e) if g == "h" else abs(e) for g, e in runs) < 10**4:
            runs.append((rng.choice("xxxyyyh"),
                         rng.choice((1, -1)) * rng.randint(1, 50)))
        w = BraidWord(tuple(runs))
        assert_runs_match_letters(w)
        assert parse(" ".join(f"{g}^{e}" for g, e in runs)) == w


def tree_product(factors):
    """The balanced product of (a, b, c, d) factors by a binary counter."""
    stack = []  # (span, a, b, c, d)
    for a, b, c, d in factors:
        span = 1
        while stack and stack[-1][0] == span:
            _, p, q, r, s = stack.pop()
            a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
            span *= 2
        stack.append((span, a, b, c, d))
    a, b, c, d = 1, 0, 0, 1
    for _, p, q, r, s in reversed(stack):
        a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    return SL2Matrix(a, b, c, d)


def per_run_image(w):
    """The image folded one run per factor, as before the chunk table."""
    return tree_product(homology._run_entries(*run) for run in w.runs)


def per_syllable_stack(runs):
    """The freely reduced syllables and the exponent sum of a run sequence,
    pushed one syllable at a time and merged per kind, as before the chunk
    table and the byte alphabet: S pops S, and U-powers add mod 3."""
    stack = []
    exponent_sum = 0
    for run in runs:
        syllables = murasugi._LETTER_SYLLABLES.get(run)
        if syllables is None:
            syllables, weight = murasugi._run_syllables(*run)
        else:
            weight = run[1]
        exponent_sum += weight
        for syllable in syllables:
            if not stack or (stack[-1] == S) != (syllable == S):
                stack.append(syllable)
            elif syllable == S:
                stack.pop()
            else:
                e = (stack.pop() + syllable) % 3
                if e:
                    stack.append(e)
    return bytes(stack), exponent_sum


def branching_cyclic_reduce(syllables):
    """Conjugate away matching end syllables, branching on their kind as
    before the byte alphabet: S cancels S, and U-powers add mod 3."""
    first, last = 0, len(syllables) - 1
    while first < last and \
            (syllables[first] == S) == (syllables[last] == S):
        head, tail = syllables[first], syllables[last]
        first += 1
        last -= 1
        if head != S:
            e = (head + tail) % 3
            if e:
                return syllables[first:last + 1] + bytes((e,))
    return syllables[first:last + 1]


def per_syllable_pass(w):
    stack, exponent_sum = per_syllable_stack(w.runs)
    return branching_cyclic_reduce(stack), exponent_sum


# Each window of CHUNK letters as its image and its syllables, keyed by its
# letters, from the written-out generators and the per-syllable stack.
WINDOW_ENTRIES = {window: tuple(slow_image(window)) for window in
                  itertools.product(LETTERS, repeat=CHUNK)}
WINDOW_SYLLABLES = {window: per_syllable_stack(window)
                    for window in WINDOW_ENTRIES}


def window_factors(runs, windows, read_run):
    """The runs read as before the packed fold keys: CHUNK runs sliced off
    and looked up by their letters, or, when that window is not CHUNK
    letters, the first run alone in closed form."""
    i = 0
    while i < len(runs):
        factor = windows.get(runs[i:i + CHUNK])
        if factor is None:
            factor = read_run(*runs[i])
            i += 1
        else:
            i += CHUNK
        yield factor


def window_image(w):
    return tree_product(window_factors(w.runs, WINDOW_ENTRIES,
                                       homology._run_entries))


def window_syllable_pass(w):
    stack = bytearray()
    exponent_sum = 0
    for syllables, weight in window_factors(w.runs, WINDOW_SYLLABLES,
                                            murasugi._run_syllables):
        exponent_sum += weight
        murasugi._multiply(stack, syllables)
    return murasugi._cyclic_reduce(bytes(stack)), exponent_sum


def assert_packed_fold_matches_references(w):
    assert image(w) == window_image(w) == per_run_image(w), w.runs
    assert murasugi._syllable_pass(w) == window_syllable_pass(w) == \
        per_syllable_pass(w), w.runs


def packed_window(byte):
    """The letters of a packed byte, the first in the top two bits."""
    return tuple(w_.PACKED_LETTERS[byte >> shift & 3]
                 for shift in range(2 * CHUNK - 2, -1, -2))


def test_window_table_lays_out_windows_as_fold_keys_packs_them():
    # Letters as one-letter tuples, multiplied by concatenation: each entry
    # is the window itself, which must pack to its own index.
    table = w_.window_table(lambda generator, sign: ((generator, sign),),
                            tuple.__add__, ())
    assert len(table) == 4 ** CHUNK == 256
    for byte, window in enumerate(table):
        assert len(window) == CHUNK, window
        assert BraidWord(window)._fold_keys == [byte], window


def test_chunk_tables_hold_the_product_of_their_letters():
    assert len(homology._CHUNK_ENTRIES) == len(murasugi._CHUNK_SYLLABLES) \
        == 4 ** CHUNK == 256
    windows = [packed_window(byte) for byte in range(256)]
    assert set(windows) == set(WINDOW_ENTRIES)
    for byte, window in enumerate(windows):
        assert BraidWord(window)._fold_keys == [byte], window
        assert SL2Matrix(*homology._CHUNK_ENTRIES[byte]) == \
            slow_image(window), window
        assert murasugi._CHUNK_SYLLABLES[byte] == \
            per_syllable_stack(window), window
    empty = {window for window, (syllables, _) in
             zip(windows, murasugi._CHUNK_SYLLABLES) if not syllables}
    assert len(empty) == 28
    assert (w_.X, w_.X_INV, w_.Y, w_.Y_INV) in empty
    assert empty == {window for window in windows
                     if not free_reduce(BraidWord(window)).runs}


def test_chunked_fold_on_all_words_up_to_two_windows():
    level = [()]
    checked = 0
    for length in range(2 * CHUNK + 1):
        for letters in level:
            assert_packed_fold_matches_references(BraidWord(letters))
            checked += 1
        level = [letters + (letter,) for letters in level for letter in LETTERS]
    assert checked == 87_381


def test_chunked_fold_on_all_words_of_five_tokens():
    tokens = [*LETTERS, ("h", 1), ("y", -3)]
    checked = 0
    for count in range(6):
        for runs in itertools.product(tokens, repeat=count):
            assert_packed_fold_matches_references(BraidWord(runs))
            checked += 1
    assert checked == sum(6 ** count for count in range(6))


def test_packed_fold_on_stretches_between_runs(rng):
    # Stretches of 0-9 letters between h runs, h^-1 and power runs, so that
    # a stretch leaves every remainder of 0 to CHUNK - 1 letters after its
    # full windows, at each end of the word and next to each kind of run.
    between = [("h", 1), ("h", -1), ("h", 4), ("x", 2), ("x", -5), ("y", 3),
               ("y", -2)]
    seen = set()
    for _ in range(2000):
        runs = []
        for _ in range(rng.randint(0, 5)):
            stretch = [rng.choice(LETTERS) for _ in range(rng.randint(0, 9))]
            run = rng.choice(between)
            seen.add((len(stretch) % CHUNK, runs[-1][0] if runs else "^",
                      run[0]))
            runs += stretch + [run]
        stretch = [rng.choice(LETTERS) for _ in range(rng.randint(0, 9))]
        seen.add((len(stretch) % CHUNK, runs[-1][0] if runs else "^", "$"))
        assert_packed_fold_matches_references(BraidWord(tuple(runs + stretch)))
    assert seen == set(itertools.product(range(CHUNK), "^hxy", "hxy$"))


@pytest.mark.parametrize("alphabet", [LETTERS, (w_.X, w_.Y), (w_.X, w_.Y_INV)],
                         ids=["uniform", "positive", "alternating"])
def test_chunked_fold_on_long_words_with_power_runs(rng, alphabet):
    for length in (10, 11, 97, 1000, 10_000):
        runs = [rng.choice(alphabet) for _ in range(length)]
        for _ in range(rng.randint(1, 12)):
            power = (rng.choice("xyh"), rng.choice((1, -1)) * rng.randint(1, 7))
            runs.insert(rng.randint(0, len(runs)), power)
        w = BraidWord(tuple(runs))
        assert_packed_fold_matches_references(w)
        assert image(w) == slow_image(w.letters), length


def test_byte_merge_matches_the_per_kind_merge(rng):
    # Runs of 40 letters against their inverses cancel 80 syllables in one
    # merge; the reduced products are then cyclically reduced both ways.
    tokens = [*LETTERS, ("x", 40), ("x", -40), ("y", 40), ("y", -40)]
    for _ in range(2000):
        left, right = (tuple(rng.choice(tokens)
                             for _ in range(rng.randint(0, 4)))
                       for _ in range(2))
        stack = bytearray(per_syllable_stack(left)[0])
        murasugi._multiply(stack, per_syllable_stack(right)[0])
        product = per_syllable_stack(left + right)[0]
        assert stack == product, (left, right)
        assert murasugi._cyclic_reduce(product) == \
            branching_cyclic_reduce(product), (left, right)


def old_canonical_letters(f):
    """The model word as it was built letter by letter: h^d expanded, then
    the tail."""
    letters = list(w_.power(w_.word(w_.H_LETTERS), f.d).letters)
    if isinstance(f, Family1):
        for ai in f.a:
            letters += [w_.X] + [w_.Y_INV] * ai
    elif isinstance(f, Family2):
        letters += [w_.Y if f.m > 0 else w_.Y_INV] * abs(f.m)
    else:
        letters += [w_.X_INV] * -f.m + [w_.Y_INV]
    return tuple(letters)


def test_canonical_word_expands_to_the_old_model_word():
    for d in range(-5, 6):
        forms = [Family1(d, a) for a in ((1,), (0, 2), (3, 1, 0))]
        forms += [Family2(d, m) for m in range(-3, 4)]
        forms += [Family3(d, m) for m in (-1, -2, -3)]
        for f in forms:
            model = canonical_word(f)
            assert model.letters == old_canonical_letters(f), f
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


def slow_mirror_form(f):
    return classify(inverse(canonical_word(f)))


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


def per_branch_surgery_table(tag, n):
    """The 1/n rows written out one branch per tag and sign of n."""
    def module(towers, frees=()):
        return GradedModule(tuple(Fraction(g) for g in towers),
                            tuple((rank, Fraction(g)) for rank, g in frees))

    if tag == RIGHT_TREFOIL_LIKE:
        if n > 0:
            return module([-2], [(n - 1, -2)])
        return module([0], [(-n, -1)])
    if tag == LEFT_TREFOIL_LIKE:
        if n >= 0:
            return module([0], [(n, 0)])
        return module([2], [(-n - 1, 1)])
    if n >= 0:
        return module([0], [(n, -1)])
    return module([0], [(-n, 0)])


def per_family_assembly(f):
    """(tag, n, shift) written out per family and parity of d."""
    if isinstance(f, Family1):
        total = sum(f.a)
        n_blocks = len(f.a)
        if f.d % 2:
            k = (f.d - 1) // 2
            return RIGHT_TREFOIL_LIKE, -k, Fraction(n_blocks + 4 - total, 4)
        k = f.d // 2
        return FIGURE_EIGHT_LIKE, -k, Fraction(n_blocks - total, 4)
    if isinstance(f, Family2):
        if f.d % 2 == 0:
            raise PositiveB1(f)
        k = (f.d - 1) // 2
        return RIGHT_TREFOIL_LIKE, -k, Fraction(f.m + 4, 4)
    if f.d % 2:
        k = (f.d - 1) // 2
        return RIGHT_TREFOIL_LIKE, -k, Fraction(f.m + 3, 4)
    k = f.d // 2
    return LEFT_TREFOIL_LIKE, -k, Fraction(f.m + 1, 4)


def per_family_delta(f):
    """Delta of a knot closure written out per family and sign of d."""
    if isinstance(f, Family1):
        n, total = len(f.a), sum(f.a)
        if f.d % 2 == 0:
            return Fraction(n - total, 2)
        if f.d > 0:
            return Fraction(n + 4 - total, 2)
        return Fraction(n - 4 - total, 2)
    if isinstance(f, Family3) and f.m in (-1, -3):
        if f.d % 2:
            return Fraction(f.m + 3, 2) if f.d > 0 else Fraction(f.m - 5, 2)
        return Fraction(f.m + 9, 2) if f.d > 0 else Fraction(f.m + 1, 2)
    raise FamilyNotCovered(f)


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


def sequential_family1_trace(a):
    """The trace of the family-1 tail's image, folded one block
    [[1 + ai, 1], [ai, 1]] at a time, as before the balanced product."""
    p, q, r, s = 1, 0, 0, 1
    for ai in a:
        p, q, r, s = p + (p + q) * ai, p + q, r + (r + s) * ai, r + s
    return p + s


def assert_form_determinant_matches_sequential_fold(f):
    trace = sequential_family1_trace(f.a)
    assert form_determinant(f) == abs(2 - (-trace if f.d % 2 else trace)), f


def test_form_determinant_matches_sequential_fold_on_short_tuples():
    assert homology._balanced_product(()) == (1, 0, 0, 1)
    checked = 0
    for n in range(1, 7):
        for a in itertools.product(range(4), repeat=n):
            for d in (0, 1):
                assert_form_determinant_matches_sequential_fold(Family1(d, a))
            checked += 1
    assert checked == 4 + 4**2 + 4**3 + 4**4 + 4**5 + 4**6


def test_form_determinant_matches_sequential_fold_on_long_tuples(rng):
    for n in (7, 8, 9, 63, 64, 65, 1000, 4097, 10**4):
        a = tuple(rng.randint(0, 3) for _ in range(n))
        assert_form_determinant_matches_sequential_fold(
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
    w = BraidWord(tuple(rng.choice((w_.X, w_.Y)) for _ in range(16_384)))
    factors = len(w._fold_keys)
    assert factors == 16_384 // CHUNK
    assert image(w) == slow_image(w.letters)
    assert_balanced(product_bits, factors)


def test_form_determinant_reduces_the_blocks_level_by_level(product_bits):
    f = Family1(0, (1,) * 4096)
    determinant = form_determinant(f)
    assert_balanced(product_bits, 4096)
    assert determinant == sequential_family1_trace(f.a) - 2


def renormalised_shift(module, q):
    """shift as it was: Fraction addition, renormalised by the public
    constructor."""
    return GradedModule(tuple(g + q for g in module.towers),
                        tuple((rank, g + q) for rank, g in module.frees),
                        module.absolute)


# The 0-surgery rows as Fraction modules, before they were stored in quarters.
FRACTION_ZERO_SURGERY_ROWS = {
    RIGHT_TREFOIL_LIKE: GradedModule((Fraction(-1, 2), Fraction(-3, 2))),
    LEFT_TREFOIL_LIKE: GradedModule((Fraction(3, 2), Fraction(1, 2))),
    FIGURE_EIGHT_LIKE: GradedModule((Fraction(1, 2), Fraction(-1, 2)),
                                    ((1, Fraction(-1, 2)),)),
}


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
    report's modules equal the old rows shifted and renormalised."""
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
            assert_same_module(floer._shifted_zero_row(tag, k),
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


def encoder_json_line(report, oracle):
    """The ``--json`` line as the generic encoder wrote it: the dict of
    ``report_json``, with the oracle block added last."""
    payload = report_json(report)
    if oracle is not None:
        payload["oracle"] = oracle
    return json.dumps(payload, separators=(",", ":"))


def assert_writer_matches_encoder(report, oracle=None):
    assert cli._json_line(report, oracle) == \
        encoder_json_line(report, oracle), report


def test_writer_matches_encoder_on_short_forms_and_words(no_digit_limit):
    for f in all_forms(range(-6, 7), 4):
        for torus in (False, True):
            assert_writer_matches_encoder(
                analyze_word(canonical_word(f), include_torus_bundle=torus))
    # Every word of at most 5 letters, with its real oracle block: split
    # closures get an error record, the others an agreeing verdict.
    verdicts = set()
    for length in range(6):
        for letters in itertools.product(LETTERS, repeat=length):
            w = w_.word(letters)
            report = analyze_word(w, include_torus_bundle=True)
            oracle = cli._oracle_block(w, report)
            verdicts.add(oracle.get("agrees", "error"))
            assert_writer_matches_encoder(report, oracle)
    assert verdicts == {True, "error"}


# Word characters that JSON escapes: a quote, a backslash, a control
# character, non-ASCII whitespace and a character outside the BMP.
AWKWARD_CHARACTERS = '"\\\x1c\u2003\u00e9\U0001f600 x'


def random_int(rng):
    """Mostly small, one in twenty of more than 4,300 digits, either
    sign."""
    bits = 20_000 if rng.random() < 0.05 else rng.choice((3, 40, 200))
    return rng.choice((1, -1)) * rng.getrandbits(bits)


def random_module(rng):
    grading = lambda: Fraction(rng.randint(-40, 40), rng.choice((1, 2, 4)))
    return GradedModule(
        tuple(grading() for _ in range(rng.randint(0, 3))),
        tuple((rng.randint(1, 5), grading()) for _ in range(rng.randint(0, 3))),
        absolute=rng.random() < 0.5)


def random_report(rng, base):
    """``base`` with random values, every optional field present or
    absent at random."""
    maybe = lambda value: value if rng.random() < 0.5 else None
    rational = lambda: Fraction(random_int(rng), rng.choice((1, 3, 4, 8)))
    form = rng.choice((
        Family1(random_int(rng), tuple(rng.choice((0, 1, 7, 255, 256, 10**9))
                                       for _ in range(rng.randint(1, 8)))),
        Family2(random_int(rng), random_int(rng)),
        Family3(random_int(rng), rng.choice((-1, -2, -3)))))
    g = abs(random_int(rng)) + 2
    torsion = rng.choice(((), (g,), (g, g * (abs(random_int(rng)) + 1))))
    determinant = random_int(rng)
    stein = base.stein._replace(
        l_space=rng.random() < 0.5,
        tight=rng.random() < 0.5,
        fillable=rng.choice(("No", "Unknown", "Constrained")),
        euler_char=maybe(random_int(rng)),
        dehn_twist_count_bound=random_int(rng))
    bundle = TorusBundleModules(random_module(rng), random_int(rng),
                                random_module(rng), rng.random() < 0.5)
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
        correction_term=maybe(rational()),
        delta=maybe(rational()),
        signature=maybe(random_int(rng)),
        qa=rng.random() < 0.5,
        finite_order_screen=rng.choice((PASS, "Fail", "NotAKnot")),
        stein=stein,
        torus_bundle=maybe(bundle),
    )


def test_writer_matches_encoder_on_random_reports(rng, no_digit_limit):
    base = analyze_word(parse("h x y^-5"), include_torus_bundle=True)
    oracles = (None, {"determinant": 9, "signature": -2, "agrees": True},
               {"determinant": -10**5000, "signature": 0, "agrees": False},
               {"error": 'split "closure"\u2003'})
    for _ in range(1000):
        assert_writer_matches_encoder(random_report(rng, base),
                                      rng.choice(oracles))


def test_writer_escapes_word_characters(capsys, no_digit_limit):
    # str.split splits at non-ASCII whitespace, so this is the word x y.
    assert cli.main(["analyze", "--json", "x\u2003y"]) == 0
    assert capsys.readouterr().out.startswith('{"word":"x\\u2003y",')
    report = analyze_word(parse("x y"))
    for word in ('"', "\\", "\x1c", "\u2003", AWKWARD_CHARACTERS):
        assert_writer_matches_encoder(report._replace(word=word))


def reference_analyze_word(w, raw_text=None, include_torus_bundle=False):
    """``analyze_word`` as it was before its values were counts of
    quarters: the rows shifted as ``Fraction``s, the bundle's zero row
    renormalised from its ``Fraction`` module, delta twice the correction
    term, the Stein Euler characteristic 4d + 1, the screen of the public
    function, and the report built by keyword."""
    matrix = image(w)
    form = classify(w, matrix)
    components = components_from_image(matrix)
    det = determinant_from_image(matrix)
    h1 = homology.h1_from_image(matrix)
    hf = correction = delta_value = sig = bundle = None
    if det != 0:
        tag, n, k = floer._quarter_assembly(form)
        bottom, grading, rank = floer._row(tag, n)
        frees = ((rank, Fraction(grading + k, 4)),) if rank else ()
        hf = GradedModule((Fraction(bottom + k, 4),), frees)
        correction = hf.towers[0]
        if include_torus_bundle:
            bundle = TorusBundleModules(
                s0=renormalised_shift(FRACTION_ZERO_SURGERY_ROWS[tag],
                                      Fraction(k, 4)),
                non_s0_count=det - 1,
                non_s0_relative=GradedModule(
                    (Fraction(1, 2), Fraction(-1, 2)), (), absolute=False))
    if components == 1:
        delta_value = 2 * correction
        if isinstance(form, Family1):
            sig = signature(form, components)
    l_space, tight = floer.is_l_space(form), is_tight(form)
    twist_bound = 6 * form.d + murasugi.tail_exponent_sum(form)
    fillable, euler = invariants.NO, None
    if tight and not l_space:
        fillable = invariants.UNKNOWN
    elif tight and 4 * correction + 1 >= 1:
        fillable, euler = invariants.CONSTRAINED, int(4 * correction + 1)
    return invariants.InvariantReport(
        word=w_.run_text(w) if raw_text is None else raw_text,
        normal_form=form,
        components=components,
        determinant=det,
        h1=h1,
        b1=h1.free_rank,
        l_space=l_space,
        tight=tight,
        tight_inverse=is_tight_inverse(form),
        knot_type_tag=floer.knot_type(form),
        hf_plus_s0=hf,
        spin_c_count=det if hf is not None else None,
        correction_term=correction,
        delta=delta_value,
        signature=sig,
        qa=invariants.quasi_alternating(form),
        finite_order_screen=finite_order_screen(form, components),
        stein=invariants.SteinReport(l_space, tight, fillable, euler,
                                     twist_bound),
        torus_bundle=bundle,
    )


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
    assert cli._line(record, cli._quarter_text, None) == \
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
        assert cli._quarter_text(q) == cli._rational_fields(Fraction(q, 4)), q


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


def grammar_parse(text):
    """The grammar of ``parse`` on every token, as before the token loop
    looked unit tokens up first."""
    runs = []
    letter_count = 0
    for position, token in enumerate(text.split(), start=1):
        base, caret, exponent_text = token.partition("^")
        exponent = w_._exponent(exponent_text, token, position) if caret else 1
        try:
            positive, negative = w_._BASE_UNITS[base]
        except KeyError:
            raise w_.UnknownToken(f"unknown generator {base!r}",
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
                raise WordTooLong(f"more than {MAX_LETTERS} x/y letters",
                                  position)
        runs.append(run)
    return BraidWord(tuple(runs))


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


def groupby_run_text(w):
    """``run_text`` as one ``groupby`` group per generator and sign: an x/y
    group is summed to one token, an h group keeps a token per run."""
    tokens = []
    for (generator, _), group in itertools.groupby(
            w.runs, lambda r: (r[0], r[1] > 0)):
        exponents = [e for _, e in group]
        if generator != "h":
            exponents = [sum(exponents)]
        tokens += [generator if e == 1 else f"{generator}^{e}"
                   for e in exponents]
    return " ".join(tokens)


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


def pair_loop_seifert(reduced):
    """Dense V and the generators of a reduced diagram, one generator pair
    at a time."""
    crossings = [(0 if letter.generator == "x" else 1, letter.sign)
                 for letter in reduced]
    positions = {0: [], 1: []}
    for position, (column, _) in enumerate(crossings):
        positions[column].append(position)
    generators = [(column, first, second) for column in (0, 1)
                  for first, second in zip(positions[column],
                                           positions[column][1:])]
    sign_at = {pos: sign for pos, (_, sign) in enumerate(crossings)}
    n = len(generators)
    v = [[0] * n for _ in range(n)]
    for i, (column, p1, p2) in enumerate(generators):
        if sign_at[p1] == sign_at[p2]:
            v[i][i] = -1 if sign_at[p1] > 0 else 1
    for i, (column, p1, p2) in enumerate(generators):
        for j, (column2, q1, q2) in enumerate(generators):
            if j <= i:
                continue
            if column2 == column and q1 == p2:
                if sign_at[p2] > 0:
                    v[j][i] = 1
                else:
                    v[i][j] = -1
            elif column2 == column + 1:
                if q1 < p1 < q2 < p2:
                    v[j][i] = 1
                elif p1 < q1 < p2 < q2:
                    v[j][i] = -1
    return tuple(map(tuple, v)), tuple(generators)


def dense_crossing_rows(entries, generators):
    """Rows of V + V^T in crossing order, as dicts of the nonzeros."""
    n = len(generators)
    a = [[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)]
    order = sorted(range(n), key=lambda i: generators[i][1])
    return [{new: a[i][j] for new, j in enumerate(order) if a[i][j]}
            for i in order]


def fraction_pivots(rows):
    """Diagonal of a congruence diagonalization over the rationals, with the
    zero row, the transposition and the row/column add of the earlier
    integer elimination."""
    pivots = []

    def eliminate(k):
        row, rows[k] = rows[k], None
        pivot = row.pop(k)
        pivots.append(pivot)
        band = [(i, x) for i, x in row.items() if x]
        for index, (i, x) in enumerate(band):
            del rows[i][k]
            for j, y in band[index:]:
                rows[i][j] = rows[j][i] = \
                    rows[i].get(j, 0) - Fraction(x * y, pivot)

    for k, row in enumerate(rows):
        if row is None:
            continue
        if not row.get(k):
            band = [j for j, x in row.items() if x and j != k]
            if not band:
                pivots.append(0)
                continue
            swap = next((j for j in band if rows[j].get(j)), None)
            if swap is not None:
                eliminate(swap)
            else:
                j = band[0]
                for l, x in rows[j].items():
                    if x and l != k:
                        row[l] = rows[l][k] = row.get(l, 0) + x
                row[k] = 2 * row[j]
        eliminate(k)
    return pivots


def assert_oracle_matches_old(w):
    """The sparse rows equal the pair loop's dense V + V^T in crossing
    order, and the integer elimination gives the rational one's signature
    and |det|.  Returns the matrix and the pair loop's dense V."""
    entries, generators = pair_loop_seifert(w)
    matrix = seifert_matrix(w)
    assert matrix.generators == generators, w
    expected = dense_crossing_rows(entries, generators)
    rows = matrix._rows()
    assert [{j: x for j, (x, _) in row.items()} for row in rows] == expected, w
    assert all(stamp == 0 for row in rows for _, stamp in row.values()), w
    pivots = fraction_pivots(expected)
    assert sym_signature(matrix) == \
        sum(1 if pivot > 0 else -1 for pivot in pivots if pivot), w
    assert sym_determinant(matrix) == abs(prod(pivots)), w
    assert all(type(pivot) is int for pivot in matrix._pivots), w
    return matrix, entries


def test_oracle_matches_old_code_on_all_short_diagrams():
    # Every non-split word of 2-8 letters reduces to one of these.
    level = [()]
    checked = 0
    for length in range(1, 9):
        level = [letters + (letter,) for letters in level for letter in LETTERS
                 if not letters or letters[-1] != letter.inverse()]
        for letters in level:
            if {letter.generator for letter in letters} == {"x", "y"}:
                matrix, entries = assert_oracle_matches_old(BraidWord(letters))
                assert matrix.entries == entries, letters
                assert matrix._pivots == \
                    SeifertMatrix(entries, matrix.generators)._pivots, letters
                checked += 1
    assert checked == 13_088


@pytest.mark.parametrize("alphabet", [LETTERS, (w_.X, w_.Y), (w_.X, w_.Y_INV)],
                         ids=["uniform", "positive", "alternating"])
def test_oracle_matches_old_code_on_long_words(rng, alphabet):
    for length in (10, 40, 200, 700, 2000):
        reduced = free_reduce(BraidWord(
            tuple(rng.choice(alphabet) for _ in range(length))))
        if {letter.generator for letter in reduced} == {"x", "y"}:
            assert_oracle_matches_old(reduced)


def test_seifert_pass_makes_linearly_many_steps():
    # In y^m x^m y^m x^m every x-pair opens and closes inside a stretch of m
    # x crossings, so a pass that finds the open y-pair by rescanning the
    # earlier crossings takes about m steps per x crossing.  Counting the
    # lines run in the seifert module, not time, keeps the test exact: the
    # words at m and 2m have the same shape, so a linear pass takes at most
    # twice the steps.
    path = seifert_module.__file__
    steps = 0

    def tracer(frame, event, arg):
        nonlocal steps
        if frame.f_code.co_filename != path:
            return None
        steps += event == "line"
        return tracer

    def count(m):
        nonlocal steps
        word = parse(f"y^{m} x^{m} y^{m} x^{m}")
        steps = 0
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            matrix = seifert_matrix(word)
        finally:
            sys.settrace(previous)
        assert matrix.size == 4 * m - 2
        return steps

    small, large = count(250), count(500)
    assert small > 1000
    assert large <= 2 * small, (small, large)


def attribute_free_reduce(w):
    """The letter stack that compares generator and sign attributes."""
    stack = []
    for letter in w:
        if stack and stack[-1].generator == letter.generator \
                and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(tuple(stack))


def test_free_reduce_matches_the_attribute_stack(rng):
    # Every word of at most 7 letters, then random run sequences with h runs
    # and power runs of both signs.
    words = [BraidWord(letters) for length in range(8)
             for letters in itertools.product(LETTERS, repeat=length)]
    runs = [*LETTERS, ("x", 3), ("x", -2), ("y", 4), ("y", -3),
            ("h", 1), ("h", -1), ("h", -2)]
    words += [BraidWord(tuple(rng.choice(runs)
                              for _ in range(rng.randint(0, 40))))
              for _ in range(2000)]
    for w in words:
        reduced, expected = free_reduce(w), attribute_free_reduce(w)
        assert reduced.runs == expected.runs, w
        assert reduced.letters == BraidWord(reduced.runs).letters, w


def per_run_letters(runs):
    """The letters of a run sequence, each run expanded on its own."""
    return tuple(itertools.chain.from_iterable(map(w_._run_letters, runs)))


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
