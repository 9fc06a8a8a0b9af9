import pytest

from threebraid import words as w_
from threebraid.homology import (
    CENTRAL,
    ELLIPTIC,
    HYPERBOLIC,
    IDENTITY,
    PARABOLIC,
    AbelianGroup,
    NotParabolic,
    SL2Matrix,
    determinant,
    h1_branched_cover,
    image,
    h1_from_image,
    parabolic_invariant,
    trace_class,
)
from threebraid.murasugi import canonical_word, classify
from threebraid.words import parse

from conftest import random_word


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2))


def test_image_of_empty_word():
    assert image(parse("")) == IDENTITY


def test_image_of_full_twist_is_minus_identity():
    # Independent oracle: multiply the six generator matrices by hand.
    x = ((1, 1), (0, 1))
    y = ((1, 0), (-1, 1))
    product = ((1, 0), (0, 1))
    for m in (x, y, x, y, x, y):
        product = _matmul(product, m)
    assert product == ((-1, 0), (0, -1))
    assert image(parse("h")) == SL2Matrix(-1, 0, 0, -1)


def test_image_fixture():
    assert image(parse("x y^-1")) == SL2Matrix(2, 1, 1, 1)


def test_image_multiplicative(rng):
    for _ in range(200):
        u = random_word(rng, 20)
        w = random_word(rng, 20)
        assert image(w_.concat(u, w)) == image(u) * image(w)


def test_image_has_determinant_one(rng):
    # The SL2Matrix constructor checks det = 1; exercising long words makes
    # sure the entries stay exact.
    for _ in range(400):
        m = image(random_word(rng, 60))
        assert m.a * m.d - m.b * m.c == 1


def test_a_bad_determinant_prints_no_entry(default_int_digit_limit):
    # 2**2200 has 663 digits, past the lowest int-to-str limit, so a
    # message that printed the entries would raise the conversion error.
    import sys
    sys.set_int_max_str_digits(640)
    with pytest.raises(ValueError, match="^the matrix's determinant is not 1$"):
        SL2Matrix(2**2200, 0, 0, 1)


def test_smith_normal_form_fixtures():
    # H1 is the cokernel of m - I: here ((-2, 0), (0, -2)), ((1, 1), (1, 0))
    # and the zero matrix.
    assert h1_from_image(SL2Matrix(-1, 0, 0, -1)) == AbelianGroup(0, (2, 2))
    assert h1_from_image(SL2Matrix(2, 1, 1, 1)) == AbelianGroup(0, ())
    assert h1_from_image(SL2Matrix(1, 0, 0, 1)) == AbelianGroup(2, ())


def test_abelian_group_checks_its_torsion():
    with pytest.raises(ValueError, match="divisibility"):
        AbelianGroup(0, (2, 3))
    with pytest.raises(ValueError, match=">= 2"):
        AbelianGroup(0, (1, 2))
    # A zero is refused for its size before anything is divided by it.
    with pytest.raises(ValueError, match=">= 2"):
        AbelianGroup(0, (0, 3))
    assert AbelianGroup(0, (2, 4)).order == 8
    assert AbelianGroup(0).order == 1
    assert AbelianGroup(1, (3,)).order is None


def test_h1_fixtures():
    assert h1_branched_cover(parse("h")) == AbelianGroup(0, (2, 2))
    assert h1_branched_cover(parse("y x^5")) == AbelianGroup(0, (5,))
    assert h1_branched_cover(parse("y^3")).free_rank >= 1


def test_determinant_fixtures():
    assert determinant(parse("x y^-1")) == 1
    assert determinant(parse("x y^-1 x y^-1")) == 5
    assert determinant(parse("x y y x")) == 4


def test_snf_conjugation_invariant(rng):
    for _ in range(200):
        w = random_word(rng, 20)
        u = random_word(rng, 10)
        assert h1_branched_cover(w_.conjugate(w, u)) == h1_branched_cover(w)


def test_determinant_mirror_symmetric(rng):
    for _ in range(200):
        w = random_word(rng, 25)
        assert determinant(w_.inverse(w)) == determinant(w)


def test_lens_space_family_h1_orders():
    # h x^m y^-1 has cyclic first homology of order m + 4.
    for m in range(0, 9):
        word = parse(f"h x^{m} y^-1")
        group = h1_branched_cover(word)
        assert group.order == m + 4


def test_trace_class_fixtures():
    minus_identity = SL2Matrix(-1, 0, 0, -1)
    assert trace_class(minus_identity).kind == CENTRAL
    assert trace_class(minus_identity).epsilon == -1
    hyperbolic = trace_class(image(parse("x y^-1")))
    assert (hyperbolic.kind, hyperbolic.epsilon) == (HYPERBOLIC, 1)
    assert trace_class(image(parse("x^-2 y^-1"))).kind == ELLIPTIC
    assert trace_class(image(parse("y^3"))).kind == PARABOLIC


def test_parabolic_invariant_fixtures():
    assert parabolic_invariant(image(parse("y^3"))) == (1, 3)
    assert parabolic_invariant(image(parse("x^3"))) == (1, 3)
    assert parabolic_invariant(image(parse("h y^-1"))) == (-1, -1)


def test_parabolic_invariant_model_values():
    for m in range(-20, 21):
        if m == 0:
            continue
        assert parabolic_invariant(image(parse(f"y^{m}"))) == (1, m)


def test_parabolic_invariant_rejects_non_parabolic(default_int_digit_limit):
    # The second image's entries have more than 4,300 digits, which the
    # message must not print under the default int-to-str limit.
    for text in ("x y^-1", "x y^-1 " * 12000):
        with pytest.raises(NotParabolic, match="Hyperbolic"):
            parabolic_invariant(image(parse(text)))


def test_trace_sign_tracks_twist_parity(rng):
    # Coherence of the epsilon sign with the power of the full twist.
    for _ in range(150):
        w = random_word(rng, 20)
        form = classify(w)
        model = image(canonical_word(form))
        actual = image(w)
        assert model.trace == actual.trace
