import tracemalloc

import pytest

from threebraid import cli, murasugi
from threebraid import words as w_
from threebraid.homology import image
from threebraid.invariants import analyze_word
from threebraid.murasugi import (
    S,
    U,
    UU,
    Family1,
    Family2,
    Family3,
    FreeProductWord,
    InvalidForm,
    canonical_word,
    classify,
    is_conjugate,
    least_rotation,
    mirror_form,
    psl2_normal_form,
)
from threebraid.words import parse

from conftest import random_word


def test_dictionary_calibration():
    # The two braid generators map to the two distinct block syllables and
    # their free-product images lift to the generator matrices up to sign.
    assert psl2_normal_form(parse("x")).syllables == bytes((S, U))
    assert psl2_normal_form(parse("y^-1")).syllables == bytes((S, UU))

    s_matrix = ((0, -1), (1, 0))
    t_matrix = ((1, 1), (0, 1))

    def matmul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2))

    u_matrix = matmul(s_matrix, t_matrix)
    su = matmul(s_matrix, u_matrix)
    us = matmul(u_matrix, s_matrix)
    x = image(parse("x"))
    y = image(parse("y"))
    assert su == ((-x.a, -x.b), (-x.c, -x.d))
    assert us == ((-y.a, -y.b), (-y.c, -y.d))
    # S has order 2 and U order 3 in PSL(2,Z).
    assert matmul(s_matrix, s_matrix) == ((-1, 0), (0, -1))
    assert matmul(u_matrix, matmul(u_matrix, u_matrix)) == ((-1, 0), (0, -1))


def test_psl2_normal_form_fixtures():
    assert psl2_normal_form(parse("")) == FreeProductWord()
    assert psl2_normal_form(parse("h")) == FreeProductWord()
    assert psl2_normal_form(parse("x^-2 y^-1")).syllables == bytes((S,))


def test_classify_fixtures():
    assert classify(parse("x x y x x")) == Family2(1, -1)
    assert classify(parse("y x^5")) == Family1(1, (1,))
    assert classify(parse("x y^-1 x y^-1")) == Family1(0, (1, 1))
    assert classify(parse("y x y^-3 y^-1 x^-1")) == Family1(0, (4,))


def test_classify_boundary_conventions():
    assert classify(parse("")) == Family2(0, 0)
    assert classify(parse("h^3")) == Family2(3, 0)
    assert classify(parse("x^4")) == Family2(0, 4)
    assert classify(parse("y^-2")) == Family2(0, -2)


@pytest.mark.parametrize("text, form", [
    ("x^999999", Family2(0, 999999)),
    ("y^-999999 x", Family1(0, (999999,))),
])
def test_power_run_classifies_in_bounded_memory(text, form):
    # A run of n letters is 2n syllable bytes; a few copies of them stay
    # far under 16 MiB, which one Python object per syllable would pass.
    w = parse(text)
    tracemalloc.start()
    try:
        assert classify(w) == form
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_canonical_word_fixtures():
    assert str(canonical_word(Family3(1, -1))) == "x y x y x y x^-1 y^-1"
    assert str(canonical_word(Family1(0, (4,)))) == "x y^-4"
    expected = parse("y^-1 x^-1 y^-1 x^-1 y^-1 x^-1 y^2")
    assert canonical_word(Family2(-1, 2)) == expected


def test_canonical_word_rejects_invalid_forms():
    with pytest.raises(InvalidForm):
        canonical_word(Family1(0, ()))
    with pytest.raises(InvalidForm):
        canonical_word(Family1(1, (0, 0)))
    with pytest.raises(InvalidForm):
        canonical_word(Family1(1, (2, -1)))
    with pytest.raises(InvalidForm):
        canonical_word(Family3(0, -4))
    for form in (Family1(0, ()), Family1(1, (0, 0)), Family1(1, (2, -1)),
                 Family3(0, -4), Family3(2, 0), (0, 1)):
        with pytest.raises(InvalidForm):
            mirror_form(form)


def test_family1_tuple_stored_as_least_rotation():
    assert Family1(0, (2, 1)).a == (1, 2)
    assert Family1(0, (3, 0, 1)).a == (0, 1, 3)
    assert Family1(0, (1, 1)).a == (1, 1)


def test_one_least_rotation_per_family1_form(monkeypatch):
    calls = []
    least_start = murasugi._least_start

    def counting(doubled, n):
        calls.append((doubled, n))
        return least_start(doubled, n)

    monkeypatch.setattr(murasugi, "_least_start", counting)
    for text in ("y x^5", "x y^-3 x y^-1 x y^-2", "h^-2 x^2 y^-1 x y^-4"):
        calls.clear()
        form = classify(parse(text))
        assert isinstance(form, Family1) and len(calls) == 1, text
        calls.clear()
        mirror_form(form)
        assert len(calls) == 1, text
    # A long word has its rotation found by one scan of the bytes tokens
    # between its longest R-runs: here the one R^3, of x^3, so one token.
    calls.clear()
    form = classify(parse("x y^-1 x^2 y^-3 " * 40 + "x^3 y^-1"))
    assert isinstance(form, Family1) and len(calls) == 1
    (doubled, n), = calls
    assert n == 1 and len(doubled) == 2, calls
    assert all(type(token) is bytes for token in doubled), calls


def test_one_least_rotation_per_pretty_report(monkeypatch, capsys):
    calls = []

    def counting(seq):
        calls.append(seq)
        return least_rotation(seq)

    monkeypatch.setattr(murasugi, "least_rotation", counting)
    for flags in ([], ["--json"]):
        calls.clear()
        assert cli.main(["analyze", "x y^-3 x y^-1 x y^-2", *flags]) == 0
        assert len(calls) == 1, flags
    assert "canonical word:      x y^-1 x y^-2 x y^-3" in capsys.readouterr().out


def test_classify_builds_no_free_product_word(monkeypatch):
    # The syllable pass hands classify bare bytes: only psl2_normal_form,
    # which returns one, builds a FreeProductWord.
    def refuse(*args):
        raise AssertionError("FreeProductWord built")

    monkeypatch.setattr(murasugi, "FreeProductWord", refuse)
    for text, form in (("h^2", Family2(2, 0)), ("x^-1 y^-1", Family3(0, -1)),
                       ("h y^3", Family2(1, 3)),
                       ("x y^-1 x y^-2", Family1(0, (1, 2)))):
        w = parse(text)
        assert classify(w) == form, text
        assert analyze_word(w, include_torus_bundle=True).normal_form == form
        with pytest.raises(AssertionError, match="FreeProductWord built"):
            psl2_normal_form(w)


@pytest.mark.parametrize("runs", [(("z", 2),), (("z", 1),),
                                  (w_.X, w_.Y, ("z", 1), w_.X, w_.Y)])
def test_malformed_runs_are_rejected_by_both_passes(runs):
    w = w_.BraidWord(runs)
    for derive in (image, classify):
        with pytest.raises(ValueError, match="malformed run.*'z'"):
            derive(w)


def test_is_conjugate_fixtures(rng):
    assert is_conjugate(parse("x"), parse("y"))
    assert not is_conjugate(parse("x"), parse("x^-1"))
    assert is_conjugate(parse("x y^-1 x y^-2"), parse("x y^-2 x y^-1"))
    for _ in range(100):
        w = random_word(rng, 20)
        u = random_word(rng, 10)
        assert is_conjugate(w, w_.conjugate(w, u))


def test_classify_invariant_under_rotation(rng):
    for _ in range(200):
        w = random_word(rng, 24)
        if len(w) == 0:
            continue
        k = rng.randrange(len(w))
        rotated = w_.word(w.letters[k:] + w.letters[:k])
        assert classify(rotated) == classify(w)


def test_round_trip_is_fixed_point(rng):
    for _ in range(500):
        w = random_word(rng, 40)
        form = classify(w)
        again = classify(canonical_word(form))
        assert form == again
        assert w_.exponent_sum(canonical_word(form)) == w_.exponent_sum(w)
        assert psl2_normal_form(canonical_word(form)).cyclic_key() == \
            psl2_normal_form(w).cyclic_key()


def test_families_are_exhaustive_and_exclusive(rng):
    for _ in range(500):
        form = classify(random_word(rng, 30))
        assert isinstance(form, (Family1, Family2, Family3))
        if isinstance(form, Family1):
            assert form.a and all(a >= 0 for a in form.a) and any(form.a)
        if isinstance(form, Family3):
            assert form.m in (-1, -2, -3)


def test_mirror_relation_family2(rng):
    for d in range(-3, 4):
        for m in range(-4, 5):
            assert mirror_form(Family2(d, m)) == Family2(-d, -m)


def test_mirror_swaps_block_counts():
    # The inverse of a pseudo-Anosov form trades the number of blocks for the
    # total twisting and negates d.
    for form in (Family1(1, (5,)), Family1(0, (1, 2)), Family1(-2, (3, 0, 1))):
        mirrored = mirror_form(form)
        assert isinstance(mirrored, Family1)
        assert mirrored.d == -form.d
        assert len(mirrored.a) == sum(form.a)
        assert sum(mirrored.a) == len(form.a)


def test_exponent_sum_consistency_equations(rng):
    for _ in range(300):
        w = random_word(rng, 30)
        e = w_.exponent_sum(w)
        form = classify(w)
        if isinstance(form, Family1):
            assert e == 6 * form.d + len(form.a) - sum(form.a)
        elif isinstance(form, Family2):
            assert e == 6 * form.d + form.m
        else:
            assert e == 6 * form.d + form.m - 1
