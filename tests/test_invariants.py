from collections import Counter
from fractions import Fraction as Q

import pytest

from threebraid import floer, homology, murasugi
from threebraid.floer import correction_term, is_l_space
from threebraid.invariants import (
    CONSTRAINED,
    FAIL,
    NO,
    NOT_A_KNOT,
    PASS,
    UNKNOWN,
    FamilyNotCovered,
    NotAKnot,
    analyze_word,
    delta,
    finite_order_screen,
    quasi_alternating,
    signature,
    stein_report,
)
from threebraid.murasugi import (
    Family1,
    Family2,
    Family3,
    canonical_word,
    classify,
    mirror_form,
)
from threebraid.seifert import seifert_matrix, sym_signature
from threebraid.words import components, parse

from conftest import all_forms, knot_forms, literature_box


def test_delta_fixtures():
    assert delta(Family1(1, (5,)), 1) == 0
    assert delta(Family3(2, -3), 1) == 3
    assert delta(Family1(0, (1, 1)), 1) == 0


def test_delta_errors():
    with pytest.raises(NotAKnot):
        delta(Family1(1, (2,)), 2)
    with pytest.raises(FamilyNotCovered):
        delta(Family2(1, -1), 1)
    with pytest.raises(FamilyNotCovered):
        delta(Family3(1, -2), 1)


def test_signature_fixtures():
    assert signature(Family1(1, (1,)), 1) == -4
    assert signature(Family1(1, (5,)), 1) == 0
    assert signature(Family1(0, (1, 1)), 1) == 0


def test_signature_errors():
    with pytest.raises(NotAKnot):
        signature(Family1(1, (1,)), 3)
    with pytest.raises(FamilyNotCovered):
        signature(Family3(1, -1), 1)


def test_finite_order_screen_fixtures():
    assert finite_order_screen(Family1(1, (5,)), 1) == PASS
    assert finite_order_screen(Family3(2, -1), 1) == FAIL
    assert finite_order_screen(Family2(1, 0), 3) == NOT_A_KNOT
    assert finite_order_screen(Family2(1, -1), 2) == NOT_A_KNOT


def test_unknot_closures_pass_screen():
    for text in ("x y^-1", "x y", "x^-1 y^-1", "x^-1 y"):
        word = parse(text)
        assert components(word) == 1
        assert finite_order_screen(classify(word), 1) == PASS


def test_quasi_alternating_fixtures():
    assert quasi_alternating(Family1(1, (5,)))
    assert not quasi_alternating(Family2(1, 0))
    assert not quasi_alternating(Family3(2, -1))
    assert quasi_alternating(Family2(-1, 3))
    assert not quasi_alternating(Family2(-1, -3))


def test_stein_report_fixtures():
    report = stein_report(Family1(1, (7,)))
    assert (report.l_space, report.tight, report.fillable) == (True, True, NO)
    assert report.euler_char is None

    report = stein_report(Family2(1, -1))
    assert report.fillable == CONSTRAINED
    assert report.euler_char == 4
    assert report.dehn_twist_count_bound == 5

    report = stein_report(Family1(0, (1, 1)))
    assert report.fillable == NO

    report = stein_report(Family1(3, (1,)))  # tight but not an L-space
    assert report.fillable == UNKNOWN


def test_stein_euler_characteristic_is_positive_when_constrained():
    for form in all_forms(range(-4, 5), 6, max_blocks=3):
        report = stein_report(form)
        if report.fillable == CONSTRAINED:
            assert report.euler_char >= 1
            assert report.euler_char == 4 * correction_term(form) + 1
        else:
            assert report.euler_char is None


def test_correction_terms_are_quarter_integers(rng):
    """Every correction term is a row bottom shifted by k/4, so the Stein
    report's Euler characteristic 4d + 1 is always an integer."""
    forms = all_forms(range(-6, 7), 4)
    for _ in range(50):
        d = rng.randint(-10**17, 10**17)
        a = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 400)))
        forms += [Family1(d, a if any(a) else a + (1,)),
                  Family2(d, rng.randint(-10**6, 10**6)),
                  Family3(d, rng.choice((-1, -2, -3)))]
    for form in forms:
        if floer.form_determinant(form) != 0:
            assert (4 * correction_term(form)).denominator == 1, form


def test_screen_pass_forces_vanishing_obstructions():
    for form in knot_forms(range(-1, 2), 6, max_blocks=4):
        if finite_order_screen(form, 1) != PASS:
            continue
        assert delta(form, 1) == 0
        if isinstance(form, Family1):
            assert signature(form, 1) == 0


def test_mirror_antisymmetry_of_delta_and_signature():
    for form in knot_forms(range(-3, 4), 5, max_blocks=3):
        mirrored = mirror_form(form)
        assert delta(mirrored, 1) == -delta(form, 1)
        if isinstance(form, Family1):
            assert signature(mirrored, 1) == -signature(form, 1)


def test_quasi_alternating_covers_are_l_spaces():
    for form in all_forms(range(-5, 6), 8, max_blocks=3):
        if quasi_alternating(form):
            assert is_l_space(form)


def test_thin_relation_for_quasi_alternating_family1_knots():
    for form in knot_forms(range(-1, 2), 6, max_blocks=4):
        if not isinstance(form, Family1) or not quasi_alternating(form):
            continue
        assert delta(form, 1) == Q(-signature(form, 1), 2)


def test_delta_is_twice_correction_term():
    for form in knot_forms(range(-6, 7), 5, max_blocks=5):
        assert delta(form, 1) == 2 * correction_term(form)


def test_signature_formula_matches_seifert_oracle():
    checked = 0
    for form in knot_forms(range(-2, 3), 4, max_blocks=4):
        if not isinstance(form, Family1):
            continue
        word = canonical_word(form)
        assert signature(form, 1) == sym_signature(seifert_matrix(word))
        checked += 1
    assert checked > 100


def test_lisca_owens_signature_is_minus_four_correction_terms():
    # Lisca and Owens (Proc. AMS 143, 2015): the double cover of a
    # quasi-alternating link has d = -sigma/4 in its canonical spin-c
    # structure, which pins the surgery rows and the grading shifts of all
    # three families against the diagram.
    checked = 0
    for form in literature_box():
        if not quasi_alternating(form):
            continue
        matrix = seifert_matrix(canonical_word(form))
        assert sym_signature(matrix) == -4 * correction_term(form), form
        checked += 1
    assert checked == 324


def test_report_fixture_eight_twenty():
    report = analyze_word(parse("h x y^-5"))
    assert report.normal_form == Family1(1, (5,))
    assert report.determinant == 9
    assert report.qa
    assert report.delta == 0
    assert report.signature == 0
    assert report.finite_order_screen == PASS
    assert report.spin_c_count == 9
    assert report.correction_term == 0


def test_report_positive_b1():
    report = analyze_word(parse(""), include_torus_bundle=True)
    assert report.normal_form == Family2(0, 0)
    assert report.components == 3
    assert report.determinant == 0
    assert report.b1 == 2
    assert report.hf_plus_s0 is None
    assert report.spin_c_count is None
    assert report.correction_term is None
    assert report.torus_bundle is None
    assert not report.l_space


def test_report_optional_fields_follow_components():
    report = analyze_word(parse("x x y x x"))  # two-component closure
    assert report.components == 2
    assert report.delta is None
    assert report.signature is None
    assert report.finite_order_screen == NOT_A_KNOT

    report = analyze_word(parse("x y"))  # unknot
    assert report.delta == 0
    assert report.signature is None  # no closed form outside family 1


def test_one_derivation_per_report(monkeypatch):
    """A report multiplies the word out once, builds no model word and no
    mirror, and builds HF+ at most once."""
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(homology, "image")
    count(murasugi, "canonical_word")
    count(murasugi, "mirror_form")
    count(floer, "hf_plus_s0")
    for text, form in (("h x y^-5", Family1(1, (5,))),
                       ("h^3 y^2", Family2(3, 2)),
                       ("h^-2 x^-2 y^-1", Family3(-2, -2))):
        calls.clear()
        report = analyze_word(parse(text), include_torus_bundle=True)
        assert report.normal_form == form
        assert report.torus_bundle is not None
        assert calls["image"] == 1, text
        assert calls["canonical_word"] == calls["mirror_form"] == 0, text
        assert calls["hf_plus_s0"] <= 1, text


def test_one_floer_assembly_per_report(monkeypatch):
    """Every Floer and Stein value of a report, the torus bundle included,
    is read from one derivation of the form's assembly."""
    calls = []
    quarter_assembly = floer._quarter_assembly

    def counting(f):
        calls.append(f)
        return quarter_assembly(f)

    monkeypatch.setattr(floer, "_quarter_assembly", counting)
    for text in ("h x y^-5", "x y"):
        calls.clear()
        report = analyze_word(parse(text), include_torus_bundle=True)
        assert report.delta is not None and report.torus_bundle is not None
        assert calls == [report.normal_form], text


def test_default_word_text_keeps_each_twist_run_as_one_token():
    report = analyze_word(canonical_word(Family2(10**17, 5)))
    assert report.word == "h^100000000000000000 y^5"
    assert report.normal_form == Family2(10**17, 5)
    assert analyze_word(parse("x x y^-1 y^-2")).word == "x^2 y^-3"
