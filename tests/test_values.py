"""The value types are named tuples (``BraidWord`` a plain class): every
construction path runs its type's check, every value survives pickling,
none can be assigned to, and the three forms compare only within their
family."""

import pickle
from fractions import Fraction

import pytest

from threebraid import cli
from threebraid.floer import GradedModule, hfk_binding
from threebraid.homology import IDENTITY, AbelianGroup, image, trace_class
from threebraid.invariants import analyze_word
from threebraid.murasugi import (
    Family1,
    Family2,
    Family3,
    classify,
    psl2_normal_form,
)
from threebraid.words import permutation, parse


def test_replace_runs_the_checked_constructor():
    with pytest.raises(ValueError, match="determinant"):
        IDENTITY._replace(a=2)
    with pytest.raises(ValueError, match="divisibility"):
        AbelianGroup(0, (2,))._replace(torsion=(3, 2))
    assert Family1(0, (2, 1))._replace(a=(2, 1)).a == (1, 2)
    module = GradedModule((Fraction(0),))._replace(
        towers=(Fraction(1), Fraction(-1)),
        frees=((1, Fraction(0)), (0, Fraction(2)), (2, Fraction(0))))
    assert module.towers == (Fraction(-1), Fraction(1))
    assert module.frees == ((3, Fraction(0)),)
    # The generated _make counts fields with len, which here counts
    # syllables.
    word = psl2_normal_form(parse("x y^-1 x y^-2"))
    assert word._replace(syllables=b"\x00") == psl2_normal_form(parse("x^-2 y^-1"))


def every_value_type():
    w = parse("h^2 x y^-1 x y^-2")
    report = analyze_word(parse("h x y^-5"), include_torus_bundle=True)
    return [w, w.runs[1], permutation(w), image(w), trace_class(image(w)),
            psl2_normal_form(w), classify(w), classify(parse("y^-1")),
            classify(parse("x^-1 y^-1")), hfk_binding(report.normal_form),
            report, report.h1, report.hf_plus_s0, report.stein,
            report.torus_bundle]


def test_every_value_type_survives_pickling_and_refuses_assignment():
    values = every_value_type()
    assert len({type(value) for value in values}) == len(values)
    for value in values:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(value, protocol))
            assert type(copy) is type(value) and copy == value, (value, protocol)
        field = "runs" if hasattr(value, "runs") else value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 0


def test_words_refuse_assignment_and_keep_their_repr():
    w = parse("h x")
    with pytest.raises(AttributeError):
        del w.runs
    assert repr(w) == "BraidWord(runs=(('h', 1), Letter(generator='x', sign=1)))"
    assert w.runs == (("h", 1), ("x", 1))


def test_forms_compare_only_within_their_family():
    for d in range(-3, 4):
        for m in (-1, -2, -3):
            two, three, one = Family2(d, m), Family3(d, m), Family1(d, (-m,))
            assert two != three and not two == three, (d, m)
            assert hash(two) != hash(three), (d, m)
            assert len({one, two, three}) == 3, (d, m)
            for form in (one, two, three):
                fields = tuple(form)
                assert form != fields and fields != form, form
                assert not (form == fields or fields == form), form
                assert form == type(form)(*fields), form
                assert hash(form) == hash(type(form)(*fields)), form
    # y^-1 and x^-1 y^-1 have the forms Family2(0, -1) and Family3(0, -1).
    assert cli.main(["conjugate", "y^-1", "x^-1 y^-1"]) == 1
