"""Exhaustive sweeps over all short words.

Random fuzzing elsewhere covers long words; here every word up to a fixed
length is enumerated, so any systematic defect in the classifier or the
oracle on short inputs is caught unconditionally.
"""

import pytest

from threebraid import murasugi
from threebraid import words as w_
from threebraid.homology import (
    InternalInconsistency,
    determinant,
    h1_branched_cover,
    image,
)
from threebraid.murasugi import (
    Family2,
    Family3,
    canonical_word,
    classify,
    psl2_normal_form,
)
from threebraid.seifert import seifert_matrix, sym_determinant
from threebraid.words import components, exponent_sum

from reference import up_to


def all_words(short_words, max_len):
    for word in up_to(short_words, max_len):
        yield w_.BraidWord(word.letters)


def test_classifier_consistency_on_all_short_words(short_words):
    for w in all_words(short_words, 7):
        form = classify(w)
        model = canonical_word(form)
        assert classify(model) == form
        assert exponent_sum(model) == exponent_sum(w)
        assert components(model) == components(w)
        assert determinant(model) == determinant(w)
        assert h1_branched_cover(model) == h1_branched_cover(w)
        assert image(model).trace == image(w).trace
        assert psl2_normal_form(model).cyclic_key() == \
            psl2_normal_form(w).cyclic_key()


def test_image_check_rejects_each_neighbour_of_a_family_2_or_3_form(
        short_words):
    # The image check of families 2 and 3 reads a complete conjugacy
    # invariant, so a word's image fits its form and no form next to it.
    checked = 0
    for w in all_words(short_words, 7):
        form = classify(w)
        if isinstance(form, Family3):
            neighbours = [Family3(form.d + 1, form.m),
                          Family3(form.d - 1, form.m)] + \
                [Family3(form.d, m) for m in (-1, -2, -3) if m != form.m]
        elif isinstance(form, Family2):
            neighbours = [Family2(form.d + 1, form.m),
                          Family2(form.d - 1, form.m),
                          Family2(form.d, form.m + 1),
                          Family2(form.d, form.m - 1)]
        else:
            continue
        m = image(w)
        murasugi._check_image(form, m)
        for neighbour in neighbours:
            with pytest.raises(InternalInconsistency):
                murasugi._check_image(neighbour, m)
        checked += 1
    assert checked == 13485


def test_oracle_determinant_on_all_short_nonsplit_words(short_words):
    for w in all_words(short_words, 6):
        reduced = w_.free_reduce(w)
        if {letter.generator for letter in reduced} != {"x", "y"}:
            continue
        assert sym_determinant(seifert_matrix(w)) == determinant(w)


def test_long_words_stay_exact():
    # Words are not length-bounded; matrix entries grow exponentially but
    # stay exact, and the classifier still round-trips.
    w = w_.power(w_.parse("x y^-1 x^2 y^-3"), 300)
    form = classify(w)
    assert classify(canonical_word(form)) == form
    assert determinant(w) == determinant(canonical_word(form))
    assert image(w).a.bit_length() > 500
