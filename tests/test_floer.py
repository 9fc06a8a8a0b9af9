from fractions import Fraction as Q

import pytest

from threebraid.floer import (
    FIGURE_EIGHT_LIKE,
    LEFT_TREFOIL_LIKE,
    RIGHT_TREFOIL_LIKE,
    B1NotOne,
    GradedModule,
    HfkBindingProfile,
    NotLSpace,
    PositiveB1,
    correction_term,
    form_determinant,
    hf_plus_s0,
    hfk_binding,
    is_l_space,
    is_tight,
    knot_type,
    shift,
    surgery_table,
    torus_bundle_hf,
    zero_surgery_table,
)
from threebraid.murasugi import Family1, Family2, Family3


def module(towers, frees=()):
    return GradedModule(tuple(Q(t) for t in towers),
                        tuple((r, Q(g)) for r, g in frees))


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


def literature_box():
    """The 1,364 forms with |d| <= 5: family-1 tuples of 1-4 entries over
    0..3, family 2 with |m| <= 8, and family 3."""
    forms = [form for form in all_forms(range(-5, 6), 3)
             if not isinstance(form, Family2)]
    forms += [Family2(d, m) for d in range(-5, 6) for m in range(-8, 9)]
    return forms


# --- the two surgery tables, verbatim ---------------------------------------

RIGHT_ROWS = {
    3: module([-2], [(2, -2)]),
    1: module([-2]),
    0: module([0]),
    -1: module([0], [(1, -1)]),
    -4: module([0], [(4, -1)]),
}

LEFT_ROWS = {
    2: module([0], [(2, 0)]),
    0: module([0]),
    -1: module([2]),
    -2: module([2], [(1, 1)]),
}

EIGHT_ROWS = {
    2: module([0], [(2, -1)]),
    0: module([0]),
    -3: module([0], [(3, 0)]),
}


def test_surgery_table_right_trefoil_rows():
    for n, expected in RIGHT_ROWS.items():
        assert surgery_table(RIGHT_TREFOIL_LIKE, n) == expected


def test_surgery_table_left_trefoil_rows():
    for n, expected in LEFT_ROWS.items():
        assert surgery_table(LEFT_TREFOIL_LIKE, n) == expected


def test_surgery_table_figure_eight_rows():
    for n, expected in EIGHT_ROWS.items():
        assert surgery_table(FIGURE_EIGHT_LIKE, n) == expected


def test_surgery_table_n_zero_is_three_sphere():
    # The weak-inequality rows of the surgery table meet at n = 0, where both
    # must give HF+(S^3), a bare tower at grading zero.
    for tag in (RIGHT_TREFOIL_LIKE, LEFT_TREFOIL_LIKE, FIGURE_EIGHT_LIKE):
        assert surgery_table(tag, 0) == module([0])


def test_zero_surgery_rows():
    assert zero_surgery_table(RIGHT_TREFOIL_LIKE) == \
        module([Q(-1, 2), Q(-3, 2)])
    assert zero_surgery_table(LEFT_TREFOIL_LIKE) == module([Q(3, 2), Q(1, 2)])
    assert zero_surgery_table(FIGURE_EIGHT_LIKE) == \
        module([Q(1, 2), Q(-1, 2)], [(1, Q(-1, 2))])


def test_shift_algebra():
    g = module([Q(-1, 2)], [(2, 0)])
    assert shift(shift(g, Q(1, 4)), Q(3, 4)) == shift(g, 1)
    assert shift(g, 0) == g
    assert shift(g, Q(5, 4)).towers == (Q(3, 4),)


def test_graded_module_multiset_equality():
    assert module([0, -1]) == module([-1, 0])
    assert module([0], [(1, 2), (1, 2)]) == module([0], [(2, 2)])
    assert module([0], [(0, 5)]) == module([0])


def test_graded_module_rejects_a_negative_rank():
    with pytest.raises(ValueError, match="negative rank -1"):
        module([0], [(-1, 2)])


def test_surgery_tables_reject_an_unknown_tag():
    for table in (lambda tag: surgery_table(tag, 1), zero_surgery_table):
        with pytest.raises(ValueError, match="unknown knot type tag 'Unknot'"):
            table("Unknot")


# --- predicates ---------------------------------------------------------------

def test_is_l_space_fixtures():
    assert is_l_space(Family2(1, 5))
    assert not is_l_space(Family1(3, (1,)))
    assert is_l_space(Family3(2, -3))


def test_is_tight_fixtures():
    assert is_tight(Family1(1, (7,)))
    assert is_tight(Family2(0, 3))
    assert not is_tight(Family1(0, (1, 1)))


def test_knot_type_fixtures():
    assert knot_type(Family1(1, (1,))) == RIGHT_TREFOIL_LIKE
    assert knot_type(Family1(0, (1, 1))) == FIGURE_EIGHT_LIKE
    assert knot_type(Family2(-1, 1)) == LEFT_TREFOIL_LIKE


# --- assembled modules ---------------------------------------------------------

def test_hf_plus_s0_fixtures():
    assert hf_plus_s0(Family2(1, -1)) == module([Q(3, 4)])
    assert hf_plus_s0(Family1(3, (1,))) == module([1], [(1, 0)])
    assert hf_plus_s0(Family1(0, (1, 1))) == module([0])


def test_hf_plus_s0_rejects_positive_b1():
    for form in (Family2(0, 3), Family2(2, 0), Family2(0, 0)):
        with pytest.raises(PositiveB1):
            hf_plus_s0(form)


def test_correction_term_fixtures():
    assert correction_term(Family1(1, (7,))) == Q(-1, 2)
    assert correction_term(Family2(1, 0)) == 1
    assert correction_term(Family3(0, -3)) == Q(-1, 2)


def test_correction_term_closed_forms():
    # The assembled tower bottoms must reproduce the five closed forms on
    # their domains.
    for n in range(1, 6):
        for total in range(1, 7):
            tuples = [(total,)] if n == 1 else [(total - n + 1,) + (1,) * (n - 1)]
            for a in tuples:
                if len(a) != n or any(x < 0 for x in a):
                    continue
                assert correction_term(Family1(1, a)) == Q(n + 4 - total, 4)
                assert correction_term(Family1(0, a)) == Q(n - total, 4)
    for m in range(-6, 7):
        assert correction_term(Family2(1, m)) == Q(m + 4, 4)
    for m in (-1, -2, -3):
        assert correction_term(Family3(1, m)) == Q(m + 3, 4)
        assert correction_term(Family3(0, m)) == Q(m + 1, 4)


def test_correction_term_lens_space_chain():
    # h x^n y^-1 gives the lens space chain: d = (n + 3) / 4.
    from threebraid.murasugi import classify
    from threebraid.words import parse
    for n in range(0, 9):
        form = classify(parse(f"h x^{n} y^-1"))
        assert correction_term(form) == Q(n + 3, 4)


def test_gradings_have_denominator_dividing_four():
    for form in all_forms(range(-4, 5), 5, max_blocks=3):
        if form_determinant(form) == 0:
            continue
        m = hf_plus_s0(form)
        for g in m.towers + tuple(g for _, g in m.frees):
            assert 4 % g.denominator == 0


def test_l_space_iff_bare_tower_sweep():
    for form in all_forms(range(-5, 6), 8, max_blocks=4):
        if form_determinant(form) == 0:
            assert not is_l_space(form)
            continue
        assert is_l_space(form) == hf_plus_s0(form).is_bare_tower


def test_tight_exclusivity_sweep():
    from threebraid.murasugi import mirror_form
    for form in all_forms(range(-5, 6), 8, max_blocks=4):
        if form_determinant(form) == 0:
            continue
        assert not (is_tight(form) and is_tight(mirror_form(form)))


def test_mirror_negates_the_correction_term():
    # The mirror reverses the cover's orientation, which negates d-invariants.
    from threebraid.murasugi import mirror_form
    forms = literature_box()
    assert len(forms) == 1364
    checked = 0
    for form in forms:
        if form_determinant(form) == 0:
            continue
        assert correction_term(mirror_form(form)) == -correction_term(form), \
            form
        checked += 1
    assert checked == 1279


# --- torus bundles -------------------------------------------------------------

def test_torus_bundle_fixtures():
    info = torus_bundle_hf(Family1(0, (1, 1)))
    assert info.s0 == module([Q(1, 2), Q(-1, 2)], [(1, Q(-1, 2))])
    info = torus_bundle_hf(Family2(1, -1))
    assert info.s0 == module([Q(1, 4), Q(-3, 4)])
    with pytest.raises(B1NotOne):
        torus_bundle_hf(Family2(0, 3))


def test_torus_bundle_metadata():
    info = torus_bundle_hf(Family1(1, (5,)))
    assert info.non_s0_count == form_determinant(Family1(1, (5,))) - 1
    assert not info.non_s0_relative.absolute
    assert info.non_s0_relative.towers == (Q(-1, 2), Q(1, 2))
    assert info.fiber_structures_vanish


# --- binding profile -----------------------------------------------------------

def test_hfk_binding_fixtures():
    profile = hfk_binding(Family1(1, (1,)))
    assert profile == HfkBindingProfile(
        (1, 1, 1), ((0, -1),), form_determinant(Family1(1, (1,))) - 1)
    profile = hfk_binding(Family1(0, (1, 1)))
    assert profile.ranks == (1, 3, 1)
    assert profile.arrows == ((1, 0), (0, -1))
    profile = hfk_binding(Family2(-1, 1))
    assert profile.ranks == (1, 1, 1)
    assert profile.arrows == ((1, 0),)


def test_hfk_binding_requires_l_space():
    with pytest.raises(NotLSpace):
        hfk_binding(Family1(3, (1,)))


def test_hfk_binding_rank_pattern():
    for form in all_forms(range(-2, 3), 4, max_blocks=3):
        if not is_l_space(form):
            continue
        profile = hfk_binding(form)
        plus, middle, minus = profile.ranks
        assert plus == minus == 1
        assert middle in (1, 3)
        assert middle % 2 == 1
        assert len(profile.arrows) == (1 if middle == 1 else 2)
        assert profile.collapses_at_second_page
