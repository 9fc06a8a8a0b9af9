"""Acceptance suite.

Each test implements one acceptance criterion at its stated size and
tolerance (everything here is exact arithmetic), and prints one pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
from fractions import Fraction as Q

from threebraid import words as w_
from threebraid.floer import (
    FIGURE_EIGHT_LIKE,
    LEFT_TREFOIL_LIKE,
    RIGHT_TREFOIL_LIKE,
    correction_term,
    form_determinant,
    hf_plus_s0,
    is_l_space,
    is_tight,
    surgery_table,
    zero_surgery_table,
)
from threebraid.homology import AbelianGroup, determinant, h1_branched_cover
from threebraid.invariants import (
    PASS,
    analyze_word,
    delta,
    quasi_alternating,
    report_json,
    signature,
)
from threebraid.murasugi import (
    Family1,
    canonical_word,
    classify,
    mirror_form,
    psl2_normal_form,
)
from threebraid.seifert import (
    seifert_matrix,
    sym_determinant,
    sym_signature,
)
from threebraid.words import exponent_sum, parse

from conftest import (
    all_forms,
    knot_forms,
    random_nonsplit_word,
    random_word,
)
from reference import FRACTION_ZERO_SURGERY_ROWS, per_branch_surgery_table


def check(criterion: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"[acceptance] criterion {criterion}: {status} - {description}")
    assert not failures, failures[:5]


def test_criterion_1_normal_form_round_trip():
    rng = random.Random(101)
    failures = []
    for _ in range(10_000):
        w = random_word(rng, 40)
        form = classify(w)
        model = canonical_word(form)
        if classify(model) != form:
            failures.append(("fixed point", str(w)))
        elif exponent_sum(model) != exponent_sum(w):
            failures.append(("exponent sum", str(w)))
        elif psl2_normal_form(model).cyclic_key() != \
                psl2_normal_form(w).cyclic_key():
            failures.append(("free-product class", str(w)))
    check(1, "10^4 random round trips, length <= 40", failures)


def test_criterion_2_conjugacy_invariance_of_reports():
    rng = random.Random(202)
    failures = []
    for _ in range(1_000):
        w = random_word(rng, 24)
        u = random_word(rng, 10)
        conjugated = w_.conjugate(w, u)
        first = report_json(analyze_word(w, include_torus_bundle=True))
        second = report_json(analyze_word(conjugated,
                                          include_torus_bundle=True))
        first.pop("word")
        second.pop("word")
        if first != second:
            failures.append((str(w), str(u)))
    check(2, "10^3 conjugate pairs give identical reports", failures)


def test_criterion_3_determinant_oracle_equivalence():
    rng = random.Random(303)
    failures = []
    for _ in range(1_000):
        w = random_nonsplit_word(rng, 16)
        if sym_determinant(seifert_matrix(w)) != determinant(w):
            failures.append(str(w))
    check(3, "10^3 non-split words: Seifert oracle = representation "
             "determinant", failures)


def test_criterion_4a_lens_space_chain():
    failures = []
    for n in range(0, 9):
        w = parse(f"h x^{n} y^-1")
        group = h1_branched_cover(w)
        if group.order != n + 4:
            failures.append((n, "order", str(group)))
        if correction_term(classify(w)) != Q(n + 3, 4):
            failures.append((n, "correction term"))
    check(4, "(a) h x^n y^-1 has |H1| = n+4 and d = (n+3)/4 for n = 0..8",
          failures)


def test_criterion_4b_full_twist_fixture():
    failures = []
    if h1_branched_cover(parse("h")) != AbelianGroup(0, (2, 2)):
        failures.append("H1")
    if correction_term(classify(parse("h"))) != 1:
        failures.append("correction term")
    check(4, "(b) the full twist: H1 = Z/2 + Z/2, d = 1", failures)


def test_criterion_4c_eight_twenty_mirror():
    report = analyze_word(parse("h x y^-5"))
    failures = []
    if not report.qa:
        failures.append("qa")
    if report.delta != 0:
        failures.append("delta")
    if report.signature != 0:
        failures.append("signature")
    if report.finite_order_screen != PASS:
        failures.append("screen")
    check(4, "(c) h x y^-5: quasi-alternating slice-obstruction-free knot",
          failures)


def test_criterion_4d_surgery_table_goldens():
    failures = []
    tags = {"right": RIGHT_TREFOIL_LIKE, "left": LEFT_TREFOIL_LIKE,
            "eight": FIGURE_EIGHT_LIKE}
    for n in range(-6, 7):
        for name, tag in tags.items():
            if surgery_table(tag, n) != per_branch_surgery_table(tag, n):
                failures.append((name, n))
    for name, tag in tags.items():
        if zero_surgery_table(tag) != FRACTION_ZERO_SURGERY_ROWS[tag]:
            failures.append(f"zero {name}")
    check(4, "(d) the 1/n- and 0-surgery tables, verbatim", failures)


def test_criterion_5_delta_is_twice_correction_term():
    failures = []
    count = 0
    for form in knot_forms(range(-6, 7), 5, max_blocks=5):
        count += 1
        if delta(form, 1) != 2 * correction_term(form):
            failures.append(form)
    assert count > 5_000
    check(5, f"delta = 2d on all {count} knot forms, d in [-6,6], "
             "parameters <= 5", failures)


def test_criterion_6_signature_formula_vs_oracle():
    failures = []
    count = 0
    for form in knot_forms(range(-2, 3), 4, max_blocks=4):
        if not isinstance(form, Family1):
            continue
        count += 1
        if signature(form, 1) != sym_signature(seifert_matrix(
                canonical_word(form))):
            failures.append(form)
    assert count > 100
    check(6, f"closed-form signature = Seifert signature on {count} "
             "family-1 knots, d in [-2,2]", failures)


def test_criterion_7_classification_coherence_sweep():
    failures = []
    count = 0
    for form in all_forms(range(-5, 6), 8, max_blocks=4):
        count += 1
        det = form_determinant(form)
        if det == 0:
            if is_l_space(form):
                failures.append(("l-space with b1 > 0", form))
            continue
        if is_l_space(form) != hf_plus_s0(form).is_bare_tower:
            failures.append(("bare tower", form))
        if quasi_alternating(form) and not is_l_space(form):
            failures.append(("qa non-l-space", form))
        if is_tight(form) and is_tight(mirror_form(form)):
            failures.append(("tight exclusivity", form))
    check(7, f"coherence of L-space/tight/qa over {count} forms, "
             "d in [-5,5], parameters <= 8", failures)


def test_criterion_8_determinant_increment():
    rng = random.Random(808)
    failures = []
    for _ in range(50):
        blocks = rng.randint(1, 4)
        prefix = [rng.randint(0, 6) for _ in range(blocks - 1)]

        def word_for(last, prefix=prefix):
            tail = "".join(f" x y^-{a}" if a else " x"
                           for a in prefix + [last])
            return parse("h" + tail)

        values = [determinant(word_for(a)) for a in range(1, 8)]
        steps = {b - a for a, b in zip(values, values[1:])}
        if len(steps) != 1 or steps.pop() <= 0:
            failures.append((prefix, values))
    check(8, "50 random prefixes: determinant increment in the last block "
             "is a positive constant over a_n = 1..7", failures)


def test_criterion_9_torus_knot_identification():
    failures = []
    for d in range(1, 5):
        positive = parse(" ".join(["x y"] * (3 * d - 1)))
        twisted = parse(f"h^{d} x^-1 y^-1")
        if classify(positive) != classify(twisted):
            failures.append((d, "normal form"))
        if determinant(positive) != determinant(twisted):
            failures.append((d, "determinant"))
        sig_a = sym_signature(seifert_matrix(positive))
        sig_b = sym_signature(seifert_matrix(twisted))
        if sig_a != sig_b:
            failures.append((d, "oracle signature", sig_a, sig_b))
    check(9, "(xy)^(3d-1) and h^d x^-1 y^-1 agree in form, determinant and "
             "signature for d = 1..4", failures)


def test_criterion_10_calibration_gate():
    failures = []
    trefoil = seifert_matrix(parse("x y x y"))
    if sym_signature(trefoil) != -2 or sym_determinant(trefoil) != 3:
        failures.append("trefoil")
    eight = seifert_matrix(parse("x y^-1 x y^-1"))
    if sym_signature(eight) != 0 or sym_determinant(eight) != 5:
        failures.append("figure-eight")
    check(10, "oracle calibration: trefoil (-2, 3) and figure-eight (0, 5)",
          failures)
