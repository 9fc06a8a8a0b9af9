import itertools
import math

import pytest

from threebraid import words as w_
from threebraid.homology import determinant
from threebraid.seifert import (
    MAX_CROSSINGS,
    DiagramTooLarge,
    SeifertMatrix,
    SplitClosure,
    seifert_matrix,
    sym_determinant,
    sym_signature,
)
from threebraid.words import parse

from conftest import random_nonsplit_word, random_word
from reference import fraction_pivots, rational_form


def test_calibration_trefoil():
    # Build gate: the closure of (x y)^2 is the right trefoil.
    matrix = seifert_matrix(parse("x y x y"))
    assert sym_determinant(matrix) == 3
    assert sym_signature(matrix) == -2


def test_calibration_figure_eight():
    matrix = seifert_matrix(parse("x y^-1 x y^-1"))
    assert sym_determinant(matrix) == 5
    assert sym_signature(matrix) == 0


def test_alternating_four_crossing_link():
    assert sym_determinant(seifert_matrix(parse("x y y x"))) == 4


def test_oracle_determinant_fixtures():
    for text, expected in (("x y^-1", 1), ("y x^5", 5), ("x y^-1 x y^-1", 5)):
        assert sym_determinant(seifert_matrix(parse(text))) == expected


def test_torus_link_signatures():
    assert sym_signature(seifert_matrix(parse("y x^5"))) == -4
    assert sym_signature(seifert_matrix(parse("y^-1 x^-5"))) == 4


def test_matrix_size_and_bookkeeping():
    # The size is that of the Seifert matrix, the reduced crossings less 2.
    # One row of G per x crossing: the trefoil's two regions are linked by
    # both x crossings, and each holds one y crossing.
    matrix = seifert_matrix(parse("x y x y"))
    assert matrix.size == 2
    assert matrix.rows == ({0: -1, 1: 2}, {0: 2, 1: -1})
    assert matrix.mu == 2

    # Free reduction happens first: x y y^-1 x y reduces to x x y, whose
    # single y crossing cuts the regions, and the x letters give mu.
    matrix = seifert_matrix(parse("x y y^-1 x y"))
    assert matrix.size == 1
    assert matrix.rows == ({0: 2},)
    assert matrix.mu == 2


def test_the_column_with_fewer_crossings_cuts_the_regions():
    for text, rows in (("x^5 y", 1), ("y^5 x", 1), ("x^3 y^-3", 3),
                       ("x y^-1 x^2 y x^-1", 2)):
        matrix = seifert_matrix(parse(text))
        assert len(matrix.rows) == rows, text
        assert matrix.size == len(w_.free_reduce(parse(text))) - 2, text
    # Conjugating by Delta swaps the columns and keeps the closure.
    for text, swapped in (("x^5 y", "y^5 x"),
                          ("x y^-1 x^2 y x^-1", "y x^-1 y^2 x y^-1")):
        a, b = seifert_matrix(parse(text)), seifert_matrix(parse(swapped))
        assert (sym_signature(a), sym_determinant(a)) == \
            (sym_signature(b), sym_determinant(b))


def test_only_seifert_matrix_builds_a_matrix():
    for args in ((), ([{0: (-2, 0)}], ((0, 0, 1),))):
        with pytest.raises(TypeError, match=r"seifert_matrix\(w\)"):
            SeifertMatrix(*args)


def test_split_closure_errors():
    with pytest.raises(SplitClosure, match="^column 1 unused"):
        seifert_matrix(parse("y^5"))
    with pytest.raises(SplitClosure, match="^columns 1 and 2 unused"):
        seifert_matrix(parse(""))
    with pytest.raises(SplitClosure, match="^columns 1 and 2 unused"):
        seifert_matrix(parse("x x^-1"))
    with pytest.raises(SplitClosure, match="^column 2 unused"):
        seifert_matrix(parse("x y y^-1 x"))  # reduces to x x


def form(symmetric):
    """(signature, |det|) of the symmetric matrix, read by the reference
    elimination, which the general-matrix cases below pin."""
    signature, det = rational_form(
        [{j: x for j, x in enumerate(row) if x} for row in symmetric])
    return signature, abs(det)


def test_sym_signature_small_matrices():
    assert form(()) == (0, 1)
    assert form(((-2,),))[0] == -1
    # Hyperbolic plane: signature zero, determinant -1.
    assert form(((0, 1), (1, 0))) == (0, 1)
    # A zero row: determinant 0, the other pivot still counted.
    assert form(((2, 0), (0, 0))) == (1, 0)
    # A zero diagonal takes the signed add of its neighbour's row and
    # column: t = 1 on [[0, 1], [1, 0]] above, and t = -1 on
    # [[0, 1], [1, -2]], whose neighbour's diagonal cancels 2 t a[0][1].
    assert form(((0, 1), (1, -2))) == (0, 1)


def test_oracle_agrees_with_representation_determinant(rng):
    for _ in range(400):
        word = random_nonsplit_word(rng, 16)
        assert sym_determinant(seifert_matrix(word)) == determinant(word)


def test_oracle_conjugation_invariance(rng):
    checked = 0
    for _ in range(400):
        word = random_nonsplit_word(rng, 12)
        u = random_word(rng, 6)
        conjugated = w_.free_reduce(w_.conjugate(word, u))
        if {letter.generator for letter in conjugated} != {"x", "y"}:
            continue
        assert sym_determinant(seifert_matrix(conjugated)) == \
            sym_determinant(seifert_matrix(word))
        checked += 1
    assert checked > 200


def test_mirror_signature_antisymmetry(rng):
    checked = 0
    for _ in range(300):
        word = random_nonsplit_word(rng, 14)
        if w_.components(word) != 1:
            continue
        assert sym_signature(seifert_matrix(w_.inverse(word))) == \
            -sym_signature(seifert_matrix(word))
        checked += 1
    assert checked > 50


def test_signature_bounded_by_size(rng):
    for _ in range(200):
        word = random_nonsplit_word(rng, 16)
        # The rank of V + V^T, whose size is the reduced crossings less 2.
        assert abs(sym_signature(seifert_matrix(word))) <= \
            len(w_.free_reduce(word)) - 2


def _leibniz(rows):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b]
                         for a, b in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]]
                                                for i in range(n))
    return total


def _descartes_signature(rows):
    """Signature of a symmetric matrix from Descartes' rule of signs on
    det(tI - S), which is exact because every root is real."""
    n = len(rows)
    coefficients = [  # of t^n, t^(n-1), ..., t^0
        (-1) ** k * sum(_leibniz([[rows[i][j] for j in minor] for i in minor])
                        for minor in itertools.combinations(range(n), k))
        for k in range(n + 1)]

    def sign_changes(values):
        signs = [value > 0 for value in values if value]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    positive = sign_changes(coefficients)
    negative = sign_changes([c * (-1) ** (n - k)
                             for k, c in enumerate(coefficients)])
    return positive - negative


def test_elimination_matches_brute_force_on_all_small_matrices():
    # Every 3x3 form V + V^T of a V with entries -1, 0, 1 below or on the
    # diagonal: diagonal -2, 0, 2 and links -1, 0, 1.  The inputs reach the
    # zero row and the signed add with t = 1 and t = -1.
    values = (-1, 0, 1)
    for a, b, c, d, e, f in itertools.product(values, repeat=6):
        symmetric = ((2 * a, b, c), (b, 2 * d, e), (c, e, 2 * f))
        assert form(symmetric) == (_descartes_signature(symmetric),
                                   abs(_leibniz(symmetric)))


def test_oversized_diagrams_are_refused_before_expansion():
    # h^d counts 6|d| crossings and is refused without expanding its
    # letters; the cap counts letters before free reduction.
    half = MAX_CROSSINGS // 2
    for text in ("h^100000000 x", f"x^{MAX_CROSSINGS + 1} y",
                 f"x^{half} x^-{half} x y"):
        with pytest.raises(DiagramTooLarge):
            seifert_matrix(parse(text))
    at_cap = seifert_matrix(parse(f"x^{half - 1} x^-{half - 1} x y"))
    assert sym_determinant(at_cap) == 1


def test_pivots_do_not_depend_on_the_insertion_order_of_a_row(rng):
    # The first word's rows, inserted in another order, once gave other
    # pivots (with the same signature and |det|) in an earlier elimination.
    # The reference elimination's values are the recurrence's signature and
    # |det| of G.
    words = [parse("y^-1 x y^-2 x y^-1 x^-1 y^-1 x^-1 y^3 x y^-3 x^-8 y "
                   "x^-1 y x^2 y")]
    words += [random_nonsplit_word(rng, 40) for _ in range(300)]
    for word in words:
        matrix = seifert_matrix(word)
        signature, det = rational_form([dict(row) for row in matrix.rows])
        assert (signature, abs(det)) == (sym_signature(matrix) + matrix.mu,
                                         sym_determinant(matrix)), word
        pivots = fraction_pivots([dict(row) for row in matrix.rows])
        for _ in range(4):
            rows = [dict(rng.sample(list(row.items()), len(row)))
                    for row in matrix.rows]
            assert fraction_pivots(rows) == pivots, word
