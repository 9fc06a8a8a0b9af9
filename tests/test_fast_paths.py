"""Fast paths of the word layer checked against the slow code they replace.

The slow references live here only: the minimum over all rotations, the
left-to-right matrix product, and the per-letter permutation fold.  Short
inputs are enumerated exhaustively; long words are drawn at random.
"""

import itertools

from threebraid import words as w_
from threebraid.homology import (
    SL2Matrix,
    components_from_image,
    determinant_from_image,
    image,
)
from threebraid.murasugi import least_rotation
from threebraid.words import Perm3, components, permutation

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


def slow_image(letters):
    result = SL2Matrix(1, 0, 0, 1)
    for letter in letters:
        result = result * GENERATOR[letter]
    return result


def test_booth_matches_minimum_over_rotations():
    for length in range(9):
        for seq in itertools.product(range(3), repeat=length):
            assert least_rotation(seq) == slow_least_rotation(seq), seq


def test_booth_on_syllables_and_lists():
    syllables = (("u", 2), ("s", 1), ("u", 1), ("s", 1))
    assert least_rotation(syllables) == slow_least_rotation(syllables)
    assert least_rotation([2, 0, 1, 0]) == (0, 1, 0, 2)


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
