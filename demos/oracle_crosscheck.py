# Cross-checking the algebra against a diagram-level oracle.
#
# The package computes the determinant of a closure twice, by completely
# independent routes: |det(image(w) - I)| from the homological
# representation, and |det G| from the Goeritz form G of the braid diagram
# (Gordon-Litherland), which equals |det(V + V^T)| for a Seifert matrix V.
# The two agree on every non-split word; this script fuzzes that agreement
# and shows the calibration fixtures that pin the oracle's sign conventions.

import random

from threebraid import (
    determinant,
    free_reduce,
    parse,
    seifert_matrix,
    sym_determinant,
    sym_signature,
    word,
)
from threebraid.words import X, X_INV, Y, Y_INV

print("calibration fixtures")
print("-" * 60)
for text, expected in (("x y x y", (3, -2)), ("x y^-1 x y^-1", (5, 0))):
    matrix = seifert_matrix(parse(text))
    print(f"{text:14} det {sym_determinant(matrix)} "
          f"signature {sym_signature(matrix)}   expected {expected}")

print()
print("the Goeritz form G of the trefoil closure (x y)^2")
matrix = seifert_matrix(parse("x y x y"))
print("rows (column: entry), one per x crossing (x cuts on a tie):",
      matrix.rows)
print(f"correction term mu {matrix.mu}: signature {sym_signature(matrix)} "
      f"= sign(G) - mu, determinant {sym_determinant(matrix)} = |det G|")

rng = random.Random(7)
letters = (X, Y, X_INV, Y_INV)
agreements = 0
trials = 0
while trials < 2000:
    w = free_reduce(word(rng.choice(letters)
                         for _ in range(rng.randint(2, 16))))
    if {letter.generator for letter in w} != {"x", "y"}:
        continue  # split closure: the oracle refuses these diagrams
    trials += 1
    assert sym_determinant(seifert_matrix(w)) == determinant(w), str(w)
    agreements += 1

print()
print(f"fuzzed {trials} random non-split words: "
      f"{agreements} determinant agreements, 0 disagreements")
