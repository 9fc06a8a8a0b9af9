"""The mutant table: faults that the run-time checks are known to catch or
to miss, each one text replacement in one module of ``threebraid``.

A row's probe is the command line that shows it.  Its exit code is 0 when
the fault escapes every run-time check (the report is wrong, and nothing
says so) and 3 when a check catches it.  A check that lands flips its row
from 0 to 3; a row never flips back without a reason in CHANGES.md.

``test_mutants.py`` applies each row to a copy of the package and runs its
probe; ``mutant_sweep.py`` runs the whole suite on each copy, to show which
tests catch it.
"""

import random
from collections import namedtuple

Mutant = namedtuple("Mutant", "name module old new argv exit")

# A fixed uniform word of 300 letters: past the cut (words.CANCEL_CUT) of
# the byte path's cancelling passes, and under the oracle's crossing cap.
_rng = random.Random(2)
UNIFORM_WORD = " ".join(_rng.choice(("x", "y", "x^-1", "y^-1"))
                        for _ in range(300))
# A fixed positive word of 300 letters, x and y alone: past the cut, so the
# byte path packs it a window per 8 letters (words.POSITIVE_CHUNK).
POSITIVE_WORD = " ".join(_rng.choice(("x", "y")) for _ in range(300))

MUTANTS = (
    Mutant(
        "block tuple reversed", "murasugi.py",
        "    return (*map(len, parts[1:-1]), len(parts[-1]) + len(parts[0]))\n",
        "    return (*map(len, parts[1:-1]), len(parts[-1]) + len(parts[0]))"
        "[::-1]\n",
        ("analyze", "--json", "--oracle", "x^4 y^-3 x y^-1"), 0),
    # Three blocks swapped keep their trace: (1, 2, 3) reads as (1, 3, 2).
    Mutant(
        "block tuple with its first two entries swapped", "murasugi.py",
        "    return (*map(len, parts[1:-1]), len(parts[-1]) + len(parts[0]))\n",
        "    blocks = (*map(len, parts[1:-1]), len(parts[-1]) + len(parts[0]))\n"
        "    return (*blocks[1::-1], *blocks[2:])\n",
        ("analyze", "--json", "--oracle", "x y^-1 x y^-2 x y^-3"), 0),
    # g = 1 whenever D != 0, so H1 is always Z/D.
    Mutant(
        "H1 always cyclic", "homology.py",
        "        return AbelianGroup(0, (g, det // g) if g > 1 else\n",
        "        return AbelianGroup(0, (g, det // g) if False else\n",
        ("analyze", "--oracle", "x^3 y^-3"), 0),
    Mutant(
        "quasi-alternating drops family 1 at d 0", "invariants.py",
        "        return f.d in (-1, 0, 1)\n",
        "        return f.d in (-1, 1)\n",
        ("analyze", "--json", "--oracle", "x y^-1 x^2 y^-2"), 0),
    Mutant(
        "tight needs d above 1 on families 1 and 3", "floer.py",
        "        return f.d > 0 or (f.d == 0 and f.m >= 0)\n    return f.d > 0\n",
        "        return f.d > 0 or (f.d == 0 and f.m >= 0)\n    return f.d > 1\n",
        ("analyze", "--oracle", "x^3 y^2"), 0),
    Mutant(
        "byte path reads x inverse as x", "words.py",
        "(_Y, _CARET)), CODE_DIGITS)}",
        "(_Y, _CARET)), b\"0103\")}",
        ("analyze", "--json", "--oracle", "x y^-1 x^-1 y^-1"), 0),
    # The passes also delete x next to y and its kin, so both folds read
    # another word: determinant 10,559,005 against the oracle's
    # 693,961,259,504.  The oracle reduces the word's own codes, so it
    # catches the fault; without --oracle the probe exits 0, as the row
    # above does.
    Mutant(
        "cancelling passes delete adjacent letters of both columns",
        "words.py",
        "_PAIR_FLAGS = bytes(4 * (byte == 2) for byte in range(256))\n",
        "_PAIR_FLAGS = bytes(4 * (byte in (1, 2)) for byte in range(256))\n",
        ("analyze", "--json", "--oracle", UNIFORM_WORD), 3),
    # Each positive window's image is the product of its halves' images
    # taken in the wrong order, so the image is that of another positive
    # word, while the syllable pass reads its own table.  On this word
    # _check_image catches it: d = 49 is odd, and the wrong image's trace
    # is positive.  A family-1 image only needs (-1)^d times its trace
    # above 2, so on another word the fault can pass that check, and the
    # oracle's determinant, read from the word's own codes, catches it: the
    # 300 letters x/y of random.Random(3) exit 0 without --oracle and 3
    # with it (determinant 210,211,082,382,425,428 against the oracle's
    # 139,524,532,028,532).
    Mutant(
        "positive windows multiply their halves in the wrong order",
        "homology.py",
        "_POSITIVE_ENTRIES = positive_table(_CHUNK_ENTRIES, _product)\n",
        "_POSITIVE_ENTRIES = positive_table(_CHUNK_ENTRIES,\n"
        "                                   lambda m, n: _product(n, m))\n",
        ("analyze", "--json", "--oracle", POSITIVE_WORD), 3),
    Mutant(
        "left-trefoil bottom moved from 8 to 16 quarters", "floer.py",
        "    (LEFT_TREFOIL_LIKE, False): (8, 4, -1),\n",
        "    (LEFT_TREFOIL_LIKE, False): (16, 4, -1),\n",
        ("analyze", "--json", "--oracle", "h^2 x^-3 y^-1"), 0),
    Mutant(
        "right-trefoil bottom moved by 4 quarters", "floer.py",
        "    (RIGHT_TREFOIL_LIKE, True): (-8, -8, -1),\n",
        "    (RIGHT_TREFOIL_LIKE, True): (-4, -8, -1),\n",
        ("analyze", "--json", "--oracle", "x^2 y^-1 x^-2 y^-1"), 3),
    Mutant(
        "oracle determinant plus one", "seifert.py",
        "    return abs(v._values[0])\n",
        "    return abs(v._values[0]) + 1\n",
        ("analyze", "--json", "--oracle", "x y^-1 x y^-1"), 3),
)


def apply(mutant, package):
    """Write the mutant into the package copy at ``package``; its old text
    must occur exactly once, so that a row cannot rot after a refactor."""
    path = package / mutant.module
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times "
                         f"in {mutant.module}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
