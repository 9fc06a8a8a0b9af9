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

from collections import namedtuple

Mutant = namedtuple("Mutant", "name module old new argv exit")

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
