"""Graded Z[U]-module invariants of the branched double covers.

A ``GradedModule`` is a formal sum of towers T+_d (one copy of
Z[U,U^-1]/(U Z[U]) with bottom element in grading d; U drops grading by 2)
and finite free summands Z^rank in a single grading.  All gradings are exact
rationals with denominator dividing four, ``Fraction``s in a public module.

Every module is a shifted row of one table: the modules of 1/n- and
0-surgeries on the three genus-one fibered knots in S^3 (the two trefoils
and the figure-eight).  Every double cover of a 3-braid closure with finite
first homology is such a surgery on the binding of its fibered structure, so
its module in the distinguished self-conjugate spin-c structure is a table
row shifted by a quarter-integer k/4 read off the normal form's tail.

The rows are stored as integers, every grading in quarters.  A row shifted
by k/4 is a *quarter module*: a (towers, frees, absolute) tuple laid out as
a ``GradedModule``'s fields, each grading g/4 held as the integer count g
of quarters.  It is already in normal form, since adding a constant keeps
the towers sorted and the free summands merged.  The report path computes
and prints from quarter modules; ``_graded_module`` makes the public
module, with one ``Fraction(g, 4)`` per grading, only where the library
API returns one, so ``fractions`` is imported on first use.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .homology import _balanced_product
from .murasugi import Family1, Family2, MurasugiForm, tail_exponent_sum
from .words import _Value


class PositiveB1(ValueError):
    """The double cover has positive first Betti number (determinant zero)."""


class B1NotOne(ValueError):
    """The associated torus bundle does not have first Betti number one."""


class NotLSpace(ValueError):
    pass


class GradedModule(_Value, namedtuple("GradedModule", "towers frees absolute",
                                      defaults=((), True))):
    """Towers T+ by bottom grading plus free summands (rank, grading).

    Equality is multiset equality: the constructor sorts the towers, merges
    free summands in the same grading and drops rank-zero ones.
    """

    __slots__ = ()
    towers: tuple[Fraction, ...]
    frees: tuple[tuple[int, Fraction], ...]
    absolute: bool

    def __new__(cls, towers: tuple[Fraction, ...],
                frees: tuple[tuple[int, Fraction], ...] = (),
                absolute: bool = True) -> GradedModule:
        merged: dict[Fraction, int] = {}
        for rank, grading in frees:
            if rank < 0:
                raise ValueError(f"negative rank {rank}")
            merged[grading] = merged.get(grading, 0) + rank
        return super().__new__(
            cls, tuple(sorted(towers)),
            tuple(sorted((rank, grading) for grading, rank in merged.items()
                         if rank)),
            absolute)

    @classmethod
    def _normal(cls, towers: tuple[Fraction, ...],
                frees: tuple[tuple[int, Fraction], ...] = (),
                absolute: bool = True) -> GradedModule:
        """A module from parts already in normal form (towers sorted, frees
        sorted, merged and of positive rank), stored without renormalising."""
        return tuple.__new__(cls, (towers, frees, absolute))

    @property
    def is_bare_tower(self) -> bool:
        return len(self.towers) == 1 and not self.frees

    def __str__(self) -> str:
        parts = [f"T+_{{{g}}}" for g in self.towers]
        parts += [f"Z^{rank}_{{{g}}}" for rank, g in self.frees]
        suffix = "" if self.absolute else "  (relative grading only)"
        return (" + ".join(parts) if parts else "0") + suffix


def shift(module: GradedModule, q) -> GradedModule:
    """Add q to every grading, preserving ranks; the result stays in normal
    form."""
    from fractions import Fraction
    q = Fraction(q)
    return GradedModule._normal(
        tuple(g + q for g in module.towers),
        tuple((rank, g + q) for rank, g in module.frees),
        module.absolute,
    )


RIGHT_TREFOIL_LIKE = "RightTrefoilLike"
LEFT_TREFOIL_LIKE = "LeftTrefoilLike"
FIGURE_EIGHT_LIKE = "FigureEightLike"

# The 1/n-surgery rows for n != 0, keyed by (tag, n > 0): the bottom grading
# of the tower and the grading of the free summand, in quarters, and the
# offset of its rank |n| + offset.
_SURGERY_ROWS = {
    (RIGHT_TREFOIL_LIKE, True): (-8, -8, -1),
    (RIGHT_TREFOIL_LIKE, False): (0, -4, 0),
    (LEFT_TREFOIL_LIKE, True): (0, 0, 0),
    (LEFT_TREFOIL_LIKE, False): (8, 4, -1),
    (FIGURE_EIGHT_LIKE, True): (0, -4, 0),
    (FIGURE_EIGHT_LIKE, False): (0, 0, 0),
}


def _row(tag: str, n: int) -> tuple[int, int, int]:
    """(tower bottom, free grading, free rank) of 1/n-surgery on the model
    knot, the gradings in quarters; n = 0 is S^3, a bare tower at grading
    zero."""
    try:
        bottom, grading, offset = _SURGERY_ROWS[tag, n > 0]
    except KeyError:
        raise ValueError(f"unknown knot type tag {tag!r}") from None
    if n == 0:
        return 0, 0, 0
    return bottom, grading, abs(n) + offset


def _graded_module(module: tuple) -> GradedModule:
    """The public module of a quarter module: each count g of quarters
    becomes ``Fraction(g, 4)``, and the parts are kept in their order."""
    from fractions import Fraction
    towers, frees, absolute = module
    return GradedModule._normal(
        tuple([Fraction(g, 4) for g in towers]),
        tuple([(rank, Fraction(g, 4)) for rank, g in frees]), absolute)


def _row_quarters(tag: str, n: int, k: int) -> tuple:
    """The quarter module of the 1/n row shifted by k/4: one tower, and
    one free summand unless its rank is zero."""
    bottom, grading, rank = _row(tag, n)
    return (bottom + k,), ((rank, grading + k),) if rank else (), True


def surgery_table(tag: str, n: int) -> GradedModule:
    """HF+ of 1/n-surgery on the model knot (n = 0 reads as S^3 itself)."""
    return _graded_module(_row_quarters(tag, n, 0))


# The 0-surgery rows do not depend on n: two tower bottoms in increasing
# order, and the grading of a rank-one free summand or None, in quarters.
_ZERO_SURGERY_ROWS = {
    RIGHT_TREFOIL_LIKE: (-6, -2, None),
    LEFT_TREFOIL_LIKE: (2, 6, None),
    FIGURE_EIGHT_LIKE: (-2, 2, -2),
}


def _zero_row_quarters(tag: str, k: int) -> tuple:
    """The quarter module of the 0-surgery row shifted by k/4."""
    try:
        low, high, free = _ZERO_SURGERY_ROWS[tag]
    except KeyError:
        raise ValueError(f"unknown knot type tag {tag!r}") from None
    return (low + k, high + k), () if free is None else ((1, free + k),), True


def _shifted_zero_row(tag: str, k: int) -> GradedModule:
    """The 0-surgery row shifted by k/4."""
    return _graded_module(_zero_row_quarters(tag, k))


def zero_surgery_table(tag: str) -> GradedModule:
    """HF+ of 0-surgery on the model knot, in its supporting spin-c structure."""
    return _shifted_zero_row(tag, 0)


def form_determinant(f: MurasugiForm) -> int:
    """Determinant of the closure of the model word of f: |2 - tr M| with
    M = (-1)^d T, since h maps to -I and the tail maps to T.

    The tails x y^-a1 ... x y^-an, y^m and x^m y^-1 map to the product of
    [[1 + ai, 1], [ai, 1]] (multiplied by ``homology._balanced_product``),
    to a matrix of trace 2, and to [[1 + m, m], [1, 1]].

    >>> form_determinant(Family1(1, (5,)))
    9
    """
    if isinstance(f, Family1):
        a, _, _, d = _balanced_product([(1 + ai, 1, ai, 1) for ai in f.a])
        trace = a + d
    elif isinstance(f, Family2):
        trace = 2
    else:
        trace = 2 + f.m
    return abs(2 - (-trace if f.d % 2 else trace))


def is_l_space(f: MurasugiForm) -> bool:
    """Whether the branched double cover has the simplest possible Floer
    homology (one tower per spin-c structure)."""
    if isinstance(f, Family1):
        return f.d in (-1, 0, 1)
    if isinstance(f, Family2):
        return f.d in (-1, 1)
    return f.d in (-1, 0, 1, 2)


def is_tight(f: MurasugiForm) -> bool:
    """Nonvanishing of the contact invariant of the compatible contact
    structure (tightness)."""
    if isinstance(f, Family2):
        return f.d > 0 or (f.d == 0 and f.m >= 0)
    return f.d > 0


def is_tight_inverse(f: MurasugiForm) -> bool:
    """``is_tight(mirror_form(f))``, read off f: the mirror of Family1(d, a)
    has twist power -d, that of Family2(d, m) is Family2(-d, -m), and that
    of Family3(d, m) has twist power 1 - d."""
    if isinstance(f, Family1):
        return f.d < 0
    if isinstance(f, Family2):
        return f.d < 0 or (f.d == 0 and f.m <= 0)
    return f.d <= 0


def _knot_tag(tight: bool, tight_inverse: bool) -> str:
    """The ``knot_type`` tag from ``is_tight`` and ``is_tight_inverse``."""
    if tight:
        return RIGHT_TREFOIL_LIKE
    if tight_inverse:
        return LEFT_TREFOIL_LIKE
    return FIGURE_EIGHT_LIKE


def knot_type(f: MurasugiForm) -> str:
    """Which model knot the binding behaves like: the right trefoil when the
    contact structure is tight, the left trefoil when the inverse's is, and
    the figure-eight when both invariants vanish."""
    return _knot_tag(is_tight(f), is_tight_inverse(f))


def _quarter_assembly(f: MurasugiForm) -> tuple[str, int, int]:
    """(table tag, surgery parameter n, grading shift in quarters k) for the
    distinguished spin-c structure.  The cover is -1/j-surgery on the binding
    of a model fibered knot with j = floor(d/2), and -1/j equals 1/(-j) in
    the tables.  The shift is k/4 with k = t + c, t the exponent sum of the
    tail: for odd d the tag is the right trefoil and c = 4 in all three
    families; for even d it is the figure-eight with c = 0 in family 1 and
    the left trefoil with c = 2 in family 3 (family 2 with even d has
    determinant zero).  Every Floer value of a form reads this one triple."""
    if f.d % 2:
        tag, c = RIGHT_TREFOIL_LIKE, 4
    elif isinstance(f, Family1):
        tag, c = FIGURE_EIGHT_LIKE, 0
    elif isinstance(f, Family2):
        raise PositiveB1(
            f"{f} has determinant zero (b1 >= 1); no surgery description")
    else:
        tag, c = LEFT_TREFOIL_LIKE, 2
    return tag, -(f.d // 2), tail_exponent_sum(f) + c


def hf_plus_s0(f: MurasugiForm) -> GradedModule:
    """HF+ of the branched double cover in the distinguished self-conjugate
    spin-c structure, with absolute rational gradings."""
    return _graded_module(_row_quarters(*_quarter_assembly(f)))


def _correction_quarters(tag: str, n: int, k: int) -> int:
    """4 d, d the correction term of the assembly's row shifted by k/4:
    the bottom of its tower, in quarters."""
    return _row(tag, n)[0] + k


def correction_term(f: MurasugiForm) -> Fraction:
    """d-invariant of the cover in the distinguished spin-c structure: the
    bottom grading of the tower of hf_plus_s0."""
    from fractions import Fraction
    return Fraction(_correction_quarters(*_quarter_assembly(f)), 4)


class TorusBundleModules(_Value, namedtuple(
        "TorusBundleModules",
        "s0 non_s0_count non_s0_relative fiber_structures_vanish",
        defaults=(True,))):
    """HF+ of the torus bundle obtained by capping the fiber and performing
    0-surgery on the binding.

    ``s0`` carries absolute gradings.  Each of the ``non_s0_count`` remaining
    torsion spin-c structures carries two towers whose bottoms sit 1 apart
    (recorded relatively in ``non_s0_relative``), and every spin-c structure
    evaluating nontrivially on the fiber has vanishing homology.
    """

    __slots__ = ()
    s0: GradedModule
    non_s0_count: int
    non_s0_relative: GradedModule
    fiber_structures_vanish: bool


# The two towers of every other torsion spin-c structure, 1 apart, as a
# quarter module.
_NON_S0_RELATIVE = ((-2, 2), (), False)


@functools.cache
def _non_s0_relative() -> GradedModule:
    """The public module of ``_NON_S0_RELATIVE``, built on first use."""
    return _graded_module(_NON_S0_RELATIVE)


def _torus_bundle(tag: str, k: int, determinant: int) -> tuple:
    """The bundle in quarters, from the assembly's tag and shift k/4 and
    the nonzero determinant of the closure: a tuple laid out as the fields
    of ``TorusBundleModules``, its two modules quarter modules."""
    return _zero_row_quarters(tag, k), determinant - 1, _NON_S0_RELATIVE, True


def _bundle_modules(bundle: tuple) -> TorusBundleModules:
    """The public modules of a bundle that ``_torus_bundle`` gave."""
    s0, count, _, vanish = bundle
    return TorusBundleModules(_graded_module(s0), count, _non_s0_relative(),
                              vanish)


def torus_bundle_hf(f: MurasugiForm) -> TorusBundleModules:
    determinant = form_determinant(f)
    if determinant == 0:
        raise B1NotOne(
            f"{f} has parabolic or central monodromy; the bundle's b1 is not 1")
    tag, _, k = _quarter_assembly(f)
    return _bundle_modules(_torus_bundle(tag, k, determinant))


class HfkBindingProfile(_Value, namedtuple(
        "HfkBindingProfile",
        "ranks arrows non_s0_count collapses_at_second_page",
        defaults=(True,))):
    """Knot Floer ranks of the binding in the distinguished spin-c structure.

    ``ranks`` lists the ranks at Alexander gradings (+1, 0, -1); ``arrows``
    the nontrivial rank-one differentials on the first page, as (source,
    target) Alexander gradings.  In each of the ``non_s0_count`` other
    structures the homology is a single copy in Alexander grading 0.  The
    spectral sequence collapses at the second page.
    """

    __slots__ = ()
    ranks: tuple[int, int, int]
    arrows: tuple[tuple[int, int], ...]
    non_s0_count: int
    collapses_at_second_page: bool


def hfk_binding(f: MurasugiForm) -> HfkBindingProfile:
    if not is_l_space(f):
        raise NotLSpace(f"{f} is not an L-space; the rank profile only "
                        "applies to L-space covers")
    tag = knot_type(f)
    non_s0 = form_determinant(f) - 1
    if tag == RIGHT_TREFOIL_LIKE:
        return HfkBindingProfile((1, 1, 1), ((0, -1),), non_s0)
    if tag == LEFT_TREFOIL_LIKE:
        return HfkBindingProfile((1, 1, 1), ((1, 0),), non_s0)
    return HfkBindingProfile((1, 3, 1), ((1, 0), (0, -1)), non_s0)
