"""Normal forms for 3-braid words and exact invariants of their closures.

The package classifies any word in the two standard 3-braid generators into
one of the three conjugacy families, then computes invariants of the braid
closure and of its branched double cover: first homology, determinant,
L-space and tightness status, absolutely graded Floer modules and correction
terms, the concordance invariant delta, the knot signature,
quasi-alternating status, and Stein-filling obstructions.  An oracle on the
diagram's Goeritz form (``seifert``) cross-checks the algebraic route.
"""

from types import ModuleType as _ModuleType

from .floer import (
    FIGURE_EIGHT_LIKE,
    LEFT_TREFOIL_LIKE,
    RIGHT_TREFOIL_LIKE,
    GradedModule,
    correction_term,
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
from .homology import (
    AbelianGroup,
    SL2Matrix,
    determinant,
    h1_branched_cover,
    image,
    parabolic_invariant,
    trace_class,
)
from .invariants import (
    InvariantReport,
    SteinReport,
    analyze_word,
    delta,
    finite_order_screen,
    quasi_alternating,
    report_json,
    signature,
    stein_report,
)
from .murasugi import (
    Family1,
    Family2,
    Family3,
    FreeProductWord,
    MurasugiForm,
    canonical_word,
    classify,
    is_conjugate,
    mirror_form,
    psl2_normal_form,
)
from .words import (
    BraidWord,
    Letter,
    components,
    concat,
    conjugate,
    exponent_sum,
    free_reduce,
    inverse,
    parse,
    permutation,
    word,
)

# The Goeritz-form oracle, loaded on first use: only ``--oracle`` reads it.
_SEIFERT_NAMES = ("SeifertMatrix", "seifert_matrix", "sym_determinant",
                  "sym_signature")

__all__ = sorted([name for name in dir() if not name.startswith("_")
                  and not isinstance(globals()[name], _ModuleType)]
                 + list(_SEIFERT_NAMES))


def __getattr__(name):
    """``seifert`` and the names re-exported from it, imported when first
    read (PEP 562)."""
    if name != "seifert" and name not in _SEIFERT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not ``from . import seifert``: that statement asks this package for
    # the attribute first, which calls __getattr__ again, without end.
    from importlib import import_module
    seifert = import_module(".seifert", __name__)
    return seifert if name == "seifert" else getattr(seifert, name)


def __dir__():
    return sorted({*globals(), "seifert", *_SEIFERT_NAMES})
