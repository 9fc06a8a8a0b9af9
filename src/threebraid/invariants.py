"""Closure-level invariants of a 3-braid and the aggregated report.

The concordance invariant delta, the knot signature, a necessary-condition
screen for finite smooth concordance order, quasi-alternating status, and
Stein-filling obstructions, each a function of the conjugacy normal form.
``analyze_word`` bundles everything into one report.

Every Floer grading of a report lies in (1/4)Z, so the values stage
(``_values``) holds each as an integer count of quarters: the correction
term is the row's tower bottom plus the shift k, delta is twice that
count, the Stein Euler characteristic is the count plus one, and the
modules are ``floer``'s quarter modules.  It decides every flag, the
screen and the Stein fields from those integers.  ``analyze_word`` is that
stage followed by ``_report``, which makes the public ``Fraction``s.  The
command line asks ``analyze_word`` for the values record itself.  The
``--json`` line and ``batch`` print from its integers; the pretty
``analyze`` report is built from the record through ``_report``, which
imports ``fractions`` on first use.  The module writes no output:
``report_json`` is the report as a dict, the reference that the command
line's ``--json`` writer matches.
"""

from __future__ import annotations

from collections import namedtuple

from . import floer, homology, murasugi
from .floer import GradedModule, TorusBundleModules
from .homology import AbelianGroup, InternalInconsistency
from .murasugi import Family1, Family2, Family3, MurasugiForm
from .words import BraidWord, _Value, run_text


class NotAKnot(ValueError):
    pass


class FamilyNotCovered(ValueError):
    pass


PASS = "Pass"
FAIL = "Fail"
NOT_A_KNOT = "NotAKnot"

# Normal forms whose closure is the unknot (checked in the tests); the other
# unknot presentation, family 1 with d = 0 and tuple (1), already satisfies
# the family-1 screen condition.
_UNKNOT_FORMS = (Family3(1, -3), Family3(0, -1))


def _check_delta_defined(f: MurasugiForm, components: int) -> None:
    """Raise unless the closure is a knot of family 1, or of family 3 with
    m = -1 or -3."""
    if components != 1:
        raise NotAKnot(f"closure has {components} components")
    if not isinstance(f, Family1) and \
            not (isinstance(f, Family3) and f.m in (-1, -3)):
        raise FamilyNotCovered(f"no delta formula for {f}")


def delta(f: MurasugiForm, components: int) -> Fraction:
    """Twice the correction term of the branched double cover (Manolescu and
    Owens, IMRN 2007); a concordance homomorphism to the integers, defined
    for knot closures."""
    _check_delta_defined(f, components)
    return 2 * floer.correction_term(f)


def signature(f: MurasugiForm, components: int) -> int:
    """Signature of the knot closure (Erle's formula, family 1 only; other
    families are answered by the Seifert oracle on demand): -4d - t, with t
    the exponent sum of the tail."""
    if components != 1:
        raise NotAKnot(f"closure has {components} components")
    if not isinstance(f, Family1):
        raise FamilyNotCovered(f"no closed-form signature for {f}")
    return -4 * f.d - murasugi.tail_exponent_sum(f)


def _screen(f: MurasugiForm, components: int, sig: int | None,
            delta_value) -> str:
    """The screen from the knot's signature (None unless the closure is a
    family-1 knot) and delta, a ``Fraction`` or a count of quarters: only
    whether it is zero is read."""
    if components != 1:
        return NOT_A_KNOT
    if f in _UNKNOT_FORMS or sig == 0 == delta_value:
        return PASS
    return FAIL


def finite_order_screen(f: MurasugiForm, components: int) -> str:
    """Necessary condition for finite smooth concordance order.

    Pass means only that the obstructions delta and signature both vanish;
    it is never an order claim.
    """
    sig = None
    if components == 1 and isinstance(f, Family1):
        sig = signature(f, 1)
    return _screen(f, components, sig, delta(f, 1) if sig == 0 else None)


def quasi_alternating(f: MurasugiForm) -> bool:
    """Whether the closure is quasi-alternating."""
    if isinstance(f, Family1):
        return f.d in (-1, 0, 1)
    if isinstance(f, Family2):
        return (f.d == 1 and f.m in (-1, -2, -3)) or \
               (f.d == -1 and f.m in (1, 2, 3))
    return f.d in (0, 1)


NO = "No"
CONSTRAINED = "Constrained"
UNKNOWN = "Unknown"


class SteinReport(_Value, namedtuple(
        "SteinReport",
        "l_space tight fillable euler_char dehn_twist_count_bound")):
    """Stein-fillability status of the compatible contact structure.

    ``euler_char`` is present exactly when ``fillable`` is Constrained: every
    Stein filling then has that Euler characteristic.  The twist-count bound
    is the exponent sum, the number of right-handed twists needed if the
    monodromy is a product of them.
    """

    __slots__ = ()
    l_space: bool
    tight: bool
    fillable: str
    euler_char: int | None
    dehn_twist_count_bound: int


def _stein_report(f: MurasugiForm, l_space: bool, tight: bool,
                  quarters: int | None) -> tuple:
    """The fields of the Stein report, in order, from the form's L-space
    and tightness flags and its correction term d as a count of quarters,
    which is read only when both flags hold (and then the determinant is
    nonzero).  The Euler characteristic 4d + 1 is that count plus one."""
    twist_bound = 6 * f.d + murasugi.tail_exponent_sum(f)
    if not tight:
        return l_space, tight, NO, None, twist_bound
    if not l_space:
        return l_space, tight, UNKNOWN, None, twist_bound
    chi = quarters + 1
    if chi < 1:
        return l_space, tight, NO, None, twist_bound
    return l_space, tight, CONSTRAINED, chi, twist_bound


def stein_report(f: MurasugiForm) -> SteinReport:
    l_space = floer.is_l_space(f)
    tight = floer.is_tight(f)
    quarters = None
    if tight and l_space:
        quarters = floer._correction_quarters(*floer._quarter_assembly(f))
    return SteinReport(*_stein_report(f, l_space, tight, quarters))


class InvariantReport(_Value, namedtuple(
        "InvariantReport",
        "word normal_form components determinant h1 b1 l_space tight "
        "tight_inverse knot_type_tag hf_plus_s0 spin_c_count correction_term "
        "delta signature qa finite_order_screen stein torus_bundle")):
    """Everything the toolkit knows about one braid word.

    Optional fields are None when undefined: the Floer block needs a
    rational homology sphere cover (nonzero determinant), delta needs a knot
    closure, the signature formula needs a family-1 knot closure, and the
    torus-bundle block is only filled on request.
    """

    __slots__ = ()
    word: str
    normal_form: MurasugiForm
    components: int
    determinant: int
    h1: AbelianGroup
    b1: int
    l_space: bool
    tight: bool
    tight_inverse: bool
    knot_type_tag: str
    hf_plus_s0: GradedModule | None
    spin_c_count: int | None
    correction_term: Fraction | None
    delta: Fraction | None
    signature: int | None
    qa: bool
    finite_order_screen: str
    stein: SteinReport
    torus_bundle: TorusBundleModules | None


# The values record of one word: the fields of ``InvariantReport``, in its
# order, with each grading a count of quarters.  ``hf_plus_s0`` and the
# bundle's modules are quarter modules, ``correction_quarters`` and
# ``delta_quarters`` are 4d and 4 delta, ``stein`` is the tuple of the
# ``SteinReport`` fields and ``torus_bundle`` the one of
# ``floer._torus_bundle``.  It is the one form of a report that the command
# line writes (``cli._line``) and checks (``cli._oracle``).
_Values = namedtuple(
    "_Values",
    "word normal_form components determinant h1 b1 l_space tight "
    "tight_inverse knot_type_tag hf_plus_s0 spin_c_count correction_quarters "
    "delta_quarters signature qa finite_order_screen stein torus_bundle")


def _values(w: BraidWord, raw_text: str | None, include_torus_bundle: bool,
            matrix: homology.SL2Matrix | None,
            form: MurasugiForm | None) -> _Values:
    """The values stage of ``analyze_word``: every value of the report,
    each grading held as a count of quarters.  The image and the normal
    form are computed here unless given."""
    if matrix is None:
        matrix = homology.image(w)
    if form is None:
        form = murasugi.classify(w, matrix)
    components = homology.components_from_image(matrix)
    det = homology.determinant_from_image(matrix)
    h1 = homology.h1_from_image(matrix)
    # H1(Sigma_2(L); Z/2) has dimension components - 1: this ties the
    # cokernel of M - I to the count read from M mod 2.
    two_rank = h1.free_rank
    for factor in h1.torsion:
        two_rank += not factor & 1
    if two_rank != components - 1:
        raise InternalInconsistency(
            f"H1 has 2-rank {two_rank} on a closure of {components} components")

    hf = quarters = delta_quarters = sig = torus_bundle = None
    if det != 0:
        tag, n, k = floer._quarter_assembly(form)
        hf = floer._row_quarters(tag, n, k)
        quarters = floer._correction_quarters(tag, n, k)
        if include_torus_bundle:
            torus_bundle = floer._torus_bundle(tag, k, det)
    if components == 1:
        _check_delta_defined(form, components)
        delta_quarters = 2 * quarters
        if isinstance(form, Family1):
            sig = signature(form, components)
    l_space = floer.is_l_space(form)
    tight = floer.is_tight(form)
    tight_inverse = floer.is_tight_inverse(form)
    qa = quasi_alternating(form)
    # A quasi-alternating closure has an L-space cover (Ozsvath-Szabo, Adv.
    # Math. 194, 2005), so a nonzero determinant.
    if qa and not (l_space and det):
        raise InternalInconsistency(
            "a quasi-alternating closure without an L-space double cover")

    return _Values(
        run_text(w) if raw_text is None else raw_text, form, components,
        det, h1, h1.free_rank, l_space, tight, tight_inverse,
        floer._knot_tag(tight, tight_inverse), hf,
        det if hf is not None else None, quarters, delta_quarters, sig, qa,
        _screen(form, components, sig, delta_quarters),
        _stein_report(form, l_space, tight, quarters), torus_bundle)


def _report(values: _Values) -> InvariantReport:
    """The public report of a values record, each field read from the
    record's own field; its ``Fraction``s are made here."""
    (word, form, components, det, h1, b1, l_space, tight, tight_inverse,
     tag, hf, spin_c_count, correction_quarters, delta_quarters, sig, qa,
     screen, stein, torus_bundle) = values
    correction = delta_value = None
    if hf is not None:
        hf = floer._graded_module(hf)
    if correction_quarters is not None:
        from fractions import Fraction
        correction = Fraction(correction_quarters, 4)
    if delta_quarters is not None:
        from fractions import Fraction
        delta_value = Fraction(delta_quarters, 4)
    if torus_bundle is not None:
        torus_bundle = floer._bundle_modules(torus_bundle)
    return InvariantReport(
        word, form, components, det, h1, b1, l_space, tight, tight_inverse,
        tag, hf, spin_c_count, correction, delta_value, sig, qa, screen,
        SteinReport(*stein), torus_bundle)


def analyze_word(w: BraidWord, raw_text: str | None = None,
                 include_torus_bundle: bool = False, *,
                 _record: bool = False,
                 _matrix: homology.SL2Matrix | None = None,
                 _form: MurasugiForm | None = None) -> InvariantReport:
    """Aggregate every invariant of one word into a report.

    The word's image in SL(2,Z) is computed once; the normal form, the
    component count, the determinant and H1 are all read from it.  When the
    determinant is nonzero, the form's Floer assembly (table tag, n and the
    shift in quarters) is read once and the module HF+ is built once from
    it.  The correction term is that module's tower bottom, delta is twice
    it, and the screen and the Stein report are read from those values;
    the torus bundle comes from the same assembly and the determinant.
    The report's word is ``raw_text``, or else ``run_text(w)``, which keeps
    each h run as one token.  Two identities tie separate derivations
    together on every report, and ``InternalInconsistency`` is raised unless
    both hold: H1 has 2-rank ``components`` - 1, and a quasi-alternating
    report is an L-space with a nonzero determinant.

    With the private ``_record``, the values record (``_Values``, every
    grading a count of quarters) is returned instead of the report.  The
    private ``_matrix`` and ``_form``, which must be ``homology.image(w)``
    and ``murasugi.classify(w, _matrix)``, are read instead of computed
    again: ``cli``'s batch runs those stages over a chunk of words first."""
    values = _values(w, raw_text, include_torus_bundle, _matrix, _form)
    return values if _record else _report(values)


# --- stable JSON encoding ----------------------------------------------------

def rational_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def graded_module_json(module: GradedModule) -> dict:
    return {
        "towers": [rational_json(g) for g in module.towers],
        "frees": [{"rank": rank, **rational_json(g)}
                  for rank, g in module.frees],
        "absolute": module.absolute,
    }


def normal_form_json(f: MurasugiForm) -> dict:
    if isinstance(f, Family1):
        return {"family": 1, "d": f.d, "a": list(f.a)}
    family = 2 if isinstance(f, Family2) else 3
    return {"family": family, "d": f.d, "m": f.m}


def stein_json(s: SteinReport) -> dict:
    out = {"l_space": s.l_space, "tight": s.tight, "fillable": s.fillable}
    if s.euler_char is not None:
        out["euler_char"] = s.euler_char
    out["dehn_twist_count_bound"] = s.dehn_twist_count_bound
    return out


def torus_bundle_json(tb: TorusBundleModules) -> dict:
    return {
        "s0": graded_module_json(tb.s0),
        "non_s0_count": tb.non_s0_count,
        "non_s0_relative": graded_module_json(tb.non_s0_relative),
        "fiber_structures_vanish": tb.fiber_structures_vanish,
    }


def report_json(r: InvariantReport) -> dict:
    """The report as a JSON-ready dict: canonical key order, rationals as
    num/den pairs, absent optionals omitted.  ``cli._line`` writes the
    dict of ``_report(record)``, byte for byte, from the values record,
    without building this dict or the report."""
    out: dict = {
        "word": r.word,
        "normal_form": normal_form_json(r.normal_form),
        "components": r.components,
        "determinant": r.determinant,
        "h1": {"free_rank": r.h1.free_rank, "torsion": list(r.h1.torsion)},
        "b1": r.b1,
        "l_space": r.l_space,
        "tight": r.tight,
        "tight_inverse": r.tight_inverse,
        "knot_type_tag": r.knot_type_tag,
    }
    if r.hf_plus_s0 is not None:
        out["hf_plus_s0"] = graded_module_json(r.hf_plus_s0)
    if r.spin_c_count is not None:
        out["spin_c_count"] = r.spin_c_count
    if r.correction_term is not None:
        out["correction_term"] = rational_json(r.correction_term)
    if r.delta is not None:
        out["delta"] = rational_json(r.delta)
    if r.signature is not None:
        out["signature"] = r.signature
    out["qa"] = r.qa
    out["finite_order_screen"] = r.finite_order_screen
    out["stein"] = stein_json(r.stein)
    if r.torus_bundle is not None:
        out["torus_bundle"] = torus_bundle_json(r.torus_bundle)
    return out

