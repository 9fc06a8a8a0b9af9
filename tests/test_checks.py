"""Internal consistency checks are real raises, so they survive python -O.

Each check is fed a corrupted input that can only arise from a bug, and
must raise rather than return a wrong answer.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import threebraid
from threebraid import cli, homology, invariants, murasugi, seifert
from threebraid.homology import InternalInconsistency, image
from threebraid.murasugi import Family1, Family2, S, U, UU
from threebraid.words import Y, parse


def test_blocks_rejects_a_non_alternating_word():
    with pytest.raises(InternalInconsistency):
        murasugi._blocks((S, S))
    with pytest.raises(InternalInconsistency):
        murasugi._blocks((S, U, U, S))
    with pytest.raises(InternalInconsistency):
        murasugi._blocks((S, U, S))


def test_blocks_rejects_a_u_power_in_place_of_an_s():
    # Even length and no S among the powers: only the count of S in the
    # even places catches it.
    with pytest.raises(InternalInconsistency):
        murasugi._blocks((S, U, UU, U))


# Each word with an image of the wrong class: the central, parabolic,
# elliptic and hyperbolic fits of classify's image check.
MISFIT_IMAGES = {
    "central, not (-1)^d I": ("h", homology.IDENTITY),
    "parabolic, wrong k": ("y^3", image(parse("y^2"))),
    "parabolic, wrong sign": ("y^3", image(parse("h y^3"))),
    "parabolic form, hyperbolic image": ("y^3", image(parse("x y^-1"))),
    "elliptic, trace of the right sign": ("x^-1 y^-1",
                                          image(parse("x y^-1 x y^-1"))),
    "elliptic, trace 0, wrong orientation": ("x^-2 y^-1",
                                             image(parse("h x^-2 y^-1"))),
    "hyperbolic, trace of the right sign": ("x y^-1 x y^-2",
                                            image(parse("y^5"))),
    "hyperbolic, trace of the wrong sign": ("x y^-1", image(parse("h x y^-1"))),
}


@pytest.mark.parametrize("text, matrix", MISFIT_IMAGES.values(),
                         ids=MISFIT_IMAGES.keys())
def test_classify_rejects_an_image_that_does_not_fit(text, matrix):
    w = parse(text)
    murasugi.classify(w, image(w))
    with pytest.raises(InternalInconsistency):
        murasugi.classify(w, matrix)


def test_classify_rejects_a_non_integer_twist_power(monkeypatch):
    murasugi.classify(parse("x"))
    monkeypatch.setattr(murasugi, "_run_syllables",
                        lambda generator, exponent: (bytes((S, U)), 2, 1, 2))
    with pytest.raises(InternalInconsistency):
        murasugi.classify(parse("x"))


def test_image_checks_the_determinant_of_the_product(monkeypatch):
    monkeypatch.setattr(homology, "_run_entries",
                        lambda generator, exponent: (1, 1, 1, 1))
    with pytest.raises(InternalInconsistency):
        image(parse("y x y"))


def test_chunked_image_checks_the_determinant_of_the_product(monkeypatch):
    w = parse("x y x y y")
    (window,), (rest,) = w._windows, w._tail
    assert rest == Y
    u = parse("x y x y")
    assert (u._windows, u._tail) == (bytes([window]), ())
    corrupted = list(homology._CHUNK_ENTRIES)
    corrupted[window] = (1, 1, 1, 1)
    monkeypatch.setattr(homology, "_CHUNK_ENTRIES", corrupted)
    with pytest.raises(InternalInconsistency):
        image(w)


# Links and region sums of a three-row cyclic form whose first link is 2,
# which no crossing gives: the recurrence's premise fails.
NON_UNIT_LINKS = ([2, 1, 1], [0, 0, 0])


def test_recurrence_rejects_a_link_that_is_not_a_unit():
    assert seifert._determinant_and_signature([1, 1, 1], [1, 1, 1]) == (4, -1)
    with pytest.raises(InternalInconsistency):
        seifert._determinant_and_signature(*NON_UNIT_LINKS)
    # One and two rows run the same recurrence, so the premise guards
    # them too.
    with pytest.raises(InternalInconsistency):
        seifert._determinant_and_signature([2, 1], [0, 0])
    with pytest.raises(InternalInconsistency):
        seifert._determinant_and_signature([2], [0])


def test_quasi_alternating_check_catches_a_shifted_family_1_range(
        monkeypatch, capsys):
    # h^2 x y^-2 is Family1(2, (2,)): quasi-alternating under the mutant,
    # not an L-space, so the report is refused without the oracle.
    assert cli.main(["analyze", "h^2 x y^-2"]) == 0
    quasi_alternating = invariants.quasi_alternating

    def shifted(f):
        if isinstance(f, Family1):
            return f.d in (0, 1, 2)
        return quasi_alternating(f)

    monkeypatch.setattr(invariants, "quasi_alternating", shifted)
    assert cli.main(["analyze", "h^2 x y^-2"]) == 3
    assert "L-space" in capsys.readouterr().err


def test_two_rank_check_catches_a_wrong_component_count(monkeypatch, capsys):
    # The mutant swaps the knots' count with the two-component links'.  A
    # knot's cover has H1 of odd order, 2-rank 0, so the count of 2 fails.
    assert cli.main(["analyze", "x y"]) == 0
    components = homology.components_from_image
    monkeypatch.setattr(homology, "components_from_image",
                        lambda m: {1: 2, 2: 1}.get(components(m), 3))
    for text in ("x y", "x^2 y"):
        assert cli.main(["analyze", text]) == 3
        assert "2-rank" in capsys.readouterr().err


@pytest.mark.parametrize("form", [Family2(0, 1), Family2(1, 1)])
def test_values_stage_rejects_a_form_that_does_not_fit(
        form, monkeypatch, capsys, tmp_path):
    # x y closes to a knot of determinant 1.  Under the mutant its form is
    # Family2(0, 1), of determinant zero, or Family2(1, 1), a form with no
    # delta formula: the values stage refuses both before the Floer
    # assembly or delta reads them, so neither PositiveB1 nor
    # FamilyNotCovered escapes the command line.
    classify = murasugi.classify
    knot = parse("x y")
    monkeypatch.setattr(murasugi, "classify", lambda w, matrix=None:
                        form if w == knot else classify(w, matrix))
    assert cli.main(["analyze", "--json", "x y"]) == 3
    assert "internal inconsistency" in capsys.readouterr().err
    words = tmp_path / "words.txt"
    words.write_text("x y\nh x y^-5\n", encoding="utf-8")
    assert cli.main(["batch", "--json", str(words)]) == 3
    error, report, summary = map(json.loads,
                                 capsys.readouterr().out.splitlines())
    assert error["word"] == "x y"
    assert error["error"]["type"] == "InternalInconsistency"
    assert report["word"] == "h x y^-5"
    assert summary == {"summary": {"ok": 1, "failed": 1}}


def test_murasugi_reexports_the_same_exception():
    assert murasugi.InternalInconsistency is InternalInconsistency


CORRUPTED_UNDER_O = """
from threebraid import homology, murasugi, seifert
from threebraid.homology import InternalInconsistency, image
from threebraid.words import BraidWord, parse

assert False, "asserts must be stripped under -O"
raised = 0
try:
    murasugi._blocks((murasugi.S, murasugi.S))
except InternalInconsistency:
    raised += 1
try:
    murasugi.classify(parse("y^3"), image(parse("x y^-1")))
except InternalInconsistency:
    raised += 1
run_entries = homology._run_entries
homology._run_entries = lambda generator, exponent: (1, 1, 1, 1)
try:
    image(parse("x"))
except InternalInconsistency:
    raised += 1
homology._run_entries = run_entries
try:
    image(BraidWord((("z", 2),)))
except ValueError:
    try:
        murasugi.classify(BraidWord((("z", 2),)))
    except ValueError:
        raised += 1
try:
    seifert._determinant_and_signature(*""" + repr(NON_UNIT_LINKS) + """)
except InternalInconsistency:
    raised += 1
print(raised)
"""


def test_checks_survive_python_dash_o():
    src = str(Path(threebraid.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-O", "-c", f"import sys; sys.path.insert(0, {src!r})"
         + CORRUPTED_UNDER_O],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "5"
