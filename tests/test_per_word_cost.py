"""The fixed cost that every report pays after the two folds.

A generator expression gets a frame of its own on every interpreter, and a
comprehension one up to Python 3.11, as does a namedtuple's ``__new__``,
which is a ``lambda``, so a report path that builds one per word pays a
frame call per word whatever the word's length.  These tests count such
calls with ``sys.setprofile``: a batch costs the same count whatever its
number of words, and a warm one-word report costs none.
"""

import io
import json
import random
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout

from threebraid import cli, homology, invariants, words as w_

COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>",
                  "<lambda>"}


def comprehension_calls(argv) -> Counter:
    """The comprehension, generator and lambda frames that
    ``cli.main(argv)`` enters or resumes, by code name and first line,
    after one warm-up call has done whatever a first call does once (a
    codec or module import)."""
    calls = Counter()

    def profiler(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in COMPREHENSIONS:
            calls[code.co_filename, code.co_firstlineno, code.co_name] += 1

    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(previous)
    assert code == 0
    return calls


def byte_path_words(rng: random.Random, count: int) -> str:
    return "".join(
        " ".join(rng.choice(("x", "y", "x^-1", "y^-1"))
                 for _ in range(rng.randint(1, 40))) + "\n"
        for _ in range(count))


def test_a_batch_makes_no_comprehension_frame_per_word(rng, tmp_path):
    for flags in (["--json", "--torus-bundle"], ["--torus-bundle"]):
        counts = []
        for count in (10, 100):
            path = tmp_path / f"words-{count}.txt"
            path.write_text(byte_path_words(rng, count), encoding="utf-8")
            counts.append(comprehension_calls(["batch", *flags, str(path)]))
        assert counts[0] == counts[1], (flags, counts)


def test_a_warm_report_makes_no_comprehension_frame():
    for argv in (["analyze", "--json", "--torus-bundle", "h^-3000 x^-2 y^-1"],
                 # A reduced diagram on the byte path, through the oracle.
                 ["analyze", "--json", "--oracle",
                  "x y^-1 x y x^-1 y^-1 x y x y^-1 x^-1 y"],
                 # A word of runs, through the oracle's free reduction.
                 ["analyze", "--json", "--oracle", "x^2 y^-3 x y s1"],
                 # The normal form, H1 and the values record of a family-1
                 # word, each built once.
                 ["analyze", "--json", "--torus-bundle", "x y^-1 x y"],
                 # The pretty report: the word's text, H1 and the modules.
                 ["analyze", "x y^-1 x y"],
                 ["analyze", "--torus-bundle", "--oracle", "h x y^-5"]):
        assert comprehension_calls(argv) == Counter(), argv


def test_a_small_integer_is_written_without_a_big_one():
    homology._int_text(-12345)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        text = homology._int_text(-12345)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == "-12345"
    assert peak < 1024, peak


def test_the_shared_relative_module_is_written_from_text_held_at_import(
        monkeypatch):
    # The record holds the bundle's s0 module alone.  The line writes the
    # other torsion structures' count from the determinant, and their
    # relative module and the vanishing flag, the same on every bundle,
    # from text, so it writes two modules: hf_plus_s0 and s0.
    record = invariants.analyze_word(w_.parse("h x y^-5"),
                                     include_torus_bundle=True, _record=True)
    written = []
    module_text = cli._module_text

    def counted(module):
        written.append(module)
        return module_text(module)

    monkeypatch.setattr(cli, "_module_text", counted)
    line = cli._line(record, None)
    assert written == [record.hf_plus_s0, record.torus_bundle]
    assert cli._NON_S0_RELATIVE_TEXT == \
        '{"towers":[{"num":-1,"den":2},{"num":1,"den":2}],"frees":[],' \
        '"absolute":false}'
    assert f'"non_s0_relative":{cli._NON_S0_RELATIVE_TEXT},' \
        '"fiber_structures_vanish":true}' in line
    assert json.loads(line)["torus_bundle"]["non_s0_count"] == \
        record.determinant - 1 == 8


def test_a_text_with_an_h_skips_the_byte_path(monkeypatch):
    def byte_path(text):
        raise AssertionError(f"{text!r} went through the byte path")

    monkeypatch.setattr(w_, "_unit_letter_digits", byte_path)
    assert w_.parse("h^-3000 x^-2 y^-1").runs == (
        ("h", -3000), ("x", -2), w_.Y_INV)
    assert w_.parse("x h").runs == (w_.X, ("h", 1))
