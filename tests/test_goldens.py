"""Every call whose stdout digest ``bench/goldens.json`` records still prints
that stdout byte for byte, replayed as ``bench/make_goldens.py`` records it:
each (stratum, variant) call of each workload through ``run.Runner``.  So
does every text call that ``text_goldens.json`` records in full."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from threebraid import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_golden_call_prints_its_recorded_stdout(monkeypatch, tmp_path):
    replay_goldens(monkeypatch, tmp_path)


def test_goldens_print_without_the_report_dict(monkeypatch, tmp_path):
    # The --json lines are written from the report itself, so each report
    # is rendered once and report_json is never called on the way.
    from threebraid import invariants

    def no_dict(report):
        raise AssertionError("report_json called while printing a report")

    monkeypatch.setattr(invariants, "report_json", no_dict)
    replay_goldens(monkeypatch, tmp_path)


def test_goldens_print_without_the_public_report(monkeypatch, tmp_path):
    # The command line writes and checks the values record itself, so no
    # golden call builds the public report with its Fractions.
    from threebraid import invariants

    def no_report(values):
        raise AssertionError("invariants._report called on a golden call")

    monkeypatch.setattr(invariants, "_report", no_report)
    replay_goldens(monkeypatch, tmp_path)


def replay_goldens(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import corpus
    import run

    goldens = json.loads(run.GOLDENS.read_text(encoding="utf-8"))
    package = run.load_package()
    replayed = 0
    for workload in corpus.WORKLOADS.values():
        runner = run.Runner(workload, package, tmp_path, goldens)
        for call in workload.pool():
            _, code, output = runner.execute(runner.argv(call))
            assert runner.ok(call, code, output), (call.key, code)
            replayed += 1
    assert replayed == len(goldens) == 220


# The text goldens: the pretty ``analyze`` report, the ``batch`` text lines
# and ``conjugate``, byte for byte, as recorded in ``text_goldens.json``.
# Run this file as a script to record them again.
TEXT_GOLDENS = Path(__file__).resolve().parent / "text_goldens.json"

# All three families, knots and links of 2 and 3 components, zero
# determinants and h^d tails, one of them huge.
TEXT_WORDS = (
    "x y^-1", "h^2 x y^-3", "x^4 y^-3 x y^-1", "h^-2 x y^-3",
    "x y^-1 x y^-1", "h^-1 x^2 y^-2", "x^3 y^-3", "h x y^-5",
    "h^-7 x^3 y^-1", "y^-1 x^2", "h^1000000000 x y^-2",
    "x^2", "h x^3", "h^-3 y^-5", "h^2", "h^-1",
    "x y x y", "x y", "h^-4 x y", "x^-1 y^-1", "h^-1000000000 x^-1 y^-1",
)

CONJUGATE_PAIRS = (
    ("x y", "y x"), ("x y", "y^-1"), ("h^2 x y^-3", "x y^-3 h^2"),
    ("x^4 y^-3 x y^-1", "x y^-1 x^4 y^-3"), ("y^-1", "x^-1 y^-1"),
    ("h^1000000000 x y^-2", "y^-2 x h^1000000000"),
)

# The batch file: every word, then a line that does not parse.
BATCH_TEXT = "".join(f"{text}\n" for text in TEXT_WORDS + ("h x z",))


def text_calls():
    """The argv of every text golden call; "{file}" is the batch file."""
    for flags in ((), ("--oracle",), ("--torus-bundle",)):
        for text in TEXT_WORDS:
            yield ["analyze", *flags, text]
    for flags in ((), ("--oracle",)):
        yield ["batch", *flags, "{file}"]
    for flags in ((), ("--json",)):
        for pair in CONJUGATE_PAIRS:
            yield ["conjugate", *flags, *pair]


def run_text_call(argv, batch_file):
    """The exit code and stdout of one call of ``cli.main``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(batch_file) if arg == "{file}" else arg
                         for arg in argv])
    return code, out.getvalue()


def test_every_text_golden_call_prints_its_recorded_stdout(tmp_path):
    batch_file = tmp_path / "words.txt"
    batch_file.write_text(BATCH_TEXT, encoding="utf-8")
    goldens = json.loads(TEXT_GOLDENS.read_text(encoding="utf-8"))
    assert [golden["argv"] for golden in goldens] == list(text_calls())
    for golden in goldens:
        assert run_text_call(golden["argv"], batch_file) == \
            (golden["exit"], golden["stdout"]), golden["argv"]
    assert len(goldens) == 77


def record_text_goldens():
    with tempfile.TemporaryDirectory() as directory:
        batch_file = Path(directory) / "words.txt"
        batch_file.write_text(BATCH_TEXT, encoding="utf-8")
        goldens = []
        for argv in text_calls():
            code, stdout = run_text_call(argv, batch_file)
            goldens.append({"argv": argv, "exit": code, "stdout": stdout})
    TEXT_GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n",
                            encoding="utf-8")


if __name__ == "__main__":
    record_text_goldens()
