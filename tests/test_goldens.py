"""Every call whose stdout digest ``bench/goldens.json`` records still prints
that stdout byte for byte, replayed as ``bench/make_goldens.py`` records it:
each (stratum, variant) call of each workload through ``run.Runner``."""

import json
from pathlib import Path

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
