"""Benchmark of the threebraid command line, one workload per run.

    python3 bench/run.py --workload long_words --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run drives the real entry point, ``threebraid.cli.main``, in-process and on
one thread, in a closed loop: each call starts when the previous one has
returned, and its stdout goes to an in-memory buffer.  The calls are the
first rounds of the seed's corpus (``corpus.py``): as many rounds as take
``--seconds`` at the seed commit.  Every commit makes the same calls, so a
faster commit finishes sooner and its percentiles stay comparable.  Every
call's stdout is checked against its golden sha256 digest in
``goldens.json``.  Times are scaled to a reference host speed (see
``REFERENCE_LOOP_S``).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it makes the rounds of half of ``--seconds`` untraced, then
repeats exactly those calls under the outside-in tracer (``tracer.py``),
reports the per-layer metrics and writes the spans to ``bench/out/``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload, each in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from corpus import WORKLOADS, Call, Workload
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens.json"
OUT = BENCH / "out"

SETUP_PROBES = 9
TAIL_BEYOND = 10
# The untimed warm-up input: small, and uses both generators, so that it is
# valid under every workload's flags.
WARM_UP_WORDS = ("x y^-1 x y^-2 x y^-1", "x y x y", "y^3 x^-1")

# Set-up probe, run in a fresh interpreter: import the package and finish one
# warm-up call, timed from inside the interpreter.
PROBE = """\
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from threebraid import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(time.perf_counter() - start if code == 0 else f"exit {code}")
"""

# Shared hosts run this benchmark at speeds that swing by up to 2 times, for
# stretches of seconds to minutes, when other tenants load the same cores.
# So a short reference loop (integer arithmetic, tuple allocation and a walk
# over scattered lists, the kinds of work the package's hot loops do) is
# timed after every call, and each round's call times are scaled by
# REFERENCE_LOOP_S over the round's median loop time: they are stated for a
# host on which the loop takes REFERENCE_LOOP_S, as it does on an unloaded
# 2.1 GHz Xeon vCPU with Python 3.11.
REFERENCE_LOOP_S = 0.0025
_LOOP_CELLS = [[i] for i in range(20_000)]
random.Random(0).shuffle(_LOOP_CELLS)


def reference_loop() -> float:
    """Seconds that the reference loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(5_000):
        total += i * i
    total += len(tuple((i, i) for i in range(10_000)))
    for cell in _LOOP_CELLS:
        total += cell[0]
    return time.perf_counter() - start


END_TO_END_UNITS = {"setup_s": "s", "words_per_s": "1/s", "call_p50_ms": "ms",
                    "call_tail_ms": "ms", "peak_rss_mb": "MB"}


def load_package():
    """Import threebraid from this checkout's ``src`` and nowhere else."""
    package_dir = SRC / "threebraid"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"run.py: no threebraid package at {package_dir}")
    sys.path.insert(0, str(SRC))
    import threebraid.cli
    if Path(threebraid.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(
            f"run.py: imported threebraid from {threebraid.__file__}")
    return threebraid


def digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def oracle_agrees(output: str) -> bool:
    """Whether every oracle block in the JSON output reports agreement."""
    payloads = [json.loads(line) for line in output.splitlines()]
    return all(payload["oracle"].get("agrees") is True
               for payload in payloads if "oracle" in payload)


@dataclass(frozen=True)
class Record:
    """A checked call: its time, and the reference loop's time after it."""

    call: Call
    seconds: float
    loop: float
    ok: bool


def reference_seconds(records: list[Record], per_round: int) -> list[float]:
    """The records' call times on the reference host, each scaled by the
    median reference loop time of its round."""
    seconds = []
    for start in range(0, len(records), per_round):
        round_ = records[start:start + per_round]
        scale = REFERENCE_LOOP_S / statistics.median(r.loop for r in round_)
        seconds += [record.seconds * scale for record in round_]
    return seconds


class Runner:
    """Executes a workload's calls through ``cli.main`` and checks them."""

    def __init__(self, workload: Workload, package, work: Path,
                 goldens: dict[str, str]):
        self.workload = workload
        self.cli = package.cli
        self.work = work
        self.goldens = goldens

    def argv(self, call: Call) -> list[str]:
        if self.workload.command == "analyze":
            return ["analyze", call.words[0], *self.workload.flags]
        path = self.work / f"{call.key.replace('/', '_')}.txt"
        if not path.exists():
            path.write_text("".join(f"{word}\n" for word in call.words),
                            encoding="utf-8")
        return ["batch", str(path), *self.workload.flags]

    def execute(self, argv: list[str]) -> tuple[float, object, str]:
        """(seconds, exit code or error, stdout) of one ``cli.main`` call.
        ``cli.main`` is looked up on each call, so a tracer sees it."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as error:
                code = error.code
            except Exception as error:  # a failed call is counted, not fatal
                code = repr(error)
            seconds = time.perf_counter() - start
        return seconds, code, out.getvalue()

    def ok(self, call: Call, code, output: str) -> bool:
        return (code == 0 and digest(output) == self.goldens.get(call.key)
                and oracle_agrees(output))

    def run(self, calls: list[Call]) -> list[Record]:
        """The calls in a closed loop, each checked after it returns."""
        records = []
        for call in calls:
            elapsed, code, output = self.execute(self.argv(call))
            records.append(Record(call, elapsed, reference_loop(),
                                  self.ok(call, code, output)))
        return records

    def warm_up_argv(self) -> list[str]:
        if self.workload.command == "analyze":
            return ["analyze", WARM_UP_WORDS[0], *self.workload.flags]
        return self.argv(Call("warm-up", -1, WARM_UP_WORDS, ()))


def setup_seconds(argv: list[str]) -> float:
    """Median over fresh interpreters of the time to import threebraid and
    finish one warm-up call, each scaled to the reference host by the
    reference loop timed right after it.  One extra probe runs first and is
    dropped: it may compile the bytecode cache."""
    times = []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, "-c", PROBE, str(SRC), *argv],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        if probe:
            times.append(float(done.stdout) * REFERENCE_LOOP_S
                         / reference_loop())
    return statistics.median(times)


def words_per_second(records: list[Record], per_round: int) -> float:
    """Words whose call passed the correctness gate, per second of
    ``cli.main`` time on the reference host, where each stratum's calls are
    taken to last the median latency of its calls.  Unlike a plain total,
    the medians are not moved by the odd call that a busy host slows."""
    latencies: dict[int, list[float]] = {}
    for record, seconds in zip(records, reference_seconds(records, per_round)):
        latencies.setdefault(record.call.stratum, []).append(seconds)
    seconds = sum(len(times) * statistics.median(times)
                  for times in latencies.values())
    return sum(len(record.call.words) for record in records
               if record.ok) / seconds


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    ``TAIL_BEYOND`` samples beyond it, or the maximum if there are too few."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = len(ordered) - 1 - TAIL_BEYOND
    return ordered[index], 100 * (index + 1) / len(ordered), TAIL_BEYOND


def measure(runner: Runner, seed: int,
            seconds: float) -> tuple[dict, list[str], list[Record]]:
    """End-to-end metrics of an untraced run, with lines that explain them."""
    setup = setup_seconds(runner.warm_up_argv())
    runner.execute(runner.warm_up_argv())
    workload = runner.workload
    records = runner.run(workload.corpus(seed, workload.rounds_for(seconds)))
    per_round = workload.per_round
    latencies = reference_seconds(records, per_round)
    tail_s, percentile, beyond = tail(latencies)
    values = {
        "setup_s": setup,
        "words_per_s": words_per_second(records, per_round),
        "call_p50_ms": statistics.median(latencies) * 1e3,
        "call_tail_ms": tail_s * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        "words_per_s": f"{sum(len(r.call.words) for r in records if r.ok)} "
                       f"words in {len(records)} calls",
        "call_p50_ms": f"{len(records)} calls",
        "call_tail_ms": f"p{percentile:.1f} of {len(records)} calls, "
                        f"{beyond} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"  {name:<14} {value:>12.4f} {END_TO_END_UNITS[name]:<4} "
             f"{notes[name]}" for name, value in values.items()]
    unscaled_p50 = statistics.median(record.seconds for record in records)
    lines.append(f"  call times scaled to the reference host; unscaled p50 "
                 f"{unscaled_p50 * 1e3:.4f} ms")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    return metrics, lines, records


def per_layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"calls_per_word": "calls/word", "self_ms_per_word": "ms/word",
            "letters_per_word": "letters/word", "max_entry_bits": "bits",
            "size": "rows", "self_ms_slope": "log/log",
            "untraced_words_per_s": "1/s", "traced_words_per_s": "1/s",
            "overhead": "ratio"}[stat]


def trace(runner: Runner, package, seed: int,
          seconds: float) -> tuple[dict, list[str], list[Record]]:
    """Per-layer metrics: the rounds of half the run untraced, then the same
    calls again under the tracer."""
    runner.execute(runner.warm_up_argv())
    workload = runner.workload
    calls = workload.corpus(seed, workload.rounds_for(seconds / 2))
    untraced = runner.run(calls)
    with Tracer(package) as tracer:
        traced = runner.run(calls)
    values = tracer.metrics([size for call in calls for size in call.sizes])
    per_round = workload.per_round
    values["trace.untraced_words_per_s"] = words_per_second(untraced,
                                                            per_round)
    values["trace.traced_words_per_s"] = words_per_second(traced, per_round)
    values["trace.overhead"] = (values["trace.untraced_words_per_s"]
                                / values["trace.traced_words_per_s"])
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{runner.workload.name}-seed{seed}.tsv.gz"
    tracer.write(spans)

    lines = [f"  {len(tracer.name)} spans over {tracer.words} words "
             f"written to {spans.relative_to(ROOT)}",
             f"  {'function':<30} {'calls/word':>12} {'self ms/word':>13}"]
    for name in sorted({name.rsplit(".", 1)[0] for name in values
                        if name.endswith(".calls_per_word")},
                       key=lambda n: -values[f"{n}.self_ms_per_word"]):
        calls_per_word = values[f"{name}.calls_per_word"]
        if calls_per_word:
            lines.append(f"  {name:<30} {calls_per_word:>12.3f} "
                         f"{values[f'{name}.self_ms_per_word']:>13.4f}")
    lines += [f"  {name:<42} {value:>12.4f} {per_layer_unit(name)}"
              for name, value in values.items()
              if not name.endswith(("calls_per_word", "self_ms_per_word"))]
    metrics = {name: {"value": value, "unit": per_layer_unit(name)}
               for name, value in values.items()}
    return metrics, lines, untraced + traced


def run_one(args) -> None:
    package = load_package()
    workload = WORKLOADS[args.workload]
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
        runner = Runner(workload, package, Path(work), goldens)
        metrics, lines, records = (
            trace(runner, package, args.seed, args.seconds) if args.trace
            else measure(runner, args.seed, args.seconds))
    failed = sum(not record.ok for record in records)
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, "
          f"tracing {'on' if args.trace else 'off'}")
    print("\n".join(lines))
    print(f"  error_rate     {failed / len(records):>12.4f}      "
          f"{failed} of {len(records)} calls failed")
    print(f"  correctness gate: {'pass' if not failed else 'FAIL'}, "
          f"{len(records) - failed} of {len(records)} calls match their "
          f"golden digests")
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))


def run_all(args) -> int:
    """Each workload in a fresh interpreter; every result printed."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        print(done.stdout, end="", flush=True)
        if done.returncode:
            print(done.stderr, end="", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, result in results.items()
                    for metric, value in result["metrics"].items()}}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
