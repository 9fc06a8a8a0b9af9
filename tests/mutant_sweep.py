"""The slow column of the mutant table: whether the test suite catches each
row, and the first test that fails.

For each row of ``mutants.MUTANTS`` this copies the checkout (``src``,
``bench``, ``demos``, ``README.md``, ``pyproject.toml``) and a ``tests``
directory to a temporary tree, applies the row there, and runs tier-1 on it
with ``-x``, leaving out the mutant table's own test.  Its name keeps pytest
from collecting it.  Run it from the checkout root:

    python tests/mutant_sweep.py                  # this checkout's tests
    python tests/mutant_sweep.py --tests OTHER    # another tests directory
    python tests/mutant_sweep.py --all            # every failing test

so that two versions of the tests can be compared on the same mutants.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from mutants import MUTANTS, apply

COPIED = ("src", "bench", "demos", "README.md", "pyproject.toml")
SKIPPED = shutil.ignore_patterns("__pycache__", ".pytest_cache", "out",
                                 ".work-*")


def sweep_row(mutant, tests, directory, every):
    tree = Path(directory)
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name, ignore=SKIPPED)
        else:
            shutil.copy(source, tree / name)
    shutil.copytree(tests, tree / "tests", ignore=SKIPPED)
    apply(mutant, tree / "src" / "threebraid")
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pytest", "-q", "-rfE",
         "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py",
         *(() if every else ("-x",))],
        cwd=tree, env=env, capture_output=True, text=True)
    return result.returncode, re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - |$)",
                                         result.stdout, re.M)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", type=Path, default=HERE,
                        help="the tests directory to run (default: this one)")
    parser.add_argument("--all", action="store_true",
                        help="run past the first failure and list them all")
    args = parser.parse_args(argv)
    print(f"tests: {args.tests}")
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as directory:
            code, failed = sweep_row(mutant, args.tests.resolve(), directory,
                                     args.all)
        caught = {0: "missed", 1: "caught"}.get(code, f"exit {code}")
        print(f"{mutant.name:48} probe exit {mutant.exit}  tier-1 {caught:6}"
              f"  {failed[0] if failed else '-'}"
              f"  ({time.perf_counter() - start:.0f} s)", flush=True)
        if args.all and failed:
            print(*(f"    {name}" for name in failed), sep="\n", flush=True)


if __name__ == "__main__":
    main()
