"""Each row of the mutant table, applied to a copy of the package, makes its
probe exit as the row says, and changes what the probe prints."""

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import threebraid
from threebraid import cli

from mutants import MUTANTS, apply

PACKAGE = Path(threebraid.__file__).resolve().parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[
    re.sub(r"[^a-z0-9]+", "-", m.name.lower()).strip("-") for m in MUTANTS])
def test_mutant_probe_exits_as_its_row_says(mutant, tmp_path):
    copy = tmp_path / "threebraid"
    shutil.copytree(PACKAGE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    apply(mutant, copy)
    result = subprocess.run(
        [sys.executable, "-m", "threebraid.cli", *mutant.argv],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert "Traceback" not in result.stderr, result.stderr
    assert result.returncode == mutant.exit, (result.stdout, result.stderr)
    # The mutant is live on its probe: the unmutated package, run here,
    # prints another report and exits 0.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(mutant.argv)) == 0
    assert out.getvalue() and result.stdout != out.getvalue(), \
        result.stdout
