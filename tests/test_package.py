import subprocess
import sys
import types
from pathlib import Path

import threebraid


def test_all_names_resolve_and_hold_no_module():
    for name in threebraid.__all__:
        assert not isinstance(getattr(threebraid, name), types.ModuleType), name
    # The submodules stay reachable as attributes of the package.
    for name in ("floer", "homology", "invariants", "murasugi", "seifert",
                 "words"):
        assert isinstance(getattr(threebraid, name), types.ModuleType)


def loaded_modules(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``
    with this package first on its path."""
    src = str(Path(threebraid.__file__).resolve().parent.parent)
    script = f"import sys; sys.path.insert(0, {src!r}); {statement}; " \
        "print(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    return set(done.stdout.split())


def test_the_command_line_imports_no_dataclasses_or_inspect():
    # Together they cost about 11 ms of every command's start-up.  Only
    # the modules the import adds count, in case site preloads others.
    added = loaded_modules("import threebraid.cli") - loaded_modules("pass")
    assert "threebraid.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
