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


PACKAGE = Path(threebraid.__file__).resolve().parent


def loaded_modules(statement: str, flags: tuple[str, ...] = ()) -> set[str]:
    """The modules a fresh interpreter, started with ``flags``, holds after
    running ``statement`` with this package first on its path."""
    script = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); " \
        f"{statement}; print(*sys.modules)"
    done = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return set(done.stdout.split())


def test_the_command_line_imports_no_dataclasses_or_inspect():
    # Together they cost about 11 ms of every command's start-up.  Only
    # the modules the import adds count, in case site preloads others.
    added = loaded_modules("import threebraid.cli") - loaded_modules("pass")
    assert "threebraid.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_the_command_line_imports_no_typing():
    # -S skips site, whose .pth files may import typing themselves.
    loaded = loaded_modules("import threebraid.cli", ("-S",))
    assert "threebraid.cli" in loaded
    assert "typing" not in loaded, sorted(loaded)
    for path in PACKAGE.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "import typing" not in text and "from typing" not in text, path


def test_a_report_imports_no_argparse_json_or_seifert():
    # stdout is sent to the null device for the call, so that only the
    # module names reach loaded_modules.
    call = ("import os; sys.stdout = open(os.devnull, 'w'); "
            "import threebraid.cli; threebraid.cli.main({argv!r}); "
            "sys.stdout = sys.__stdout__")
    bare = loaded_modules("pass")
    added = loaded_modules(call.format(
        argv=["analyze", "--json", "--torus-bundle", "x"])) - bare
    assert "threebraid.cli" in added
    assert not added & {"argparse", "json", "threebraid.seifert"}, \
        sorted(added)
    added = loaded_modules(call.format(argv=["analyze", "--oracle", "x"])) \
        - bare
    assert "threebraid.seifert" in added
    assert not added & {"argparse", "json"}, sorted(added)
    assert "threebraid.seifert" not in loaded_modules("import threebraid")


def test_a_report_imports_no_fractions():
    # The command line prints every grading from its count of quarters, so
    # fractions, and the numbers, decimal, re and enum modules that it
    # loads, stay out; -S skips site, whose .pth files may load re and enum.
    # decimal still loads to print an integer of more than _SPLIT_BITS bits.
    call = ("import os; sys.stdout = open(os.devnull, 'w'); "
            "import threebraid.cli; threebraid.cli.main(['analyze', "
            "'--json', '--torus-bundle', 'h x y^-5']); "
            "sys.stdout = sys.__stdout__")
    fraction_modules = {"fractions", "numbers", "decimal", "re", "enum"}
    loaded = loaded_modules(call, ("-S",))
    assert "threebraid.cli" in loaded
    assert not loaded & fraction_modules, sorted(loaded)
    loaded = loaded_modules(
        call + "; from threebraid import homology; "
        "homology._int_text(1 << homology._SPLIT_BITS + 1)", ("-S",))
    assert "decimal" in loaded and "fractions" not in loaded, sorted(loaded)


def test_the_seifert_names_are_exported_on_demand():
    names = {"SeifertMatrix", "oracle_determinant", "seifert_matrix",
             "sym_determinant", "sym_signature"}
    assert names <= set(threebraid.__all__) and names <= set(dir(threebraid))
    assert "seifert" in dir(threebraid)
    namespace = {}
    exec("from threebraid import *", namespace)
    for name in names:
        assert namespace[name] is getattr(threebraid.seifert, name), name
    assert not hasattr(threebraid, "no_such_name")


def test_the_escaper_falls_back_to_json_encoder():
    # Without the C module, json.encoder supplies the escaper in Python.
    loaded = loaded_modules(
        "sys.modules['_json'] = None; from threebraid import cli; "
        "assert cli._json_string('\\u00e9\\n\\ud800') == "
        "'\"\\\\u00e9\\\\n\\\\ud800\"'")
    assert "json.encoder" in loaded
