"""The argv reader that runs without argparse, against argparse itself.

``cli._fast_args`` either returns the namespace argparse would return or
None, which hands the argv to argparse.  Run as a script, this file checks
the agreement alone, without pytest, on whichever interpreter runs it:

    PYTHONPATH=src python3 tests/test_cli_args.py
"""

import io
import itertools
from contextlib import redirect_stderr, redirect_stdout

from threebraid import cli

# Every command and flag, words, and the ways an argv can leave the fast
# path's grammar: help, an abbreviation, an option with a value, an
# unknown option with and without a value, "-", "--", a negative number.
TOKENS = ("analyze", "batch", "conjugate", "x", "", "x y", "-x", "-x y", "-",
          "--", "-1", "-h", "--json", "--js", "--json=1", "--oracle",
          "--torus-bundle", "--torus")


def argvs(max_length=4):
    for length in range(max_length + 1):
        yield from itertools.product(TOKENS, repeat=length)


def argparse_namespace(argv):
    """vars() of argparse's namespace, or None where argparse exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(list(argv)))
        except SystemExit:
            return None


def check_agreement() -> tuple[int, int]:
    """(argvs tried, argvs the fast path took); raises AssertionError on the
    first argv where the fast path and argparse disagree."""
    tried = taken = 0
    for argv in argvs():
        tried += 1
        fast = cli._fast_args(list(argv))
        if fast is None:
            continue
        taken += 1
        assert vars(fast) == argparse_namespace(argv), argv
    return tried, taken


def test_the_fast_path_agrees_with_argparse_or_defers():
    # 1 + 18 + 18^2 + 18^3 + 18^4 argvs.  The fast path takes each command
    # with its positionals from the six tokens without a leading "-" and
    # its flags, each at most once, in any order.
    assert check_agreement() == (111_151, 444)


def test_the_fast_path_takes_the_usual_argvs():
    assert vars(cli._fast_args(["analyze", "--json", "--torus-bundle",
                                "h x"])) == {
        "command": "analyze", "word": "h x", "json": True, "oracle": False,
        "torus_bundle": True}
    assert vars(cli._fast_args(["conjugate", "x", "--json", "y"])) == {
        "command": "conjugate", "word1": "x", "word2": "y", "json": True}
    for argv in ([], ["-h"], ["analyze"], ["analyze", "x", "--js"],
                 ["analyze", "--json", "--json", "x"], ["batch", "--", "x"],
                 ["conjugate", "--oracle", "x", "y"], ["conjugate", "x"]):
        assert cli._fast_args(argv) is None, argv


def test_each_fast_namespace_starts_from_the_defaults():
    # A flag set in one namespace is not left set in the next.
    assert cli._fast_args(["analyze", "--json", "x"]).json is True
    assert vars(cli._fast_args(["analyze", "x"])) == {
        "command": "analyze", "word": "x", "json": False, "oracle": False,
        "torus_bundle": False}


def run(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``, also when it exits."""
    try:
        code = cli.main(argv)
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def flag_orders(command, names, flags):
    """Every argv of ``command`` with its positionals in order, and with
    every subset of its flags, in every order, at every place among them."""
    for count in range(len(flags) + 1):
        for chosen in itertools.permutations(flags, count):
            tokens = [*chosen, *names]
            for places in itertools.combinations(range(len(tokens)),
                                                 len(names)):
                argv = list(chosen)
                for place, name in zip(places, names):
                    argv.insert(place, name)
                yield [command, *argv]


def test_main_answers_every_flag_order_without_argparse(capsys, monkeypatch,
                                                        tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("h x y^-5\nx y z\n", encoding="utf-8")
    positionals = {"analyze": ("h x y^-5",), "batch": (str(path),),
                   "conjugate": ("x y", "y x")}
    argvs_ = [argv for command, (_, _, flags) in cli._COMMANDS.items()
              for argv in flag_orders(command, positionals[command], flags)]
    assert len(argvs_) == 49 + 49 + 4
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_fast_args", lambda argv: None)
        by_argparse = [run(capsys, argv) for argv in argvs_]

    def no_argparse():
        raise AssertionError("argparse was called")

    monkeypatch.setattr(cli, "_parser", no_argparse)
    for argv, expected in zip(argvs_, by_argparse):
        assert run(capsys, argv) == expected, argv


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    expected = run(capsys, ["analyze", "--json", "x y^-1"])
    monkeypatch.setattr("sys.argv", ["threebraid", "analyze", "--json",
                                     "x y^-1"])
    assert run(capsys, None) == expected
    # Deferred, so argparse reads sys.argv too.
    monkeypatch.setattr("sys.argv", ["threebraid", "analyze", "--js",
                                     "x y^-1"])
    assert run(capsys, None) == expected


def test_deferred_argvs_get_argparse_answers(capsys):
    code, out, err = run(capsys, ["-h"])
    assert code == 0 and out.startswith("usage: threebraid") and err == ""
    code, out, err = run(capsys, ["analyze"])
    assert code == 2 and out == ""
    assert err.startswith("usage: threebraid analyze")
    assert err.endswith("error: the following arguments are required: word\n")
    assert run(capsys, ["analyze", "--js", "h x"]) == \
        run(capsys, ["analyze", "--json", "h x"])
    # Each answer is argparse's own, byte for byte.
    for argv in (["-h"], ["analyze"], ["conjugate", "-h"],
                 ["batch", "--oracle", "--oracle", "a", "b"]):
        main_answer = run(capsys, argv)
        try:
            cli._parser().parse_args(argv)
        except SystemExit as exit_:
            code = exit_.code
        captured = capsys.readouterr()
        assert main_answer == (code, captured.out, captured.err), argv


if __name__ == "__main__":
    tried, taken = check_agreement()
    print(f"{tried} argvs, {taken} taken by the fast path, all agree")
