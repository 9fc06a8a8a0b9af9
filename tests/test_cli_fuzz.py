"""Any input string ends in an exit code in 0-4, never in a traceback.

Strings are built, from a seeded generator, out of fragments of the word
grammar and of the ways it is broken: unknown generators, bare or doubled
carets, signs, ASCII and other Unicode digits, exponents of thousands of
digits, exponents past the letter cap, stray whitespace and a leading '-'
that argparse reads as an option.
"""

import random

from threebraid.cli import EXIT_NOT_CONJUGATE, main

BASES = ("x", "y", "h", "s1", "s2", "z", "", "^")
EXPONENTS = ("", "^", "^^", "^-", "^--2", "^3", "^-2", "^0", "^-0", "^007",
             "^²", "^٣", "^-٣", "^1.5", "^" + "9" * 5000,
             "^-" + "9" * 5000, "^999999999", "^99999999999999999",
             "^-99999999999999999", "^" + "1" * 19, "^2^3")
SPACES = (" ", "  ", "\t", " ", "　", "\n")

# Inputs that once escaped as a traceback or exhausted memory, always run.
FIXED = ("", "h^" + "9" * 5000, "x^999999999", "h^99999999999999999",
         "-x", "x^-", " \t ", "h^100000000 x", "x^20000 y", "x y^-1 " * 12000)


def fuzz_strings(rng, count):
    strings = list(FIXED)
    for _ in range(count):
        tokens = [rng.choice(BASES) + rng.choice(EXPONENTS)
                  for _ in range(rng.randint(0, 4))]
        text = "".join(token + rng.choice(SPACES) for token in tokens)
        if rng.random() < 0.2:
            text = rng.choice(SPACES) + text
        if rng.random() < 0.1:
            text = "-" + text
        strings.append(text)
    return strings


def exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit argparse raised;
    any other exception escapes and fails the test."""
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


def test_every_string_ends_in_a_documented_exit_code(tmp_path, capsys):
    strings = fuzz_strings(random.Random(0xF022), 300)
    for text in strings:
        for argv in (["analyze", text],
                     ["analyze", "--json", "--torus-bundle", text],
                     ["analyze", "--json", "--oracle", text]):
            code = exit_code(argv)
            assert code in range(5) and code != EXIT_NOT_CONJUGATE, (argv, code)
        code = exit_code(["conjugate", text, "x"])
        assert code in range(5), (text, code)
    capsys.readouterr()

    path = tmp_path / "fuzz.txt"
    path.write_text("\n".join(strings) + "\n", encoding="utf-8")
    for flags in ([], ["--json", "--torus-bundle"], ["--oracle"]):
        code = exit_code(["batch", *flags, str(path)])
        assert code in range(5) and code != EXIT_NOT_CONJUGATE, (flags, code)
