import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import threebraid
from threebraid import cli, floer, homology, invariants, murasugi
from threebraid import words as w_
from threebraid.cli import main
from threebraid.seifert import MAX_CROSSINGS
from threebraid.words import ParseError, parse

from reference import up_to


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_pretty(capsys):
    code, out, _ = run(capsys, "analyze", "h x y^-5")
    assert code == 0
    assert "family 1, d = 1, a = (5,)" in out
    assert "determinant:         9" in out
    assert "quasi-alternating:   True" in out
    assert "finite-order screen: Pass" in out


def test_analyze_json_fields(capsys):
    code, out, _ = run(capsys, "analyze", "x x y x x", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_form"] == {"family": 2, "d": 1, "m": -1}
    assert payload["l_space"] is True
    assert payload["correction_term"] == {"num": 3, "den": 4}


def test_analyze_empty_word(capsys):
    code, out, _ = run(capsys, "analyze", "", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_form"] == {"family": 2, "d": 0, "m": 0}
    assert payload["components"] == 3
    assert payload["determinant"] == 0
    assert payload["b1"] == 2
    assert "hf_plus_s0" not in payload
    assert "delta" not in payload


def test_analyze_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "x z")
    assert code == 2
    assert "token 2" in err


def test_analyze_parse_error_is_one_stderr_line(capsys):
    for flags in ((), ("--json", "--oracle", "--torus-bundle")):
        code, out, err = run(capsys, "analyze", *flags, "x z")
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err == "parse error: unknown generator 'z' (token 2)\n"


def test_analyze_inconsistency_in_classify_is_one_stderr_line(
        capsys, monkeypatch):
    def explode(*_args, **_kwargs):
        raise cli.InternalInconsistency("forced for the test")

    monkeypatch.setattr(murasugi, "classify", explode)
    for flags in ((), ("--json", "--oracle")):
        code, out, err = run(capsys, "analyze", *flags, "x y")
        assert (code, out) == (cli.EXIT_INCONSISTENT, "")
        assert err == "internal inconsistency: forced for the test\n"


def test_analyze_non_ascii_exponent_is_a_parse_error(capsys):
    for text in ("x^\u00b2", "x^\u0663"):
        code, out, err = run(capsys, "analyze", text, "--json")
        assert code == 2, text
        assert out == ""
        assert "bad exponent" in err


def test_analyze_oracle_agreement(capsys):
    code, out, _ = run(capsys, "analyze", "x y x y", "--json", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["determinant"] == 3
    assert payload["oracle"]["signature"] == -2
    assert payload["oracle"]["agrees"] is True


def test_analyze_oracle_split_closure_is_surfaced(capsys):
    code, out, _ = run(capsys, "analyze", "y^3", "--json", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert "error" in payload["oracle"]


def test_oracle_agrees_on_every_word_of_at_most_six_letters(short_words):
    for word in up_to(short_words, 6):
        w = w_.word(word.letters)
        oracle = cli._oracle(w, invariants.analyze_word(w, _record=True))
        assert oracle.get("agrees", True), str(w)


def test_correction_term_meets_the_signature_mod_8_on_short_words(
        short_words):
    # 4d + sigma = 0 (mod 8) wherever the determinant is nonzero, d from
    # the report and sigma from the oracle, and from the report itself
    # where it has one: Erle's, on a family-1 knot.
    from threebraid import seifert

    checked = knots = 0
    for word in up_to(short_words, 6):
        w = w_.word(word.letters)
        record = invariants.analyze_word(w, _record=True)
        if record.signature is not None:
            assert (record.correction_quarters + record.signature) \
                % 8 == 0, str(w)
            knots += 1
        if not record.determinant or {
                letter.generator
                for letter in w_.free_reduce(w)} != {"x", "y"}:
            continue
        sig = seifert.sym_signature(seifert.seifert_matrix(w))
        assert (record.correction_quarters + sig) % 8 == 0, str(w)
        checked += 1
    assert (checked, knots) == (3_976, 1_484)


def test_oracle_checks_the_correction_term_mod_8(capsys, monkeypatch):
    # x^2 y^-1 x^-2 y^-1 is a 3-component link that is not
    # quasi-alternating, so its report has no signature: only the oracle's
    # congruence sees a right-trefoil row whose bottom moved by 4 quarters.
    argv = ("analyze", "--json", "--oracle", "x^2 y^-1 x^-2 y^-1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["qa"] is False and "signature" not in payload
    assert payload["correction_term"] == {"num": 0, "den": 1}
    assert payload["oracle"]["signature"] == 0
    key = floer.RIGHT_TREFOIL_LIKE, True
    bottom, grading, offset = floer._SURGERY_ROWS[key]
    monkeypatch.setitem(floer._SURGERY_ROWS, key, (bottom + 4, grading, offset))
    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_INCONSISTENT
    payload = json.loads(out)
    assert payload["correction_term"] == {"num": 1, "den": 1}
    assert payload["oracle"]["agrees"] is False


def test_report_checks_the_correction_term_mod_8_on_knots(capsys,
                                                           monkeypatch):
    # h^-2 x y^-3 is a family-1 knot that is not quasi-alternating, so its
    # report carries Erle's signature: a figure-eight row whose bottom moved
    # by 4 quarters fails 4d + sigma = 0 (mod 8) without the oracle.
    code, out, _ = run(capsys, "analyze", "--json", "h^-2 x y^-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["qa"] is False
    assert payload["correction_term"] == {"num": -1, "den": 2}
    assert payload["signature"] == 10
    key = floer.FIGURE_EIGHT_LIKE, True
    bottom, grading, offset = floer._SURGERY_ROWS[key]
    monkeypatch.setitem(floer._SURGERY_ROWS, key, (bottom + 4, grading, offset))
    for flags in ((), ("--oracle",)):
        code, out, err = run(capsys, "analyze", "--json", *flags, "h^-2 x y^-3")
        assert (code, out) == (cli.EXIT_INCONSISTENT, "")
        assert err == ("internal inconsistency: "
                       "4d + sigma = 12 is not 0 mod 8 on a knot\n")


def test_oracle_checks_the_correction_term_on_quasi_alternating_closures(
        capsys, monkeypatch):
    # h^-1 y is the quasi-alternating link Family2(-1, 1): no report
    # signature, so only d = -sigma/4 can catch a wrong surgery row.
    argv = ("analyze", "--json", "--oracle", "h^-1 y")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["qa"] is True and "signature" not in payload
    assert payload["correction_term"] == {"num": -3, "den": 4}
    assert payload["oracle"]["signature"] == 3
    key = floer.RIGHT_TREFOIL_LIKE, True
    bottom, grading, offset = floer._SURGERY_ROWS[key]
    monkeypatch.setitem(floer._SURGERY_ROWS, key, (bottom + 2, grading, offset))
    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_INCONSISTENT
    assert json.loads(out)["oracle"]["agrees"] is False


def test_oracle_skips_the_correction_term_off_quasi_alternating_closures(
        capsys):
    # (x y)^7 closes to the torus knot T(3,7): d = 0 but sigma = -8.
    code, out, _ = run(capsys, "analyze", "--json", "--oracle", "x y " * 7)
    assert code == 0
    payload = json.loads(out)
    assert payload["qa"] is False
    assert payload["correction_term"] == {"num": 0, "den": 1}
    assert payload["oracle"] == {"determinant": 1, "signature": -8,
                                 "agrees": True}


def test_json_oracle_call_reaches_each_stage_once(capsys, monkeypatch):
    # Each stage is reached through its module attribute, once per word,
    # and the public report is never built on the --json path.
    stages = [(w_, "parse"), (homology, "image"), (murasugi, "_syllable_pass"),
              (murasugi, "classify"), (invariants, "analyze_word"),
              (cli, "_oracle"), (cli, "_line"), (invariants, "_report")]
    calls = {}

    def counted(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return wrapper

    for module, name in stages:
        key = f"{module.__name__.rpartition('.')[2]}.{name}"
        calls[key] = 0
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    code, out, _ = run(capsys, "analyze", "--json", "--oracle", "h^-1 y x y^-2")
    assert code == 0 and json.loads(out)["oracle"]["agrees"] is True
    assert calls == {**dict.fromkeys(calls, 1), "invariants._report": 0}, calls


def test_analyze_pretty_prints_the_oracle_error(capsys):
    code, out, _ = run(capsys, "analyze", "--oracle", "x")
    assert code == 0
    assert out.splitlines()[-1] == \
        "oracle:              column 2 unused: the closure splits"


def test_analyze_torus_bundle_block(capsys):
    code, out, _ = run(capsys, "analyze", "x y^-1 x y^-1", "--json",
                       "--torus-bundle")
    assert code == 0
    payload = json.loads(out)
    towers = payload["torus_bundle"]["s0"]["towers"]
    assert {"num": 1, "den": 2} in towers and {"num": -1, "den": 2} in towers


def test_analyze_torus_bundle_undefined_notice(capsys):
    code, out, _ = run(capsys, "analyze", "y^3", "--torus-bundle")
    assert code == 0
    assert "torus bundle:        undefined" in out


def test_json_output_round_trips(capsys):
    for argv in (("analyze", "h x y^-5", "--json", "--oracle"),
                 ("analyze", "", "--json"),
                 ("conjugate", "x", "y", "--json")):
        _, out, _ = run(capsys, *argv)
        line = out.strip()
        assert json.dumps(json.loads(line), separators=(",", ":")) == line


def test_string_escapes_are_json_dumps():
    # Lone surrogates included: argv carries them through surrogateescape.
    for code_point in range(sys.maxunicode + 1):
        text = chr(code_point)
        assert cli._json_string(text) == json.dumps(text), hex(code_point)
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert cli._json_string(text) == json.dumps(text)


def test_conjugate_verdicts(capsys):
    code, out, _ = run(capsys, "conjugate", "x", "y")
    assert code == 0
    assert "conjugate" in out
    code, out, _ = run(capsys, "conjugate", "x", "x^-1")
    assert code == 1
    assert "not conjugate" in out
    code, out, _ = run(capsys, "conjugate", "x y^-1 x y^-2", "x y^-2 x y^-1")
    assert code == 0


def test_conjugate_parse_error(capsys):
    code, _, err = run(capsys, "conjugate", "x", "q")
    assert code == 2
    assert "word 2" in err
    # Both words unparseable: only the first is named.
    code, out, err = run(capsys, "conjugate", "q", "z")
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == "parse error in word 1: unknown generator 'q' (token 1)\n"


def test_conjugate_reaches_each_stage_once_per_word(capsys, monkeypatch):
    stages = [(w_, "parse"), (homology, "image"), (murasugi, "classify")]
    calls = dict.fromkeys((name for _, name in stages), 0)

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for module, name in stages:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, out, _ = run(capsys, "conjugate", "h x y^-5", "x y^-5 h")
    assert (code, out.splitlines()[-1]) == (cli.EXIT_OK, "conjugate")
    assert calls == {"parse": 2, "image": 2, "classify": 2}


def test_conjugate_inconsistency_in_word_1_beats_a_parse_error_in_word_2(
        capsys, monkeypatch):
    classify = murasugi.classify

    def explode_on_x_y(word, *args, **kwargs):
        if str(word) == "x y":
            raise cli.InternalInconsistency("forced for the test")
        return classify(word, *args, **kwargs)

    monkeypatch.setattr(murasugi, "classify", explode_on_x_y)
    code, out, err = run(capsys, "conjugate", "x y", "x z")
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert err == "internal inconsistency: forced for the test\n"


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# The family-1 words at the end hold entries 0, 255, 256 and 100,000, the
# edges of the writer's decimal table and one far past it.
CONJUGATE_WORDS = ("h x y^-5", "x y^-5 h", "h^-2 x y^-1 x y^-3",
                   "h^999999999999 x y^-3", "x x y x x", "y^-1", "h^-1 y^3",
                   "", "x^-1 y^-1", "x y", "h^5 x y", "x y^-255",
                   "x y^-256 x", "x y^-100000 x y^-3 x")


def test_conjugate_json_is_the_encoders_record(capsys):
    forms = [murasugi.classify(parse(text)) for text in CONJUGATE_WORDS]
    assert {type(f).__name__ for f in forms} == \
        {"Family1", "Family2", "Family3"}
    for (text1, f1), (text2, f2) in itertools.product(
            zip(CONJUGATE_WORDS, forms), repeat=2):
        code, out, _ = run(capsys, "conjugate", "--json", text1, text2)
        assert code == (cli.EXIT_OK if f1 == f2 else cli.EXIT_NOT_CONJUGATE)
        assert out == dumps({
            "conjugate": f1 == f2,
            "normal_form_1": invariants.normal_form_json(f1),
            "normal_form_2": invariants.normal_form_json(f2)}) + "\n"
    _, out, _ = run(capsys, "conjugate", "--json", "y^-1", "x^-1 y^-1")
    assert out == ('{"conjugate":false,'
                   '"normal_form_1":{"family":2,"d":0,"m":-1},'
                   '"normal_form_2":{"family":3,"d":0,"m":-1}}\n')


def test_batch_counts_and_summary(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("# comment\n\nx y x y\nh x y^-5\nx x y x x\n")
    code, out, _ = run(capsys, "batch", str(path))
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 4  # three words + summary
    assert lines[-1] == "3 ok, 0 failed"


def test_batch_with_bad_token(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("x y\nx q\nh\n")
    code, out, _ = run(capsys, "batch", str(path), "--json")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 4
    records = [json.loads(line) for line in lines]
    errors = [r for r in records if "error" in r]
    assert len(errors) == 1
    assert errors[0]["error"]["type"] == "UnknownToken"
    assert records[-1] == {"summary": {"ok": 2, "failed": 1}}


def test_batch_skips_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("x y x y\nh x y^-5\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert out.strip().splitlines()[-1] == "2 ok, 0 failed"


# Two twist runs of 6 * (10^18 - 1) letters each: more letters than
# sys.maxsize, where len() of the word overflows.
HUGE_TWISTS = "h^999999999999999999 h^999999999999999999"


def test_analyze_oracle_past_sys_maxsize_letters_is_an_error_record(capsys):
    assert parse(HUGE_TWISTS)._length > sys.maxsize
    code, out, _ = run(capsys, "analyze", "--json", "--oracle", HUGE_TWISTS)
    assert code == 0
    assert "more than the oracle's cap" in json.loads(out)["oracle"]["error"]


def test_batch_oracle_goes_on_past_sys_maxsize_letters(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text(f"{HUGE_TWISTS}\nx y x y\n")
    code, out, _ = run(capsys, "batch", "--json", "--oracle", str(path))
    assert code == 0
    first, second, summary = map(json.loads, out.strip().splitlines())
    assert "error" in first["oracle"]
    assert second["oracle"]["agrees"] is True
    assert summary == {"summary": {"ok": 2, "failed": 0}}


def test_text_batch_names_each_oracle_disagreement(tmp_path, capsys,
                                                   monkeypatch):
    # With the oracle's determinant 3 read as 4, the trefoil's line says
    # that its oracle disagrees, as --json's "agrees":false does; the
    # figure-eight's line does not, and the batch exits 3.
    path = tmp_path / "words.txt"
    path.write_text("x y x y\nx y^-1 x y^-1\n")
    code, clean, _ = run(capsys, "batch", "--oracle", str(path))
    assert code == 0 and "DISAGREES" not in clean
    seifert = cli._seifert()
    determinant = seifert.sym_determinant
    monkeypatch.setattr(seifert, "sym_determinant",
                        lambda v: determinant(v) + (determinant(v) == 3))
    code, out, _ = run(capsys, "batch", "--oracle", str(path))
    trefoil, figure_eight, summary = out.splitlines()
    assert code == cli.EXIT_INCONSISTENT
    assert trefoil.endswith("; oracle 4 DISAGREES")
    assert figure_eight == clean.splitlines()[1]
    assert figure_eight.endswith("; oracle 5")
    assert summary == "2 ok, 0 failed"


def test_batch_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert out.strip() == "0 ok, 0 failed"


def test_batch_missing_file(capsys):
    code, _, err = run(capsys, "batch", "/nonexistent/words.txt")
    assert code == 4
    assert "cannot read" in err


def test_batch_ndjson_round_trips(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("x y x y\nh x y^-5\n")
    _, out, _ = run(capsys, "batch", str(path), "--json", "--oracle",
                    "--torus-bundle")
    for line in out.strip().splitlines():
        assert json.dumps(json.loads(line), separators=(",", ":")) == line


def test_batch_oracle_fuzz_never_disagrees(tmp_path, capsys, rng):
    from conftest import random_nonsplit_word

    words = [str(random_nonsplit_word(rng, 12)) for _ in range(40)]
    path = tmp_path / "fuzz.txt"
    path.write_text("\n".join(words) + "\n")
    code, out, _ = run(capsys, "batch", str(path), "--json", "--oracle")
    assert code == 0
    for line in out.strip().splitlines():
        record = json.loads(line)
        if "oracle" in record and "error" not in record["oracle"]:
            assert record["oracle"]["agrees"] is True


def test_analyze_prints_a_determinant_of_more_than_4300_digits(
        capsys, default_int_digit_limit):
    text = "x y^-1 " * 12000
    code, out, _ = run(capsys, "analyze", "--json", text)
    assert code == 0
    sys.set_int_max_str_digits(0)  # to read the printed value back
    determinant = homology.determinant(parse(text))
    assert len(str(determinant)) > 4300
    assert json.loads(out)["determinant"] == determinant


def test_batch_reports_a_determinant_of_more_than_4300_digits(
        tmp_path, capsys, default_int_digit_limit):
    path = tmp_path / "words.txt"
    path.write_text("x y^-1 " * 30000 + "\n")
    code, out, _ = run(capsys, "batch", "--json", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[-1]) == {"summary": {"ok": 1, "failed": 0}}


def test_main_restores_the_int_digit_limit_on_every_exit(
        tmp_path, capsys, monkeypatch, default_int_digit_limit):
    from threebraid import invariants
    from threebraid.murasugi import InternalInconsistency

    def explode(*_args, **_kwargs):
        raise InternalInconsistency("forced for the test")

    path = tmp_path / "words.txt"
    path.write_bytes(b"\xff\xfe")
    limit = 10_000  # not the default, so the caller's own is restored
    sys.set_int_max_str_digits(limit)
    for argv, code in ((["analyze", "x"], cli.EXIT_OK),
                       (["conjugate", "x", "x^-1"], cli.EXIT_NOT_CONJUGATE),
                       (["analyze", "z"], cli.EXIT_PARSE),
                       (["batch", str(path)], cli.EXIT_IO)):
        assert run(capsys, *argv)[0] == code
        assert sys.get_int_max_str_digits() == limit
    with pytest.raises(SystemExit):
        main(["analyze", "--no-such-flag", "x"])
    assert sys.get_int_max_str_digits() == limit
    monkeypatch.setattr(invariants, "analyze_word", explode)
    assert run(capsys, "analyze", "x")[0] == cli.EXIT_INCONSISTENT
    assert sys.get_int_max_str_digits() == limit


def test_main_leaves_the_callers_int_digit_limit_alone(
        tmp_path, capsys, monkeypatch, default_int_digit_limit):
    seen = []
    real = invariants.analyze_word

    def spy(*args, **kwargs):
        seen.append(sys.get_int_max_str_digits())
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "analyze_word", spy)
    path = tmp_path / "words.txt"
    path.write_text("x y\n")
    limit = 10_000
    sys.set_int_max_str_digits(limit)
    assert run(capsys, "analyze", "x y")[0] == cli.EXIT_OK
    assert run(capsys, "batch", str(path))[0] == cli.EXIT_OK
    assert seen == [limit, limit]


def long_integers(text: str) -> set:
    """Every run of more than 640 digits in text."""
    return set(re.findall(r"[0-9]{641,}", text))


def test_integers_past_the_lowest_digit_limit_print_exactly(
        tmp_path, capsys, default_int_digit_limit):
    long_text = "x y^-1 " * 4000
    oracle_text = "x y^-1 " * 1600  # 3,200 crossings
    report = invariants.analyze_word(parse(long_text), include_torus_bundle=True)
    det, torsion = report.determinant, report.h1.torsion
    oracle_det = homology.determinant(parse(oracle_text))
    assert [len(str(n)) for n in (det, *torsion, oracle_det)] == \
        [1672, 836, 837, 669]
    long_path = tmp_path / "long.txt"
    long_path.write_text(long_text + "\n")
    oracle_path = tmp_path / "oracle.txt"
    oracle_path.write_text(oracle_text + "\n")
    commands = (["analyze", "--torus-bundle", long_text],
                ["analyze", "--json", "--torus-bundle", long_text],
                ["batch", str(long_path)],
                ["batch", "--json", str(long_path)],
                ["analyze", "--oracle", oracle_text],
                ["batch", "--json", "--oracle", str(oracle_path)])
    sys.set_int_max_str_digits(640)  # the lowest the interpreter allows
    try:
        results = [run(capsys, *argv) for argv in commands]
    finally:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    assert [code for code, _, _ in results] == [cli.EXIT_OK] * len(commands)
    pretty, json_line, batch, batch_json, oracle, oracle_json = \
        [out for _, out, _ in results]
    assert long_integers(pretty) == {str(det), str(det - 1), *map(str, torsion)}
    assert long_integers(batch) == {str(det)}
    assert long_integers(oracle) == {str(oracle_det)}
    assert "agrees" in oracle
    for line in (json_line, batch_json.splitlines()[0]):
        record = json.loads(line)
        assert record["determinant"] == record["spin_c_count"] == det
        assert record["h1"]["torsion"] == list(torsion)
    assert json.loads(json_line)["torus_bundle"]["non_s0_count"] == det - 1
    assert json.loads(oracle_json.splitlines()[0])["oracle"] == \
        {"determinant": oracle_det, "signature": 0, "agrees": True}


def test_a_character_stdout_cannot_encode_is_an_io_error(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "words.txt"
    path.write_text("x\n\u00e9\n", encoding="utf-8")
    for argv in (["analyze", "x\u2003y"], ["batch", str(path)]):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: 'ascii' codec")
        assert err.count("\n") == 1
    stdout.flush()
    assert stdout.buffer.getvalue().startswith(b"'x': family")


def test_internal_inconsistency_maps_to_exit_three(capsys, monkeypatch):
    from threebraid import invariants
    from threebraid.murasugi import InternalInconsistency

    def explode(*_args, **_kwargs):
        raise InternalInconsistency("forced for the test")

    monkeypatch.setattr(invariants, "analyze_word", explode)
    code, _, err = run(capsys, "analyze", "x y")
    assert code == 3
    assert "internal inconsistency" in err


def test_batch_non_utf8_file_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "batch", str(path))
    assert code == 4
    assert out == ""
    assert "cannot read" in err


def test_batch_internal_inconsistency_is_a_line_error(tmp_path, capsys,
                                                      monkeypatch):
    from threebraid import invariants
    from threebraid.murasugi import InternalInconsistency

    analyze_word = invariants.analyze_word

    def explode_on_second(word, **kwargs):
        if str(word) == "y x":
            raise InternalInconsistency("forced for the test")
        return analyze_word(word, **kwargs)

    monkeypatch.setattr(invariants, "analyze_word", explode_on_second)
    path = tmp_path / "words.txt"
    path.write_text("x y\ny x\nx x y\n")
    code, out, _ = run(capsys, "batch", str(path), "--json")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 3
    assert len(records) == 4
    assert records[1] == {"word": "y x", "error": {
        "type": "InternalInconsistency", "message": "forced for the test"}}
    assert records[-1] == {"summary": {"ok": 2, "failed": 1}}

    code, out, _ = run(capsys, "batch", str(path))
    lines = out.strip().splitlines()
    assert code == 3
    assert lines[1] == "'y x': error: forced for the test"
    assert lines[-1] == "2 ok, 1 failed"


def test_an_inconsistency_in_the_oracle_stage_is_the_words_error(
        tmp_path, capsys, monkeypatch):
    from threebraid import seifert

    _, second, _ = run(capsys, "analyze", "--json", "--oracle", "x y^-1")
    seifert_matrix = seifert.seifert_matrix

    def explode_on_four_letters(word):
        if len(word) == 4:
            raise cli.InternalInconsistency("forced")
        return seifert_matrix(word)

    monkeypatch.setattr(seifert, "seifert_matrix", explode_on_four_letters)
    path = tmp_path / "words.txt"
    path.write_text("x y x y\nx y^-1\n")
    code, out, err = run(capsys, "batch", "--json", "--oracle", str(path))
    assert (code, err) == (cli.EXIT_INCONSISTENT, "")
    assert out.splitlines(keepends=True) == [
        dumps({"word": "x y x y", "error": {
            "type": "InternalInconsistency", "message": "forced"}}) + "\n",
        second,
        dumps({"summary": {"ok": 1, "failed": 1}}) + "\n"]
    assert run(capsys, "analyze", "--json", "--oracle", "x y x y") == \
        (cli.EXIT_INCONSISTENT, "", "internal inconsistency: forced\n")


def test_a_fold_of_determinant_other_than_1_is_an_internal_inconsistency(
        tmp_path, capsys, monkeypatch, default_int_digit_limit):
    # The window x y x^-1 y^-1 folds to a matrix of determinant 2, so the
    # image of any word holding it fails its check.
    window = parse("x y x^-1 y^-1")._windows[0]
    corrupted = list(homology._CHUNK_ENTRIES)
    corrupted[window] = (2, 0, 0, 1)
    monkeypatch.setattr(homology, "_CHUNK_ENTRIES", corrupted)
    # The long word's entries reach 2^2200, past 640 digits, so a message
    # that printed them would itself raise under the lowest digit limit.
    long_text = "x y x^-1 y^-1 " * 2200 + "x"
    for text, limit in (("x y x^-1 y^-1 x", None), (long_text, 640)):
        path = tmp_path / "words.txt"
        path.write_text(f"x y\n{text}\n")
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        try:
            analyze = run(capsys, "analyze", "--json", text)
            pretty = run(capsys, "analyze", text)
            batch = run(capsys, "batch", "--json", str(path))
        finally:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        for code, out, err in (analyze, pretty):
            assert (code, out) == (cli.EXIT_INCONSISTENT, "")
            assert err.startswith("internal inconsistency: "), err
        code, out, _ = batch
        records = [json.loads(line) for line in out.splitlines()]
        assert code == cli.EXIT_INCONSISTENT
        assert records[1] == {"word": text, "error": {
            "type": "InternalInconsistency",
            "message": "the image's determinant is not 1"}}
        assert records[2] == {"summary": {"ok": 1, "failed": 1}}


def error_record(text: str, error: Exception) -> str:
    """The batch error record as the generic encoder wrote it."""
    record = {"type": type(error).__name__}
    if isinstance(error, ParseError):
        record["position"] = error.position
    record["message"] = str(error)
    return dumps({"word": text, "error": record})


# Every ParseError subclass, with quotes, backslashes, control characters,
# U+2028, a non-BMP character and non-ASCII digits in the word and message.
BAD_WORDS = ('x "q\\ y', "x\x01 y", "\x7f", "x\u2028q", "\U0001F600 x",
             "x^\u00b2", "x^\u0663", "x^-\u0663", "h^" + "9" * 5000,
             "x^999999 y^2", "x^1.5 \"")


def test_batch_error_records_are_the_encoders_records(tmp_path, capsys,
                                                       monkeypatch):
    errors = []
    for text in BAD_WORDS:
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        errors.append(excinfo.value)
    assert {type(error).__name__ for error in errors} == \
        {"UnknownToken", "MalformedExponent", "WordTooLong"}
    inconsistency = cli.InternalInconsistency(
        'forced "\\ \x1f \u2028 \U0001F600 for the test')
    analyze_word = invariants.analyze_word

    def explode_on_y_x(word, **kwargs):
        if str(word) == "y x":
            raise inconsistency
        return analyze_word(word, **kwargs)

    monkeypatch.setattr(invariants, "analyze_word", explode_on_y_x)
    words = ["x y", *BAD_WORDS, "y\u2028x"]
    path = tmp_path / "words.txt"
    path.write_text("\n".join(words) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "batch", "--json", str(path))
    assert code == cli.EXIT_INCONSISTENT
    assert out.split("\n")[1:] == [
        *map(error_record, BAD_WORDS, errors),
        error_record("y\u2028x", inconsistency),
        dumps({"summary": {"ok": 1, "failed": len(words) - 1}}), ""]


def test_pretty_canonical_word_keeps_the_twist_as_one_token(capsys):
    code, out, _ = run(capsys, "analyze", "h^999999999999 x y^-3 x y^-1")
    assert code == 0
    assert "canonical word:      h^999999999999 x y^-1 x y^-3\n" in out
    for text, line in (("", "(empty)"), ("h", "h"), ("h^-2", "h^-2"),
                       ("h x^-2 y^-1", "h x^-2 y^-1"), ("y x^5", "h x y^-1")):
        _, out, _ = run(capsys, "analyze", text)
        assert f"canonical word:      {line}\n" in out, text


def test_oversized_input_is_a_parse_error(tmp_path, capsys):
    long_exponent = "h^" + "9" * 5000
    too_many_letters = "x^999999 y^2"
    for text, error in ((long_exponent, "more than 18 digits"),
                        (too_many_letters, "more than 1000000 x/y letters")):
        code, out, err = run(capsys, "analyze", text, "--json")
        assert code == 2, text
        assert out == ""
        assert error in err
    path = tmp_path / "words.txt"
    path.write_text(f"x y\n{long_exponent}\n{too_many_letters}\n")
    code, out, _ = run(capsys, "batch", str(path), "--json")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0
    assert [r["error"]["type"] for r in records[1:3]] == \
        ["MalformedExponent", "WordTooLong"]
    assert records[2]["error"]["position"] == 2
    assert records[-1] == {"summary": {"ok": 1, "failed": 2}}


def test_analyze_and_batch_print_the_same_line(capsys, tmp_path):
    # Hyperbolic, split, twisted, past the oracle's crossing cap, and two
    # words with a character that parse reads as a space and splitlines as
    # a line break.
    words = ["x y^-1 x y^-3", "y^3", "h^5 x y^-2", f"x^{MAX_CROSSINGS + 1} y",
             "x\fy", "x\u2028y"]
    flags = ["--json", "--torus-bundle", "--oracle"]
    path = tmp_path / "words.txt"
    path.write_text("\n".join(words) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "batch", *flags, str(path))
    assert code == 0
    batch_lines = out.splitlines()[:-1]
    assert len(batch_lines) == len(words)
    for text, line in zip(words, batch_lines):
        code, out, _ = run(capsys, "analyze", *flags, text)
        assert code == 0
        assert out == line + "\n", text


def test_batch_over_several_chunks_prints_each_words_own_line(
        tmp_path, capsys, monkeypatch, rng):
    # More words than one chunk holds, then a word longer than a chunk's
    # characters, which is a chunk of its own, then a few more words.
    tokens = ("x", "y", "x^-1", "y^-1", "x^3", "y^-2", "h", "h^-2")
    short = [" ".join(rng.choice(tokens) for _ in range(rng.randint(1, 12)))
             for _ in range(cli._CHUNK_WORDS + 40)]
    long_word = " ".join(["x y^-1 x^-1 y"] * (cli._CHUNK_CHARS // 14 + 1))
    words = [*short, long_word, "y x^4", "x z", "h^2 y"]
    words[7] = "x^1.5 y"  # a parse error in the first chunk
    words[cli._CHUNK_WORDS + 9] = "x ! y"  # and one in the second
    inconsistent = words[cli._CHUNK_WORDS + 20] = "s1 s2^-1 s1^3"
    assert len(cli._chunks(words)) == 4
    inconsistency = cli.InternalInconsistency("forced for the test")
    analyze_word = invariants.analyze_word

    def explode_on_one(word, **kwargs):
        if kwargs["raw_text"] == inconsistent:
            raise inconsistency
        return analyze_word(word, **kwargs)

    monkeypatch.setattr(invariants, "analyze_word", explode_on_one)
    lines = [*words[:500], "", "# a comment", *words[500:], "  "]
    path = tmp_path / "words.txt"
    path.write_text("\n".join(lines) + "\n")

    def error(text):
        try:
            parse(text)
        except ParseError as parse_error:
            return parse_error
        return inconsistency

    flags = ["--json", "--torus-bundle", "--oracle"]
    expected = []
    for text in words:
        code, out, _ = run(capsys, "analyze", *flags, text)
        expected.append(out if code == cli.EXIT_OK
                        else error_record(text, error(text)) + "\n")
    summary = {"ok": len(words) - 4, "failed": 4}
    code, out, _ = run(capsys, "batch", *flags, str(path))
    assert code == cli.EXIT_INCONSISTENT
    assert out == "".join(expected) + dumps({"summary": summary}) + "\n"

    # Each word's text line from its own one-word chunk, as analyze runs it.
    args = SimpleNamespace(oracle=False, torus_bundle=False)
    expected = []
    for text in words:
        _, records, oracles, errors = cli._staged_reports([text], args)
        expected.append(f"{text!r}: error: {errors[0]}" if errors[0]
                        else cli._batch_line(records[0], oracles.get(0)))
    code, out, _ = run(capsys, "batch", str(path))
    assert code == cli.EXIT_INCONSISTENT
    assert out == "\n".join(expected) + f"\n{len(words) - 4} ok, 4 failed\n"


def test_batch_runs_each_stage_over_the_chunk_before_the_next(
        tmp_path, capsys, monkeypatch):
    # The parse error drops out after the first stage; no stage runs twice
    # on a word, so the values stage folds and classifies nothing again.
    stages = [(w_, "parse"), (homology, "image"), (murasugi, "classify"),
              (invariants, "analyze_word"), (cli, "_oracle")]
    calls = []

    def logged(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    for module, name in stages:
        monkeypatch.setattr(module, name, logged(name, getattr(module, name)))
    path = tmp_path / "words.txt"
    path.write_text("h x y^-5\nx y x\nx z\nh^2 x y^-3\n")
    code, out, _ = run(capsys, "batch", "--json", "--oracle", str(path))
    assert code == cli.EXIT_OK
    assert out.endswith('{"summary":{"ok":3,"failed":1}}\n')
    assert calls == ["parse"] * 4 + ["image"] * 3 + ["classify"] * 3 + \
        ["analyze_word"] * 3 + ["_oracle"] * 3


def test_usage_error_leaves_the_shared_parser_intact(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    argv = ("analyze", "h x y^-5", "--json", "--torus-bundle")
    after_error = run(capsys, *argv)
    cli._parser.cache_clear()
    fresh = run(capsys, *argv)
    assert after_error == fresh
    assert after_error[0] == 0 and "torus_bundle" in after_error[1]


def test_usage_error_leaves_the_shared_parser_intact_for_deferred_argvs(
        capsys):
    # "--js" is an abbreviation, which only argparse reads.
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    argv = ("analyze", "h x y^-5", "--js", "--torus-bundle")
    after_error = run(capsys, *argv)
    cli._parser.cache_clear()
    fresh = run(capsys, *argv)
    assert after_error == fresh
    assert after_error[0] == 0 and "torus_bundle" in after_error[1]


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_pipe_is_an_io_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["analyze", "x y", "--json"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert "Broken pipe" in err
    assert "Traceback" not in err


def cli_command(*argv):
    """The command line of a fresh interpreter running ``main``."""
    src = str(Path(threebraid.__file__).resolve().parent.parent)
    script = (f"import sys; sys.path.insert(0, {src!r}); "
              "from threebraid.cli import main; sys.exit(main())")
    return [sys.executable, "-c", script, *argv]


def closed_pipe():
    """A pipe whose reader is gone before the first write."""
    read, write = os.pipe()
    os.close(read)
    return open(write, "w")


def full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return open("/dev/full", "w")


@pytest.mark.parametrize("sink, message",
                         [(closed_pipe, "Broken pipe"),
                          (full_device, "No space left")],
                         ids=["closed_pipe", "full_device"])
def test_output_error_in_a_fresh_interpreter_is_an_io_error(sink, message):
    # With stdout block-buffered, as it is outside a test run, output left
    # in the buffer would fail again when the interpreter exits.
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    with sink() as stdout:
        result = subprocess.run(cli_command("analyze", "x y", "--json"),
                                stdout=stdout, stderr=subprocess.PIPE,
                                text=True, env=env, timeout=60)
    assert result.returncode == cli.EXIT_IO, result.stderr
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr
