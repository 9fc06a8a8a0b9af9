"""Command-line front end.

Commands:
    analyze <word>          full invariant report for one word
    batch <file>            one report per line of a word list
    conjugate <w1> <w2>     decide conjugacy of two words

Flags: --json (machine output), --oracle (Goeritz-form cross-check),
--torus-bundle (add the zero-surgery block).

Exit codes: 0 ok, 1 not conjugate, 2 parse error, 3 internal inconsistency
(an oracle disagreement, or a run-time check that failed), 4 I/O error.

Every command runs one staged pipeline, ``_staged_reports``: each stage
runs over a chunk of words before the next, so its code and tables are
still in the CPU caches when the next word reaches it.  ``analyze`` is a
chunk of one word, ``conjugate`` stops after ``classify`` on its two words,
and ``batch`` cuts its file into chunks: on the benchmark's 100-word files
of 1-40 random letters, ``batch --json --torus-bundle`` went from 38 to 31
µs a word (``bench/run.py --workload short_batch``, medians of 10 runs,
Python 3.11.7).  A word whose stage raises skips the later stages.

An argv that is a command followed by its positionals and its own flags, in
any order and each flag at most once, is read without argparse.  Every other
argv, such as help, an abbreviated or repeated flag, ``--``, or a word that
starts with "-", goes to argparse, imported then, which writes the help
or the usage message and exits with its own code.  The Seifert oracle is
imported only by ``--oracle``.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

try:  # the C escaper alone, without the json package around it
    from _json import encode_basestring_ascii as _json_string
except ImportError:
    from json.encoder import encode_basestring_ascii as _json_string

from . import homology, invariants, murasugi
from . import words as w_
from .floer import _NON_S0_RELATIVE
from .homology import _int_text
from .murasugi import Family1, Family2, InternalInconsistency
from .words import ParseError

EXIT_OK = 0
EXIT_NOT_CONJUGATE = 1
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3
EXIT_IO = 4


@functools.cache
def _seifert():
    """The oracle's module, imported by the first ``--oracle`` call and
    shared by every later one in the process."""
    from . import seifert
    return seifert


def _oracle(word, record) -> dict:
    """Oracle determinant/signature plus an agreement verdict against the
    values record of the same word.  Split closures and diagrams past the
    crossing cap get an error record, which has no verdict.

    Beside the determinant and the record's signature, where it has one,
    the verdict checks the correction term d, held as q = 4d quarters,
    which the record has exactly when the determinant is nonzero:
    d = -sigma/4 on quasi-alternating closures (Lisca-Owens, Proc. AMS 143,
    2015), and q + sigma = 0 (mod 8) on all of them.  Mod 4, the grading
    shift (c_1^2 - 2 chi - 3 sigma)/4 of Ozsvath-Szabo ("Absolutely graded
    Floer homologies...", Adv. Math. 173, 2003) gives it: the branched
    double cover of B^4 along a pushed-in Seifert surface is spin, as its
    form V + V^T is even, so the spin-c structure of d extends with
    c_1 = 0, and with b_2 = sigma (mod 2) the shift from S^3 is -sigma/4
    (mod 1).  Mod 8 it is an identity of the closed forms: with b the
    bottom of the surgery row, 0 or +-8, and e the twist power of the
    normal form, q + sigma = b - 4e for even e and b + 4 - 4e for odd e,
    on every non-split word of at most 7 letters with a nonzero
    determinant.  So it ties the surgery rows and the assembly's shift to
    the diagram off the quasi-alternating closures too."""
    seifert = _seifert()
    try:
        matrix = seifert.seifert_matrix(word)
    except (seifert.SplitClosure, seifert.DiagramTooLarge) as error:
        return {"error": str(error)}
    det = seifert.sym_determinant(matrix)
    sig = seifert.sym_signature(matrix)
    quarters = record.correction_quarters
    agrees = det == record.determinant and \
        (record.signature is None or record.signature == sig) and \
        (quarters is None or (quarters + sig) % 8 == 0 and
         (not record.qa or -quarters == sig))
    return {"determinant": det, "signature": sig, "agrees": agrees}


_JSON_BOOL = ("false", "true")


def _quarter_text(q: int) -> str:
    """The fields of q/4 in lowest terms."""
    if not q & 3:
        return f'"num":{q >> 2},"den":1'
    if not q & 1:
        return f'"num":{q >> 1},"den":2'
    return f'"num":{q},"den":4'


def _free_text(free) -> str:
    """A free summand of a quarter module: its rank and its grading."""
    rank, g = free
    return f'{{"rank":{rank},{_quarter_text(g)}}}'


def _module_text(module) -> str:
    """A quarter module, each grading written by ``_quarter_text``."""
    towers, frees, absolute = module
    towers = "{" + "},{".join(map(_quarter_text, towers)) + "}" if towers else ""
    frees = ",".join(map(_free_text, frees))
    return (f'{{"towers":[{towers}],"frees":[{frees}],'
            f'"absolute":{_JSON_BOOL[absolute]}}}')


# The relative module that every torus bundle shares, written once.
_NON_S0_RELATIVE_TEXT = _module_text(_NON_S0_RELATIVE)


class _Decimals(dict):
    """``str(i)`` of an integer i, held for 0-255 and written, not stored,
    for any other, so that nothing grows between calls."""

    def __missing__(self, entry) -> str:
        return str(entry)


# The decimal text of a family-1 entry, which counts the y^-1 letters of
# its block and is mostly small.
_DECIMAL = _Decimals((i, str(i)) for i in range(256))


def _form_text(f) -> str:
    if isinstance(f, Family1):
        entries = ",".join(map(_DECIMAL.__getitem__, f.a))
        return f'{{"family":1,"d":{f.d},"a":[{entries}]}}'
    family = 2 if isinstance(f, Family2) else 3
    return f'{{"family":{family},"d":{f.d},"m":{f.m}}}'


def _line(record, oracle: dict | None) -> str:
    """The ``--json`` line of a values record, written straight from its
    fields: ``json.dumps(report_json(invariants._report(record)),
    separators=(",", ":"))`` with the oracle block, when there is one, as
    its last key, byte for byte.  A field added to ``report_json`` is added
    here too.  The determinant is rendered once, also for ``spin_c_count``,
    and every integer that grows with it goes through ``_int_text``.  The
    bundle's relative module, which is ``floer._NON_S0_RELATIVE`` itself on
    every bundle that ``floer`` builds, is written from its text held at
    import."""
    (word, form, components, determinant, h1, b1, l_space, tight,
     tight_inverse, tag, hf, spin_c_count, correction, delta, signature, qa,
     screen, stein, bundle) = record
    determinant_text = _int_text(determinant)
    torsion = ",".join(map(_int_text, h1.torsion))
    parts = [
        f'{{"word":{_json_string(word)},"normal_form":{_form_text(form)},'
        f'"components":{components},"determinant":{determinant_text},'
        f'"h1":{{"free_rank":{h1.free_rank},"torsion":[{torsion}]}},'
        f'"b1":{b1},"l_space":{_JSON_BOOL[l_space]},'
        f'"tight":{_JSON_BOOL[tight]},'
        f'"tight_inverse":{_JSON_BOOL[tight_inverse]},'
        f'"knot_type_tag":{_json_string(tag)}']
    if hf is not None:
        parts.append(f'"hf_plus_s0":{_module_text(hf)}')
    if spin_c_count is not None:
        parts.append('"spin_c_count":' + (
            determinant_text if spin_c_count == determinant
            else _int_text(spin_c_count)))
    if correction is not None:
        parts.append(f'"correction_term":{{{_quarter_text(correction)}}}')
    if delta is not None:
        parts.append(f'"delta":{{{_quarter_text(delta)}}}')
    if signature is not None:
        parts.append(f'"signature":{signature}')
    stein_l_space, stein_tight, fillable, euler, twist_bound = stein
    euler = "" if euler is None else f'"euler_char":{euler},'
    parts.append(
        f'"qa":{_JSON_BOOL[qa]},'
        f'"finite_order_screen":{_json_string(screen)},'
        f'"stein":{{"l_space":{_JSON_BOOL[stein_l_space]},'
        f'"tight":{_JSON_BOOL[stein_tight]},'
        f'"fillable":{_json_string(fillable)},{euler}'
        f'"dehn_twist_count_bound":{twist_bound}}}')
    if bundle is not None:
        s0, count, relative, vanish = bundle
        relative = _NON_S0_RELATIVE_TEXT if relative is _NON_S0_RELATIVE \
            else _module_text(relative)
        parts.append(
            f'"torus_bundle":{{"s0":{_module_text(s0)},'
            f'"non_s0_count":{_int_text(count)},'
            f'"non_s0_relative":{relative},'
            f'"fiber_structures_vanish":{_JSON_BOOL[vanish]}}}')
    if oracle is not None:
        if "error" in oracle:
            parts.append(f'"oracle":{{"error":{_json_string(oracle["error"])}}}')
        else:
            parts.append(
                f'"oracle":{{"determinant":{_int_text(oracle["determinant"])},'
                f'"signature":{oracle["signature"]},'
                f'"agrees":{_JSON_BOOL[oracle["agrees"]]}}}')
    return ",".join(parts) + "}"


def _pretty_report(report, oracle: dict | None,
                   torus_requested: bool = False) -> str:
    # The model word, its twist power kept as one token, h^d.
    canonical = w_.run_text(murasugi.canonical_word(report.normal_form))
    lines = [
        f"word:                {report.word or '(empty)'}",
        f"normal form:         {report.normal_form}",
        f"canonical word:      {canonical or '(empty)'}",
        f"components:          {report.components}",
        f"determinant:         {_int_text(report.determinant)}",
        f"H1 of double cover:  {report.h1}",
        f"b1 of double cover:  {report.b1}",
        f"L-space:             {report.l_space}",
        f"tight:               {report.tight} (inverse: {report.tight_inverse})",
        f"knot type tag:       {report.knot_type_tag}",
    ]
    if report.hf_plus_s0 is None:
        lines.append("HF+ (s0):            undefined: b1 > 0")
    else:
        lines.append(f"HF+ (s0):            {report.hf_plus_s0}")
        lines.append(f"spin-c structures:   {_int_text(report.spin_c_count)}")
        lines.append(f"correction term:     {report.correction_term}")
    if report.delta is not None:
        lines.append(f"delta:               {report.delta}")
    if report.signature is not None:
        lines.append(f"signature:           {report.signature}")
    lines.append(f"quasi-alternating:   {report.qa}")
    lines.append(f"finite-order screen: {report.finite_order_screen}")
    stein = report.stein
    euler = "" if stein.euler_char is None else f", euler characteristic {stein.euler_char}"
    lines.append(f"Stein filling:       {stein.fillable}{euler} "
                 f"(twist bound {stein.dehn_twist_count_bound})")
    if report.torus_bundle is not None:
        bundle = report.torus_bundle
        lines.append(f"torus bundle (s0):   {bundle.s0}")
        lines.append("  other torsion spin-c: "
                     f"{_int_text(bundle.non_s0_count)} x "
                     f"[{bundle.non_s0_relative}]")
    elif torus_requested:
        lines.append("torus bundle:        undefined: monodromy is parabolic "
                     "or central, so the bundle's b1 is not 1")
    if oracle is not None:
        if "error" in oracle:
            lines.append(f"oracle:              {oracle['error']}")
        else:
            lines.append("oracle:              det "
                         f"{_int_text(oracle['determinant'])}, "
                         f"signature {oracle['signature']}, "
                         f"{'agrees' if oracle['agrees'] else 'DISAGREES'}")
    return "\n".join(lines)


def _analyze(args) -> int:
    _, records, oracles, errors = _staged_reports([args.word], args)
    if isinstance(errors[0], ParseError):
        print(f"parse error: {errors[0]}", file=sys.stderr)
        return EXIT_PARSE
    if errors[0] is not None:
        raise errors[0]
    record, oracle = records[0], oracles.get(0)
    if args.json:
        print(_line(record, oracle))
    else:
        print(_pretty_report(invariants._report(record), oracle,
                             torus_requested=args.torus_bundle))
    agrees = oracle is None or oracle.get("agrees", True)
    return EXIT_OK if agrees else EXIT_INCONSISTENT


def _batch_line(record, oracle: dict | None) -> str:
    """The text line of a values record: neither grading nor module is
    read.  An oracle that disagrees with the record says so."""
    summary = (f"{record.word!r}: {record.normal_form}; "
               f"components {record.components}; "
               f"det {_int_text(record.determinant)}; "
               f"L-space {record.l_space}; tight {record.tight}; qa {record.qa}")
    if oracle is not None:
        if "error" in oracle:
            summary += f"; oracle error: {oracle['error']}"
        else:
            summary += f"; oracle {_int_text(oracle['determinant'])}"
            if not oracle["agrees"]:
                summary += " DISAGREES"
    return summary


# A batch chunk is the longest run of consecutive words whose texts total at
# most _CHUNK_CHARS characters and that holds at most _CHUNK_WORDS words, and
# never less than one word.  The two bounds keep the parsed words, matrices
# and records alive at once to a few megabytes: a record of a one-letter
# word takes about 0.9 kB, one of a long word about 20 bytes per character.
_CHUNK_CHARS = 65536
_CHUNK_WORDS = 1024


def _chunks(texts: list) -> list:
    """The texts cut into consecutive chunks, each within both bounds or
    a single word."""
    chunks = []
    chunk = []
    chars = 0
    for text in texts:
        chars += len(text)
        if chunk and (chars > _CHUNK_CHARS or len(chunk) == _CHUNK_WORDS):
            chunks.append(chunk)
            chunk = []
            chars = len(text)
        chunk.append(text)
    if chunk:
        chunks.append(chunk)
    return chunks


def _staged_reports(texts: list, args=None) -> tuple:
    """Each stage over all of ``texts`` before the next: parse, the SL(2,Z)
    fold, ``classify``, and given a report command's ``args`` the values
    record and the oracle block when asked.  Returns (forms, records,
    oracles, errors): results by index, and each text's error or None; no
    later stage runs on a text that raised.  A loop per stage, in place of
    a helper called with each stage's function, cuts the bytecodes that the
    stages add to a one-word chunk by a third or more."""
    errors = [None] * len(texts)
    words, matrices, forms, records, oracles = {}, {}, {}, {}, {}
    for i, text in enumerate(texts):
        try:
            words[i] = w_.parse(text)
        except (ParseError, InternalInconsistency) as error:
            errors[i] = error
    for i, word in words.items():
        try:
            matrices[i] = homology.image(word)
        except (ParseError, InternalInconsistency) as error:
            errors[i] = error
    for i, matrix in matrices.items():
        try:
            forms[i] = murasugi.classify(words[i], matrix)
        except (ParseError, InternalInconsistency) as error:
            errors[i] = error
    if args is None:  # conjugate reads the forms alone
        return forms, records, oracles, errors
    for i, form in forms.items():
        try:
            records[i] = invariants.analyze_word(
                words[i], raw_text=texts[i],
                include_torus_bundle=args.torus_bundle, _record=True,
                _matrix=matrices[i], _form=form)
        except (ParseError, InternalInconsistency) as error:
            errors[i] = error
    for i, record in (records.items() if args.oracle else ()):
        try:
            oracles[i] = _oracle(words[i], record)
        except (ParseError, InternalInconsistency) as error:
            errors[i] = error
    return forms, records, oracles, errors


def _batch(args) -> int:
    try:
        with open(args.path, encoding="utf-8-sig") as handle:
            # Only at "\n", to which open maps "\r\n" and "\r": str.splitlines
            # also splits at characters that parse reads as spaces.
            raw_lines = handle.read().split("\n")
    except (OSError, UnicodeError) as error:
        print(f"cannot read {args.path}: {error}", file=sys.stderr)
        return EXIT_IO

    texts = [text for text in map(str.strip, raw_lines)
             if text and not text.startswith("#")]
    ok = failed = 0
    consistent = True
    for chunk in _chunks(texts):
        _, records, oracles, errors = _staged_reports(chunk, args)
        # One print per line, so that the lines before one that stdout
        # cannot encode are written.
        for i, text in enumerate(chunk):
            error = errors[i]
            if error is not None:
                failed += 1
                parse_error = isinstance(error, ParseError)
                consistent = consistent and parse_error
                if args.json:
                    position = f'"position":{error.position},' \
                        if parse_error else ""
                    print(f'{{"word":{_json_string(text)},"error":{{'
                          f'"type":{_json_string(type(error).__name__)},'
                          f'{position}"message":{_json_string(str(error))}}}}}')
                else:
                    print(f"{text!r}: error: {error}")
                continue
            ok += 1
            record = records[i]
            oracle = oracles.get(i)
            consistent = consistent and \
                (oracle is None or oracle.get("agrees", True))
            if args.json:
                print(_line(record, oracle))
            else:
                print(_batch_line(record, oracle))
    if args.json:
        print(f'{{"summary":{{"ok":{ok},"failed":{failed}}}}}')
    else:
        print(f"{ok} ok, {failed} failed")
    return EXIT_OK if consistent else EXIT_INCONSISTENT


def _conjugate(args) -> int:
    forms, _, _, errors = _staged_reports([args.word1, args.word2])
    for position, error in enumerate(errors, start=1):
        if isinstance(error, ParseError):
            print(f"parse error in word {position}: {error}", file=sys.stderr)
            return EXIT_PARSE
        if error is not None:
            raise error
    conjugate = forms[0] == forms[1]
    if args.json:
        print(f'{{"conjugate":{_JSON_BOOL[conjugate]},'
              f'"normal_form_1":{_form_text(forms[0])},'
              f'"normal_form_2":{_form_text(forms[1])}}}')
    else:
        print(f"word 1: {forms[0]}")
        print(f"word 2: {forms[1]}")
        print("conjugate" if conjugate else "not conjugate")
    return EXIT_OK if conjugate else EXIT_NOT_CONJUGATE


# Each command's help, positionals and flags, all of them store_true.  Both
# readers of an argv, _fast_args and _parser, take them from here.
_REPORT_FLAGS = ("--json", "--oracle", "--torus-bundle")
_COMMANDS = {
    "analyze": ("report on a single word", ("word",), _REPORT_FLAGS),
    "batch": ("report on each word in a file", ("path",), _REPORT_FLAGS),
    "conjugate": ("decide conjugacy of two words", ("word1", "word2"),
                  ("--json",)),
}
# Each flag's attribute, as argparse names it, and each command's flag
# attributes at their default, False.
_FLAG_ATTRIBUTES = {flag: flag[2:].replace("-", "_") for flag in _REPORT_FLAGS}
_FLAG_DEFAULTS = {
    command: dict.fromkeys(map(_FLAG_ATTRIBUTES.get, flags), False)
    for command, (_, _, flags) in _COMMANDS.items()}


def _fast_args(argv):
    """The namespace argparse would make of ``argv``, read without
    argparse, or None where argparse must read it (see the module
    docstring).  The namespace starts as a copy of the command's
    ``_FLAG_DEFAULTS``, and each flag read sets its own attribute, so a
    flag repeated finds its attribute already set and defers."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, names, flags = _COMMANDS[argv[0]]
    args = SimpleNamespace(command=argv[0], **_FLAG_DEFAULTS[argv[0]])
    namespace = vars(args)
    positionals = []
    for token in argv[1:]:
        if not token.startswith("-"):
            positionals.append(token)
        elif token in flags and not namespace[_FLAG_ATTRIBUTES[token]]:
            namespace[_FLAG_ATTRIBUTES[token]] = True
        else:
            return None
    if len(positionals) != len(names):
        return None
    namespace.update(zip(names, positionals))
    return args


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="threebraid",
        description="Normal forms and closure invariants of 3-braid words.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, names, flags) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_)
        for name in names:
            command_parser.add_argument(name)
        for flag in flags:
            command_parser.add_argument(flag, action="store_true")
    return parser


def main(argv=None) -> int:
    # Every integer that may pass the int-to-str digit limit is printed by
    # _int_text, so the caller's limit is left as it is.
    try:
        args = _fast_args(sys.argv[1:] if argv is None else argv) \
            or _parser().parse_args(argv)
        command = {"analyze": _analyze, "batch": _batch,
                   "conjugate": _conjugate}[args.command]
        code = command(args)
        sys.stdout.flush()  # so that a write error surfaces here
        return code
    except InternalInconsistency as error:
        print(f"internal inconsistency: {error}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as error:  # a closed pipe or a full device
        if sys.stdout is sys.__stdout__:
            # Output left in the buffer would fail again when the
            # interpreter flushes stdout at exit; send it nowhere instead.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write output: {error}", file=sys.stderr)
        return EXIT_IO
    except UnicodeEncodeError as error:  # a character stdout cannot encode
        # The lines before it were written; the interpreter flushes them.
        print(f"cannot write output: {error}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
