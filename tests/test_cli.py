"""Command-line interface: what a pinned command line cannot show.

``tests/pins.py`` is the one place that pins a fixed command line's exit
code and stdout; three tests here run that table in process and check the
table itself, and a test named for one behaviour runs just the rows that pin
it.  The rest check only what a row cannot express: stderr text, files,
monkeypatched modules, the environment, random command lines, the parser's
parity with argparse, and which modules a subcommand loads.
"""

import contextlib
import functools
import hashlib
import io
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from taglab import cli, core, words
from taglab.certify import Quadruplet, render_certificate, seed_quadruplet, verify_chain
from taglab.cli import main, parse_args
from taglab.core import OutcomeKind, run

import pins
from reference import reference_parser


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_reaches_target_from_file_words(tmp_path, capsys):
    start = tmp_path / "b.txt"
    target = tmp_path / "abc.txt"
    start.write_text(words.B + "\n")
    target.write_text(words.A + words.B + words.C + "\n")
    code, out, _ = run_cli(
        capsys, "simulate", "--word", f"@{start}", "--target", f"@{target}",
        "--budget", "20000",
    )
    assert code == 0
    assert out.startswith("TargetReached 10444 2474")


def test_simulate_keeps_an_empty_target(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    outcome = run("", budget=1, target="")
    assert outcome.kind is OutcomeKind.TARGET_REACHED
    for target in ("", f"@{empty}"):
        code, out, _ = run_cli(capsys, "simulate", "--word", "", "--target", target,
                               "--budget", "1")
        assert code == 0
        assert out == f"{outcome.kind.value} {outcome.steps_taken} {len(outcome.final)}\n"


def run_in_process(argv):
    """``(exit code, stdout)`` of ``argv`` through ``cli.main``, ended as ``app`` ends it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and command-line errors
            code = exc.code
    return code, out.getvalue()


def pinned_problems(*argvs):
    """What ``run_in_process`` gets wrong of the ``pins.PINS`` rows for ``argvs``,
    each of which the table must hold."""
    rows = [row for row in pins.PINS if row[0] in argvs]
    assert sorted(argv for argv, _, _ in rows) == sorted(argvs)
    return pins.row_problems(run_in_process, rows)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_console_pins_hold_on_a_cold_and_a_warm_table(warm):
    # every row of tests/pins.py, which CI runs against the installed script;
    # run's table of known futures starts empty, or warmed by a list of short
    # words and README's cycling words, so that simulate ends from a word
    # learned on the way to its cycle; no output depends on which
    core._TABLE.clear()
    core._held = 0
    if warm:
        rng = random.Random(5)
        for word in ["".join(rng.choice("01") for _ in range(rng.randint(8, 64)))
                     for _ in range(300)] + ["100100100", "110111010000"]:
            run(word, budget=20000)
        assert any(dist for table in core._TABLE.values() for _, _, dist in table.values())
    assert pins.problems(run_in_process) == []


def test_each_wrong_pin_is_one_problem(monkeypatch):
    # the table cannot pass vacuously: a wrong exit code, a wrong literal and
    # a wrong digest each give exactly one line, and a runner that gets
    # everything wrong (an exit code that no row pins) one per row and per
    # step of the certificate round trip
    outputs = functools.cache(lambda argv: run_in_process(list(argv)))

    def recorded(argv):
        return outputs(tuple(argv))

    digests = [isinstance(out, pins.Sha256) for _, _, out in pins.PINS]
    literal, digest = digests.index(False), digests.index(True)
    edits = [(literal, lambda argv, code, out: (argv, code + 1, out)),
             (literal, lambda argv, code, out: (argv, code, out + "x")),
             (digest, lambda argv, code, out: (argv, code, pins.Sha256(out[::-1])))]
    for i, edit in edits:
        with monkeypatch.context() as patch:
            patch.setattr(pins, "PINS", [*pins.PINS[:i], edit(*pins.PINS[i]), *pins.PINS[i + 1:]])
            assert len(pins.problems(recorded)) == 1
    assert len(pins.problems(lambda argv: (-1, ""))) == len(pins.PINS) + 5


def test_no_command_line_is_pinned_twice():
    # the table is the only check of these outputs: a second row for one
    # command line would be a second, possibly contradicting, pin
    argvs = [tuple(argv) for argv, _, _ in pins.PINS]
    assert [argv for argv in set(argvs) if argvs.count(argv) > 1] == []


# Tests named for one behaviour: each runs the rows of tests/pins.py that pin it.

def test_simulate_halts_on_short_words():
    assert pinned_problems(["simulate", "--word", "0", "--budget", "5"],
                           ["simulate", "--word", "01", "--budget", "5"]) == []


def test_simulate_reports_cycles():
    assert pinned_problems(*(["simulate", "--word", "100100100", "--budget", budget]
                             for budget in ("1000", "200000"))) == []


def test_simulate_budget_exhaustion_exit_code():
    assert pinned_problems(["simulate", "--word", "100100100", "--budget", "3"]) == []


def test_unknown_flags_exit_with_input_error():
    assert pinned_problems(["simulate", "--word", "1", "--budget", "5", "--bogus"]) == []


def test_unknown_command_exits_with_input_error():
    assert pinned_problems(["frobnicate"]) == []


def test_verify_theorem_origin_cell():
    # the grid's first line starts with the origin cell, n=0: 10444
    assert pinned_problems(["verify-theorem", "2", "2", "200000"]) == []


def test_verify_theorem_small_grid():
    assert pinned_problems(["verify-theorem", "2", "2", "200000"]) == []


def test_verify_theorem_budget_failure():
    assert pinned_problems(["verify-theorem", "0", "0", "1"]) == []


def test_verify_omega_emit_check_round_trip():
    # the emitted file's pinned sha256 makes two emits agree byte for byte
    assert pins.round_trip_problems(run_in_process) == []


def test_verify_omega_flip_index_validation():
    assert pinned_problems(["verify-omega", "--flip-a", "99"]) == []


def test_blockset_canonical_order():
    assert pinned_problems(["blockset", "10101"]) == []


def test_blockset_long_word():
    assert pinned_problems(["blockset", "1" + "uu1" * 400]) == []


def test_blockset_empty_set():
    assert pinned_problems(["blockset", "w1v"]) == []


def test_blockset_rejects_bad_alphabet():
    assert pinned_problems(["blockset", "10a01"]) == []


def test_block_search_document_structure():
    assert pinned_problems(["block-search", "2", "50", "1"]) == []


@pytest.mark.parametrize("argv", [["--help"], ["-h"]])
def test_help_lists_every_command(argv):
    assert pinned_problems(argv) == []


@pytest.mark.parametrize("command", pins.COMMAND_HELPS)
def test_help_names_every_argument(command):
    assert pinned_problems([command, "--help"]) == []


def test_simulate_rejects_bad_word(capsys):
    code, _, err = run_cli(capsys, "simulate", "--word", "012", "--budget", "5")
    assert code == 1
    assert "error" in err


def test_simulate_rejects_missing_file(capsys):
    code, _, err = run_cli(capsys, "simulate", "--word", "@/no/such/file", "--budget", "5")
    assert code == 1
    assert err.startswith("error: ")


def test_verify_omega_rejects_perturbed_offset(capsys):
    for offset in ("1", "2"):
        code, out, err = run_cli(capsys, "verify-omega", "--seed-x", offset)
        assert (code, out) == (3, "certificate FAILED\n")
        assert err.startswith("invariant: ")


def test_verify_omega_rejects_flipped_symbols(capsys):
    # each flip breaks an invariant of the chain or leaves it unclosed, and says which
    for index in range(18):
        code, _, err = run_cli(capsys, "verify-omega", "--flip-a", str(index))
        assert code == 3, f"flip at {index} was accepted"
        assert err.startswith(("invariant: ", "closure_ok: fail\n")), index


def test_verify_omega_check_rejects_malformed_document(tmp_path, capsys):
    path = tmp_path / "certificate.txt"
    path.write_text("version: 1\nnonsense\n")
    code, _, err = run_cli(capsys, "verify-omega", "--check", str(path))
    assert code == 1


def test_verify_omega_check_requires_the_rendered_bytes(tmp_path, capsys):
    path = tmp_path / "certificate.txt"
    run_cli(capsys, "verify-omega", "--emit", str(path))
    path.write_text(path.read_text().replace("seed.x: 0\n", "seed.x: 0 \n", 1))
    code, out, err = run_cli(capsys, "verify-omega", "--check", str(path))
    assert (code, out) == (3, "certificate FAILED\n")
    assert err == "document: re-rendering does not reproduce the file\n"


def test_verify_omega_check_rejects_another_family(tmp_path, capsys):
    # honestly derived and closed, but from (A, ABC, C, 0): only the seed is wrong
    chain = verify_chain(Quadruplet(words.A, words.A + words.B + words.C, words.C, 0))
    path = tmp_path / "certificate.txt"
    path.write_text(render_certificate(chain))
    code, out, err = run_cli(capsys, "verify-omega", "--check", str(path))
    assert (code, out) == (3, "certificate FAILED\n")
    assert err == "seed: not the 13-step chain from (A, B, C, 0)\n"


@pytest.mark.parametrize("extra", [["--emit", "out.txt"], ["--flip-a", "0"], ["--seed-x", "0"]])
def test_verify_omega_check_refuses_derivation_flags(tmp_path, monkeypatch, capsys, extra):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "verify-omega", "--emit", "certificate.txt")
    code, out, err = run_cli(capsys, "verify-omega", "--check", "certificate.txt", *extra)
    assert (code, out) == (1, "")
    assert err == "error: --check takes none of --emit, --flip-a and --seed-x\n"
    assert [p.name for p in tmp_path.iterdir()] == ["certificate.txt"]


SWAPPED = {"pass": "fail", "fail": "pass", "true": "false", "false": "true"}


@st.composite
def single_line_edits(draw, lines):
    """The genuine certificate's lines with one line dropped, duplicated or changed."""
    i = draw(st.integers(0, len(lines) - 1))
    key, _, value = lines[i].rstrip("\n").partition(": ")
    edits = ["drop", "duplicate"]
    if value in SWAPPED:
        edits.append("flag")
    elif key.endswith((".a", ".b", ".c")):
        edits.append("flip")
    else:
        edits.append("number")
    edit = draw(st.sampled_from(edits))
    if edit == "drop":
        return lines[:i] + lines[i + 1:]
    if edit == "duplicate":
        return lines[:i + 1] + lines[i:]
    if edit == "flag":
        value = SWAPPED[value]
    elif edit == "flip":
        j = draw(st.integers(0, len(value) - 1))
        value = value[:j] + ("1" if value[j] == "0" else "0") + value[j + 1:]
    else:
        value = str(draw(st.integers(-1, 20).filter(lambda n: str(n) != value)))
    return lines[:i] + [f"{key}: {value}\n"] + lines[i + 1:]


@pytest.fixture(scope="module")
def genuine_lines():
    return render_certificate(verify_chain(seed_quadruplet())).splitlines(keepends=True)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_single_line_edits_never_check(genuine_lines, tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "edited-certificate.txt"
    path.write_text("".join(data.draw(single_line_edits(genuine_lines))))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify-omega", "--check", str(path)])
    assert (code, out.getvalue()) in ((1, ""), (3, "certificate FAILED\n"))
    assert "Traceback" not in err.getvalue()


def test_blockset_reads_word_from_file(tmp_path, capsys):
    row = tmp_path / "row.txt"
    row.write_text("1uu11\n100\n")
    code, out, _ = run_cli(capsys, "blockset", f"@{row}")
    assert code == 0
    assert out == "1uu1uu0w\n"
    code, out, err = run_cli(capsys, "blockset", f"@{tmp_path / 'missing.txt'}")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_verify_omega_emit_to_missing_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify-omega", "--emit", str(tmp_path / "no" / "x.txt"))
    assert code == 1
    assert err.startswith("error: ")


def test_block_search_out_to_missing_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "block-search", "1", "1", "1",
                           "--out", str(tmp_path / "no" / "x.txt"))
    assert code == 1
    assert err.startswith("error: ")


# Every path argument, with PATH where the path goes, and whether it is read
# (a written path cannot be a non-ASCII file).
PATH_ARGUMENTS = {
    "simulate-word": (["simulate", "--word", "@PATH", "--budget", "5"], True),
    "simulate-target": (["simulate", "--word", "0", "--target", "@PATH", "--budget", "5"], True),
    "blockset": (["blockset", "@PATH"], True),
    "decode": (["decode", "@PATH"], True),
    "verify-omega-check": (["verify-omega", "--check", "PATH"], True),
    "verify-omega-emit": (["verify-omega", "--emit", "PATH"], False),
    "block-search-out": (["block-search", "1", "1", "1", "--out", "PATH"], False),
}
BAD_PATHS = [(name, kind) for name, (_, read) in PATH_ARGUMENTS.items()
             for kind in ("missing", "directory", "non-ascii")[:3 if read else 2]]


@pytest.mark.parametrize("name, kind", BAD_PATHS, ids=[f"{n}-{k}" for n, k in BAD_PATHS])
def test_bad_paths_end_as_one_error_line(tmp_path, capsys, name, kind):
    path = {"missing": tmp_path / "no" / "x.txt", "directory": tmp_path,
            "non-ascii": tmp_path / "word.txt"}[kind]
    (tmp_path / "word.txt").write_bytes("0\u00e9\n".encode())
    argv, _ = PATH_ARGUMENTS[name]
    code, out, err = run_cli(capsys, *(arg.replace("PATH", str(path)) for arg in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_reports_the_word_before_the_target(tmp_path, capsys):
    word, target = tmp_path / "word.txt", tmp_path / "target.txt"
    code, out, err = run_cli(capsys, "simulate", "--word", f"@{word}", "--target", f"@{target}",
                             "--budget", "5")
    assert (code, out) == (1, "")
    assert str(word) in err and str(target) not in err
    code, out, err = run_cli(capsys, "simulate", "--word", "012", "--target", f"@{target}",
                             "--budget", "5")
    assert (code, out, err) == (1, "", "error: not a binary word, unexpected symbols ['2']\n")


def test_an_error_inside_a_handler_ends_as_one_error_line(monkeypatch, capsys):
    from taglab import blocks

    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(blocks, "search", boom)
    code, out, err = run_cli(capsys, "block-search", "2", "10", "1")
    assert (code, out, err) == (1, "", "error: boom\n")


def test_decode_rejects_untokenizable_word(capsys):
    code, _, err = run_cli(capsys, "decode", "010")
    assert code == 1
    assert "error" in err


# Argv fuzzing: numbers stay small (rows <= 2, budgets <= 50) so each
# command line runs in milliseconds.
small_ints = st.one_of(st.integers(-1, 2).map(str), st.sampled_from(["", "x"]))
# values that argparse must not take for an option's value or a positional
# (option names), or must take although they start with "-" (negative numbers)
dashed = st.one_of(st.sampled_from(["--word", "--target", "--budget", "--emit", "--seed-x",
                                    "--max-suffix", "--out", "--bogus", "-h"]),
                   st.integers(-30, -1).map(str))


@st.composite
def cli_argv(draw, missing):
    """A random command line for one subcommand, valid or not.

    Each option comes zero, one or two times, as ``--flag value`` or
    ``--flag=value``, before, between or after the positionals; any value
    may be an option name or a negative number.  ``missing`` is a path under
    a directory that does not exist; "@" alone names the working directory.
    """
    word_args = st.one_of(st.text(alphabet="01ZOvuwx@", max_size=12),
                          st.sampled_from(["@", "@" + missing]))
    paths = st.sampled_from(["", missing])
    numbers = st.integers(-1, 50).map(str)
    command = draw(st.sampled_from(
        ["simulate", "verify-theorem", "verify-omega", "blockset", "block-search", "decode"]))
    positionals, options, required = [], [], ()
    if command == "simulate":
        options, required = [("--word", word_args), ("--budget", numbers),
                             ("--target", word_args)], ("--word", "--budget")
    elif command == "verify-theorem":
        positionals = [small_ints, small_ints, numbers]
    elif command == "verify-omega":
        options = [("--emit", paths), ("--check", paths), ("--seed-x", small_ints),
                   ("--flip-a", st.integers(-1, 20).map(str))]
    elif command == "block-search":
        positionals = [small_ints, st.integers(-1, 20).map(str), small_ints]
        options = [("--max-suffix", small_ints), ("--out", paths)]
    else:
        positionals = [word_args]
    groups = [[draw(st.one_of(values, values, values, dashed))] for values in positionals]
    # at most one unknown flag or stray positional
    inserted = draw(st.lists(st.sampled_from([["--bogus"], ["1"]]), max_size=1))
    for name, values in options:
        for _ in range(draw(st.sampled_from([1, 1, 1, 2, 0] if name in required else [0, 0, 1, 2]))):
            value = draw(st.one_of(values, values, values, dashed))
            inserted.append(draw(st.sampled_from([[name, value], [f"{name}={value}"]])))
    for group in inserted:
        groups.insert(draw(st.integers(0, len(groups))), group)
    return [command] + [token for group in groups for token in group]


@pytest.fixture(scope="module")
def missing_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli") / "no" / "x.txt")


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_random_command_lines_exit_cleanly(missing_path, data):
    argv = data.draw(cli_argv(missing_path))
    out, err = io.StringIO(), io.StringIO()
    # a drawn path such as "-3" or "--out" names a file in the working directory
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        patch.chdir(Path(missing_path).parents[1])
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def parsed(parse, argv):
    """``parse(argv)``'s attributes less argparse's ``func``, or the code it exited with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            attributes = vars(parse(argv))
        except SystemExit as exc:
            return exc.code
    attributes.pop("func", None)
    return attributes


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_parse_args_agrees_with_argparse(missing_path, data):
    argv = data.draw(cli_argv(missing_path))
    assert parsed(parse_args, argv) == parsed(reference_parser().parse_args, argv)


def test_parse_args_accepts_each_form():
    # "--flag=value" whose value holds "=", options before and between the
    # positionals, the last of a repeated option wins, a negative number value
    argv = ["block-search", "--out=a=b", "--max-suffix", "2", "2", "--max-suffix=3", "5", "1"]
    expected = {"command": "block-search", "max_rows": 2, "budget": 5, "threads": 1,
                "max_suffix": 3, "out": "a=b"}
    assert vars(parse_args(argv)) == parsed(reference_parser().parse_args, argv) == expected
    argv = ["verify-omega", "--flip-a", "-3", "--seed-x=1"]
    expected = {"command": "verify-omega", "emit": None, "check": None, "seed_x": 1, "flip_a": -3}
    assert vars(parse_args(argv)) == parsed(reference_parser().parse_args, argv) == expected


def test_help_keeps_its_bytes_apart_from_the_module_docstring(monkeypatch):
    monkeypatch.setattr(cli, "__doc__", "Another docstring.")
    code, out = run_in_process(["--help"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, pins.HELP)


def test_no_command_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err.startswith("usage: taglab")


SRC = Path(__file__).resolve().parents[1] / "src"

# Modules whose import costs start-up time that no subcommand needs: the
# argparse parser alone loaded argparse, gettext and, through it, locale.
UNNEEDED = ("dataclasses", "pathlib", "typing", "_hashlib", "argparse", "gettext", "locale")

# Run in a fresh interpreter without site, so that only the modules the code
# under test imports are loaded; prints the exit code, the loaded modules of
# UNNEEDED (or "none"), and the loaded taglab modules.
LOADED = f"""
import io, sys
sys.path.insert(0, sys.argv[1])
argv = sys.argv[2:]
if argv:
    from taglab.cli import main
    stdout, sys.stdout = sys.stdout, io.StringIO()
    code = main(argv)
    sys.stdout = stdout
else:
    import taglab
    code = None
print(code, ",".join(name for name in {UNNEEDED!r} if name in sys.modules) or "none",
      *sorted(name for name in sys.modules if name.partition(".")[0] == "taglab"))
"""

CORE = ["taglab", "taglab.cli", "taglab.core"]
BLOCKS = ["taglab", "taglab.blocks", "taglab.cli", "taglab.core"]
CERTIFY = ["taglab", "taglab.algebra", "taglab.certify", "taglab.cli", "taglab.core",
           "taglab.words"]


def loaded_modules(*argv):
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED, str(SRC), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, unneeded, *modules = proc.stdout.split()
    return code, unneeded, modules


SUBCOMMAND_RUNS = [
    ("simulate --word 100100100 --budget 1000", "0", CORE),
    ("decode ZZOOOZ", "0", CORE),
    ("blockset 0000", "0", BLOCKS),
    ("block-search 2 10 1", "0", BLOCKS),
    ("verify-omega --seed-x 1", "3", CERTIFY),
    ("verify-theorem 0 0 10", "2", CERTIFY),
]


@pytest.mark.parametrize("command, code, modules", SUBCOMMAND_RUNS,
                         ids=[command.split()[0] for command, _, _ in SUBCOMMAND_RUNS])
def test_each_subcommand_loads_only_its_modules(command, code, modules):
    assert loaded_modules(*command.split()) == (code, "none", modules)


def test_importing_the_package_loads_no_submodule():
    assert loaded_modules() == ("None", "none", ["taglab"])


def test_closed_pipe_ends_without_traceback(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    assert pins.closed_pipe_problems([sys.executable, "-u", "-m", "taglab.cli"]) == []
