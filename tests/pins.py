"""Every pinned command-line output of taglab, in one table, and its checks.

Each row of ``PINS`` is a command line, the exit code it must end with, and
its stdout: the exact text, or a ``Sha256`` of it.  This table is the one
place that pins a fixed command line's exit code and stdout; a test in
``tests/test_cli.py`` that names one behaviour checks that behaviour's rows
here, and the rest check only what a row cannot say: stderr, files,
monkeypatched modules, the environment, random command lines, the parser
and which modules load.  ``problems(run)`` checks every row, and the emit,
check and tamper sequence of a certificate, through a runner
``run(argv) -> (exit code, stdout)`` and returns one line per failure;
``row_problems(run, rows)`` checks the given rows only, and
``closed_pipe_problems`` needs a real process.  ``tests/test_cli.py`` runs
them through ``taglab.cli.main`` in process, and

    python tests/pins.py

runs them against the ``taglab`` on PATH, prints one line per failure, a
traceback on stderr included, and exits 1 if any.  This module uses only the
standard library and imports no taglab code.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path


class Sha256(str):
    """A pinned stdout given by the hex sha256 of its bytes."""


# the top-level help is its own text, so editing a module docstring cannot change it
HELP = Sha256("0a5dd174dc8217587db45d725b366358db43c34b90de1be7c73372f90bf119e8")
# each subcommand's --help
COMMAND_HELPS = {
    "simulate": Sha256("71c173b3e63a8d4d5281a6c3e77dc130e9e24c7cb6d3296796e14d44f05fc0e3"),
    "verify-theorem": Sha256("dfa0b67740d2e2848fdef386d16d6da4f68da53dbcf28c76ef8dfe0cf0f43841"),
    "verify-omega": Sha256("fe6d56e7bb9d22f6f9e5f8d1771b1212b761ea5037640f262ef99356c163cd33"),
    "blockset": Sha256("4d97ba0486241a2c0b2e8ccb6143162ce3fbefe11440f892901d1185a269f3ea"),
    "block-search": Sha256("e0f6ed3aaf08e7c7d6a7b1daba243d7e08ca4c9bd1a08a8ce5b2a6975fc5155c"),
    "decode": Sha256("a21171fa4914330fdaeec7530b768191d795cb260fb19cf5776416bf9989f020"),
}
# the 3x3 growth grid: n=0: 10444 10678 10912, n=1: 10522 10756 10990, n=2: 10600 10834 11068
GRID = Sha256("b875c7c67372222bc634c9a097171e8354683560ce1a51cea9645887b031ea28")
# the 13-step chain from (A, B, C, 0)
CERTIFICATE = Sha256("313984f77be6091cbb917edbcbf69f5f9750937ab3b6dc96f40e7983ad48c66e")
# block-search's document for (max_rows, budget, max_suffix); the 4-row ones use the
# openings cache under two suffix bounds, the 5-row one shares the caches across 5540 blocks
CENSUSES = {
    (4, 2000, 3): Sha256("c73f544ae8ffe965cbeaa36f9af725540fb5df65c304f5bfea5aa0a9396a8ae3"),
    (4, 2000, 4): Sha256("b21f5259eb5ec5d57f4b337153b6d1d0b3eaf7f591c5a712cd29bbf170b623be"),
    (5, 20000, 4): Sha256("f5d26fdc5adaa5a9844755f182aab61055c334d311fb700f73a9e1071ad13a8b"),
}

# simulate's lines for README's two cycling words, then for two whose cycle
# starts past the snapshot that a chunk takes inside it, and before it
CYCLES = {
    "100100100": "Cycled 21 16 6\n",
    "110111010000": "Cycled 7 13 4\n",
    "0001001": "Cycled 37 14 6\n",
    "100000100000": "Cycled 37 17 6\n",
}

PINS = [
    (["--help"], 0, HELP),
    (["-h"], 0, HELP),
    *(([command, "--help"], 0, out) for command, out in COMMAND_HELPS.items()),
    (["simulate", "--word", "1", "--budget", "5", "--bogus"], 1, ""),
    (["frobnicate"], 1, ""),
    # words too short to step halt at once; a budget that runs out exits 2
    (["simulate", "--word", "0", "--budget", "5"], 0, "Halted 0 1\n"),
    (["simulate", "--word", "01", "--budget", "5"], 0, "Halted 0 2\n"),
    (["simulate", "--word", "100100100", "--budget", "3"], 2, "BudgetExhausted 3 12\n"),
    # each at a budget whose first searched window starts at step 255, and
    # at one where it starts at step 1023
    *((["simulate", "--word", word, "--budget", budget], 0, out)
      for budget in ("1000", "200000") for word, out in CYCLES.items()),
    # a cycle entered at step 899, in that window
    (["simulate", "--word", "1011111100111011011100", "--budget", "200000"], 0,
     "Cycled 1029 37 6\n"),
    # an empty --target is kept, so the empty word reaches it at once
    (["simulate", "--word", "", "--target", "", "--budget", "1"], 0, "TargetReached 0 0\n"),
    # converting sets in canonical order, and a row that no block converts
    (["blockset", "0000"], 0, "0uu0\nv0ww\nvv0w\n"),
    (["blockset", "10101"], 0, "1uu0w\nv0uu1\nvv1ww\n"),
    (["blockset", "w1v"], 0, ""),
    # a long row that converts only to itself, and a symbol outside the row alphabet
    (["blockset", "1" + "uu1" * 400], 0, "1" + "uu1" * 400 + "\n"),
    (["blockset", "10a01"], 1, ""),
    # A's tokens and binary form, both ways, and a word no token parse covers
    (["decode", "ZZOOOZ"], 0, "000011011101110100\n"),
    (["decode", "000011011101110100"], 0, "ZZOOOZ\n"),
    (["decode", "0001101"], 1, ""),
    (["block-search", "2", "50", "1"], 0,
     "version: 1\nmax_rows: 2\nbudget: 50\nmax_suffix: 4\nexamined: 24\nexhausted: true\n"
     "found: 0\n"),
    (["block-search", "4", "2000", "1", "--max-suffix", "3"], 0, CENSUSES[4, 2000, 3]),
    (["block-search", "4", "2000", "1"], 0, CENSUSES[4, 2000, 4]),
    (["block-search", "5", "20000", "1"], 0, CENSUSES[5, 20000, 4]),
    (["verify-theorem", "2", "2", "200000"], 0, GRID),
    # a cell whose target lies past the budget
    (["verify-theorem", "0", "0", "1"], 2, "n=0: -\n"),
    (["verify-omega"], 0, CERTIFICATE),
    (["verify-omega", "--seed-x", "1"], 3, "certificate FAILED\n"),
    # a flip index past A's 18 symbols
    (["verify-omega", "--flip-a", "99"], 1, ""),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _problem(argv, code, out, pinned_code, pinned_out):
    """A line saying how ``argv``'s exit code and stdout miss their pins, or None."""
    got = _sha256(out) if isinstance(pinned_out, Sha256) else out
    if (code, got) != (pinned_code, pinned_out):
        return (f"taglab {shlex.join(argv)}: exit {code}, stdout {got!r};"
                f" pinned exit {pinned_code}, stdout {pinned_out!r}")
    return None


def _step_lines(text, i):
    """The document lines of step ``i``, which stand together."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.startswith(f"step.{i}."))


def round_trip_problems(run):
    """``--emit`` writes the pinned certificate, ``--check`` accepts the file,
    and rejects it with exit code 3 once its closure_ok line reads false, or
    once step 2's lines are step 1's renumbered, a step that does not follow
    from the one before it."""
    with tempfile.TemporaryDirectory() as tmp:
        emitted, tampered = Path(tmp, "certificate.txt"), Path(tmp, "tampered.txt")
        found = [_problem(argv, *run(argv), 0, "certificate ok\n")
                 for argv in (["verify-omega", "--emit", str(emitted)],
                              ["verify-omega", "--check", str(emitted)])]
        text = emitted.read_text() if emitted.exists() else ""
        if _sha256(text) != CERTIFICATE:
            found.append(f"taglab verify-omega --emit: file sha256 {_sha256(text)},"
                         f" pinned {CERTIFICATE}")
        repeated = _step_lines(text, 1).replace("step.1.", "step.2.")
        for edited in (text.replace("\nclosure_ok: true\n", "\nclosure_ok: false\n"),
                       text.replace(_step_lines(text, 2), repeated)):
            tampered.write_text(edited)
            argv = ["verify-omega", "--check", str(tampered)]
            found.append(_problem(argv, *run(argv), 3, "certificate FAILED\n"))
    return [line for line in found if line]


def row_problems(run, rows):
    """One line per row of ``rows`` whose command line ``run`` gets wrong."""
    found = [_problem(argv, *run(argv), code, out) for argv, code, out in rows]
    return [line for line in found if line]


def problems(run):
    """One line per pinned command line, or step of the round trip, that ``run`` gets wrong."""
    return row_problems(run, PINS) + round_trip_problems(run)


def closed_pipe_problems(command):
    """A reader that closes the pipe after the first grid row leaves taglab, run
    as the argv prefix ``command``, with an exit code of 0-3 and no traceback."""
    # unbuffered, each row is written as it is made, so the rows after the
    # first meet the closed pipe
    proc = subprocess.Popen([*command, "verify-theorem", "5", "5", "200000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONUNBUFFERED": "1"})
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode(errors="replace")
    proc.stderr.close()
    code = proc.wait(timeout=60)
    found = []
    if not first.startswith(b"n=0: 10444 "):
        found.append(f"closed pipe: first row {first!r}, pinned to start 'n=0: 10444 '")
    if code not in (0, 1, 2, 3) or "Traceback" in err:
        found.append(f"closed pipe: exit {code}, stderr {err!r}")
    return found


def main():
    tracebacks = []

    def run(argv):
        proc = subprocess.run(["taglab", *argv], capture_output=True, text=True, timeout=300)
        if "Traceback" in proc.stderr:
            tracebacks.append(f"taglab {shlex.join(argv)}: traceback on stderr")
        return proc.returncode, proc.stdout

    found = problems(run) + tracebacks + closed_pipe_problems(["taglab"])
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
