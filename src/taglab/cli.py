"""Command-line front door: ``ABOUT`` and ``COMMANDS`` describe the ``taglab`` command."""

import os
import sys
from types import SimpleNamespace

# Each subcommand imports the taglab modules it uses when it runs, so a
# process loads only those; importing this module loads none of them.

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


def _int_within(low: int, high: int | None = None):
    def convert(text: str) -> int:
        value = int(text)
        if value < low or high is not None and value > high:
            raise ValueError(f"must be at least {low}" if high is None else f"must be {low}..{high}")
        return value
    return convert


_positive, _non_negative, _seed_offset = _int_within(1), _int_within(0), _int_within(0, 2)


def _read_word(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], encoding="ascii") as handle:
            return "".join(handle.read().split())
    return arg


def _write(path: str | None, document: str) -> None:
    """Write ``document`` to the file ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(document)
    else:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(document)


def _cmd_simulate(args) -> int:
    from taglab import core

    # the word is checked before the target is read, so its error comes first
    word = core.check_word(_read_word(args.word))
    target = _read_word(args.target) if args.target is not None else None
    outcome = core.run(word, budget=args.budget, target=target)
    fields = [outcome.kind.value, str(outcome.steps_taken), str(len(outcome.final))]
    if outcome.cycle_length is not None:
        fields.append(str(outcome.cycle_length))
    print(" ".join(fields))
    return EXIT_BUDGET if outcome.kind is core.OutcomeKind.BUDGET_EXHAUSTED else EXIT_OK


def _cmd_verify_theorem(args) -> int:
    from taglab import certify, core

    all_reached = True
    for n in range(args.n_max + 1):
        cells = []
        for m in range(args.m_max + 1):
            outcome = certify.direct_growth_check(n, m, args.budget)
            if outcome.kind is core.OutcomeKind.TARGET_REACHED:
                cells.append(str(outcome.steps_taken))
            else:
                cells.append("-")
                all_reached = False
        print(f"n={n}: " + " ".join(cells))
    return EXIT_OK if all_reached else EXIT_BUDGET


def _perturbed_seed(args):
    """The paper's seed quadruplet with the --flip-a and --seed-x edits applied."""
    from taglab import certify

    seed = certify.seed_quadruplet()
    left = seed.left
    if args.flip_a is not None:
        if not 0 <= args.flip_a < len(left):
            raise ValueError(f"--flip-a index must be within 0..{len(left) - 1}")
        flipped = "1" if left[args.flip_a] == "0" else "0"
        left = left[: args.flip_a] + flipped + left[args.flip_a + 1:]
    offset = seed.offset if args.seed_x is None else args.seed_x
    return certify.Quadruplet(left, seed.mid, seed.right, offset)


def _cmd_verify_omega(args) -> int:
    from taglab import certify

    if args.check is not None:
        if (args.emit, args.flip_a, args.seed_x) != (None, None, None):
            raise ValueError("--check takes none of --emit, --flip-a and --seed-x")
        with open(args.check, encoding="ascii") as handle:
            text = handle.read()
        chain = certify.parse_certificate(text)
        problems = certify.certificate_problems(chain)
        if certify.render_certificate(chain) != text:
            problems.append("document: re-rendering does not reproduce the file")
    else:
        try:
            chain = certify.verify_chain(_perturbed_seed(args))
        except certify.InvariantViolated as exc:
            print(f"invariant: {exc}", file=sys.stderr)
            print("certificate FAILED")
            return EXIT_VERIFY
        _write(args.emit, certify.render_certificate(chain))
        problems = certify.certificate_problems(chain)
    for problem in problems:
        print(problem, file=sys.stderr)
    # stdout carries either the derived document or the verdict line
    if args.check is not None or args.emit is not None:
        print("certificate ok" if not problems else "certificate FAILED")
    return EXIT_VERIFY if problems else EXIT_OK


def _cmd_blockset(args) -> int:
    from taglab import blocks

    for member in blocks.converting_set(_read_word(args.word)):
        print(member)
    return EXIT_OK


def _cmd_block_search(args) -> int:
    from taglab import blocks

    result = blocks.search(args.max_rows, args.budget, args.threads, args.max_suffix)
    document = blocks.render_search_results(result, args.max_rows, args.budget, args.max_suffix)
    _write(args.out, document)
    return EXIT_OK


def _cmd_decode(args) -> int:
    from taglab import core

    word = _read_word(args.input)
    print(core.encode_tokens(word) if set(word) <= {"0", "1"} else core.decode_tokens(word))
    return EXIT_OK


ABOUT = """Command-line front door.

Subcommands: simulate, verify-theorem, verify-omega, blockset, block-search,
decode.  Word arguments may be given inline or as @path to read from a file.
Exit codes: 0 success, 1 input error, 2 budget exhausted, 3 verification
failed."""

# Each subcommand once: help line, handler, positionals as (name, converter, help) and long
# options as ("--flag METAVAR", converter, default, required, help), with argparse's names.
COMMANDS = {
    "simulate": ("run the tag system from a word", _cmd_simulate, [], [
        ("--word WORD", str, None, True, "binary word or @file"),
        ("--target TARGET", str, None, False, "stop when this word is reached"),
        ("--budget BUDGET", _positive, None, True, "maximum steps")]),
    "verify-theorem": ("grid of direct growth checks", _cmd_verify_theorem, [
        ("n_max", _non_negative, ""), ("m_max", _non_negative, ""), ("budget", _positive, "")], []),
    "verify-omega": ("derive and check the growth certificate", _cmd_verify_omega, [], [
        ("--emit PATH", str, None, False, "write the certificate document here"),
        ("--check PATH", str, None, False, "re-validate an existing document"),
        ("--seed-x {0,1,2}", _seed_offset, None, False, "override the seed cut offset"),
        ("--flip-a INDEX", int, None, False, "flip one symbol of the seed's left word")]),
    "blockset": ("list the converting set of a row word", _cmd_blockset, [("word", str, "")], []),
    # all initial blocks are built before the budget counts: 48/121/306 MB at 10/11/12 rows
    "block-search": ("search for qualifying building blocks", _cmd_block_search, [
        ("max_rows", _int_within(1, 12), ""), ("budget", _positive, ""), ("threads", _positive,
         "worker count, at least 1; accepted, but the search is single-threaded")], [
        ("--max-suffix MAX_SUFFIX", _positive, 4, False, ""),
        ("--out PATH", str, None, False, "write the result document here")]),
    "decode": ("convert between token and binary forms", _cmd_decode,
               [("input", str, "token word, or binary word to encode")], []),
}


def _leave(command, error: str = "") -> None:
    """Print the help and exit 0, or usage and ``error`` and exit EXIT_INPUT (not 2: budget)."""
    about, _, positionals, options = COMMANDS.get(command, (ABOUT, None, [], []))
    usage = " ".join(["usage: taglab", command or "{" + ",".join(COMMANDS) + "} ...", "[-h]",
                      *(o[0] if o[3] else f"[{o[0]}]" for o in options), *(p[0] for p in positionals)])
    rows = positionals + options or [(name, entry[0]) for name, entry in COMMANDS.items()]
    body = [f"taglab: error: {error}"] if error else ["", about.strip(), "", *(
        f"  {r[0]:<23} {r[-1]}".rstrip() for r in rows)]
    print(usage, *body, sep="\n", file=sys.stderr if error else sys.stdout)
    raise SystemExit(EXIT_INPUT if error else EXIT_OK)


def _is_flag(arg: str) -> bool:
    """argparse's rule: "-", words with a space and negative numbers (-12, -1.5, -.5) are values."""
    number = arg[1:].replace(".", "", 1).isdecimal() and arg[-1] != "."
    return arg[:1] == "-" and arg != "-" and " " not in arg and not number


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace ``tests/reference.py::reference_parser`` gives ``argv``, less its ``func``."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        _leave(None, "" if command in ("-h", "--help") else "choose a command")
    _, _, positionals, options = COMMANDS[command]
    flags = {s.split()[0]: (s.split()[0][2:].replace("-", "_"), *o) for s, *o in options}
    values = {"command": command} | {o[0]: o[2] for o in flags.values()}
    rest, pending, extras = argv[1:], list(positionals), []
    while rest:
        arg = rest.pop(0)
        flag, joined, value = arg.partition("=")
        if flag in ("-h", "--help"):
            _leave(command, joined and f"argument {flag}: ignored explicit argument {value!r}")
        if flag in flags:
            if not joined and (not rest or _is_flag(rest[0])):
                _leave(command, f"argument {flag}: expected one argument")
            (name, convert, *_), value = flags[flag], value if joined else rest.pop(0)
        elif _is_flag(arg) or not pending:
            extras.append(arg)
            continue
        else:
            (name, convert, _), value = pending.pop(0), arg
        try:
            values[name] = convert(value)
        except ValueError as exc:
            _leave(command, f"argument {name}: {exc}")
    missing = [p[0] for p in pending] + [f for f, o in flags.items() if o[3] and values[o[0]] is None]
    if missing or extras:
        _leave(command, f"the following arguments are required: {', '.join(missing)}" if missing
               else f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    """Run one command line, catching every input error here and only here.

    OSError or ValueError (a missing, unreadable or non-ASCII file, a word outside its
    alphabet) and MemoryError (an input too large) end as one ``error:`` line, EXIT_INPUT.
    """
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return COMMANDS[args.command][1](args)
    except BrokenPipeError:
        raise  # app() ends the process quietly
    except (OSError, ValueError, MemoryError) as exc:
        # a MemoryError usually has no message: name its type instead
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT


def app() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`taglab ... | head`): the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INPUT
    raise SystemExit(code)


if __name__ == "__main__":
    app()
