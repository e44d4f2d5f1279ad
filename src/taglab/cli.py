"""Command-line front door.

Subcommands: simulate, verify-theorem, verify-omega, blockset, block-search,
decode.  Word arguments may be given inline or as @path to read from a file.
Exit codes: 0 success, 1 input error, 2 budget exhausted, 3 verification
failed.
"""

from __future__ import annotations

import argparse
import sys

# Each subcommand imports the taglab modules it uses when it runs, so a
# process loads only those; importing this module loads none of them.

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the budget
    # exit code; route every usage problem to the input-error code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _read_word(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], encoding="ascii") as handle:
            return "".join(handle.read().split())
    return arg


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _cmd_simulate(args) -> int:
    from taglab import core

    try:
        word = core.check_word(_read_word(args.word))
        target = core.check_word(_read_word(args.target)) if args.target else None
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
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

    # stdout carries either the derived document or the verdict line
    document_on_stdout = False
    if args.check is not None:
        if (args.emit, args.flip_a, args.seed_x) != (None, None, None):
            return _fail("--check takes none of --emit, --flip-a and --seed-x")
        try:
            with open(args.check, encoding="ascii") as handle:
                text = handle.read()
            chain = certify.parse_certificate(text)
        except (OSError, ValueError) as exc:
            return _fail(str(exc))
        problems = certify.certificate_problems(chain)
        if certify.render_certificate(chain) != text:
            problems.append("document: re-rendering does not reproduce the file")
    else:
        try:
            chain = certify.verify_chain(_perturbed_seed(args))
        except ValueError as exc:
            return _fail(str(exc))
        except certify.InvariantViolated as exc:
            problems = [f"invariant: {exc}"]
        else:
            document = certify.render_certificate(chain)
            if args.emit is None:
                sys.stdout.write(document)
                document_on_stdout = True
            else:
                try:
                    with open(args.emit, "w", encoding="ascii") as handle:
                        handle.write(document)
                except OSError as exc:
                    return _fail(str(exc))
            problems = certify.certificate_problems(chain)
    for problem in problems:
        print(problem, file=sys.stderr)
    if not document_on_stdout:
        print("certificate ok" if not problems else "certificate FAILED")
    return EXIT_VERIFY if problems else EXIT_OK


def _cmd_blockset(args) -> int:
    from taglab import blocks

    try:
        members = blocks.converting_set(_read_word(args.word))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    for member in members:
        print(member)
    return EXIT_OK


def _cmd_block_search(args) -> int:
    from taglab import blocks

    result = blocks.search(args.max_rows, args.budget, args.threads, args.max_suffix)
    document = blocks.render_search_results(result, args.max_rows, args.budget, args.max_suffix)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="ascii") as handle:
                handle.write(document)
        except OSError as exc:
            return _fail(str(exc))
    else:
        sys.stdout.write(document)
    return EXIT_OK


def _cmd_decode(args) -> int:
    from taglab import core

    try:
        word = _read_word(args.input)
        if set(word) <= {"0", "1"}:
            print(core.encode_tokens(word))
        else:
            print(core.decode_tokens(word))
    except (OSError, ValueError, core.NotTokenizable) as exc:
        return _fail(str(exc))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="taglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the tag system from a word")
    p.add_argument("--word", required=True, help="binary word or @file")
    p.add_argument("--target", help="stop when this word is reached")
    p.add_argument("--budget", type=_positive, required=True, help="maximum steps")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-theorem", help="grid of direct growth checks")
    p.add_argument("n_max", type=_non_negative)
    p.add_argument("m_max", type=_non_negative)
    p.add_argument("budget", type=_positive)
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("verify-omega", help="derive and check the growth certificate")
    p.add_argument("--emit", metavar="PATH", help="write the certificate document here")
    p.add_argument("--check", metavar="PATH", help="re-validate an existing document")
    p.add_argument("--seed-x", type=int, choices=(0, 1, 2), help="override the seed cut offset")
    p.add_argument("--flip-a", type=int, metavar="INDEX",
                   help="flip one symbol of the seed's left word")
    p.set_defaults(func=_cmd_verify_omega)

    p = sub.add_parser("blockset", help="list the converting set of a row word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_blockset)

    p = sub.add_parser("block-search", help="search for qualifying building blocks")
    p.add_argument("max_rows", type=_positive)
    p.add_argument("budget", type=_positive)
    p.add_argument("threads", type=_positive,
                   help="worker count, at least 1; accepted, but the search is single-threaded")
    p.add_argument("--max-suffix", type=_positive, default=4)
    p.add_argument("--out", metavar="PATH", help="write the result document here")
    p.set_defaults(func=_cmd_block_search)

    p = sub.add_parser("decode", help="convert between token and binary forms")
    p.add_argument("input", help="token word, or binary word to encode")
    p.set_defaults(func=_cmd_decode)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
