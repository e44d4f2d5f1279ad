"""Run one taglab CLI command as the ``taglab`` console script does
(``taglab.cli.main``), then report the process's own peak resident memory.

Usage: python3 perfbench/cli_child.py <report> <trace 0|1> <taglab arguments...>

Stdout, stderr and the exit code are the CLI's own.  The report file's first
line is the peak resident set in MB (``VmHWM``: the peak of this process
image only; ``ru_maxrss`` would also count the parent's memory inherited at
spawn).  With trace 1 the tracer is installed around the same call, and the
second line is its summary as JSON; ``json`` is imported only then, so an
untraced process loads nothing the CLI does not.
"""

import sys


def own_peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    report, trace, args = argv[0], argv[1] == "1", argv[2:]
    from taglab import cli
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    finally:
        if tracer is not None:
            tracer.uninstall()
    with open(report, "w", encoding="ascii") as out:
        out.write(repr(own_peak_rss_mb()) + "\n")
        if tracer is not None:
            import json
            json.dump(tracer.summary(), out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
