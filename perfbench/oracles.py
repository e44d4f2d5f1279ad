"""Expected answers for every workload, computed without importing taglab.

Each oracle either recomputes a result from first principles (a plain-string
tag stepper with a hash trace, brute-force enumeration of lowerings, the
chain's closed-form step prediction) or compares against a digest recorded at
the commit where this benchmark was defined.  Nothing here calls into the
code under test, so a defect in taglab cannot hide in its own oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import re

# ---------------------------------------------------------------- growth

# (len(left), len(mid), len(right), offset) of the 13 source quadruplets of
# the certification chain of A^n B C^m.  Stage i of a run over
# A^n B C^m costs ceil(len(instantiated word) / 3) tag steps.
CHAIN_STAGE_LENGTHS = (
    (18, 2402, 54, 0), (18, 2410, 54, 1), (18, 2440, 54, 0), (18, 2404, 54, 2),
    (18, 2356, 54, 1), (18, 2372, 54, 0), (18, 2398, 54, 1), (18, 2420, 54, 0),
    (18, 2414, 54, 1), (18, 2420, 54, 2), (18, 2424, 54, 0), (18, 2432, 54, 0),
    (18, 2440, 54, 1),
)
LEN_A, LEN_B, LEN_C = 18, 2402, 54

# sha256 of the rendered certificate of the 13-step chain from the seed
# quadruplet (``verify-omega --emit`` writes the same document).
CERTIFICATE_SHA256 = "313984f77be6091cbb917edbcbf69f5f9750937ab3b6dc96f40e7983ad48c66e"

GROWTH_GRID = 10  # cells (n, m) with 0 <= n, m < GROWTH_GRID
GROWTH_TOTAL_STEPS = 1_184_800  # sum of growth_steps over the grid


def growth_steps(n: int, m: int) -> int:
    """Tag steps from A^n B C^m to A^(n+1) B C^(m+1), by the chain prediction."""
    return sum(-(-(n * a + b + m * c - x) // 3) for a, b, c, x in CHAIN_STAGE_LENGTHS)


def growth_final_length(n: int, m: int) -> int:
    return (n + 1) * LEN_A + LEN_B + (m + 1) * LEN_C


def expected_growth(cells) -> list:
    """Observations of the growth list: the chain, then one entry per cell.

    The chain records (validity, digest of its rendered certificate).  A cell
    records (outcome, steps, final length, taglab's own chain prediction
    ``total_pass_iterations``); the simulation and the prediction must both
    equal the closed-form count above.
    """
    return [["chain", True, CERTIFICATE_SHA256]] + [
        ["TargetReached", growth_steps(n, m), growth_final_length(n, m), growth_steps(n, m)]
        for n, m in cells
    ]


# ---------------------------------------------------------------- orbits

ORBIT_BUDGET = 20_000


def _tag_step(word: str) -> str:
    return word[3:] + ("1101" if word[0] == "1" else "00")


def expected_orbits(words) -> list:
    return [list(reference_orbit(word)) for word in words]


def reference_orbit(word: str, budget: int = ORBIT_BUDGET):
    """(kind, steps, final word, cycle length) as taglab's ``run`` reports it.

    Every configuration is remembered until one repeats (a hash trace), which
    gives the preperiod ``mu`` and period ``lam`` directly.  ``run`` races the
    live word against snapshots taken at steps 2^k - 1, so it notices the
    cycle at step s + lam for the first snapshot step s >= mu whose window
    2^k is at least lam; that detection step is reconstructed here.
    """
    trace = [word]
    seen = {word: 0}
    while True:
        steps = len(trace) - 1
        if len(word) < 3:
            return ("Halted", steps, word, None)
        if steps == budget:
            return ("BudgetExhausted", steps, word, None)
        word = _tag_step(word)
        if word in seen:
            mu = seen[word]
            lam = len(trace) - mu
            break
        seen[word] = len(trace)
        trace.append(word)
    window = 1
    while window - 1 < mu or window < lam:
        window *= 2
    detected = window - 1 + lam

    def at(t: int) -> str:
        return trace[t] if t < len(trace) else trace[mu + (t - mu) % lam]

    if detected <= budget:
        return ("Cycled", detected, at(detected), lam)
    return ("BudgetExhausted", budget, at(budget), None)


# ---------------------------------------------------------------- census

CENSUS_ARGS = (4, 2000, 1, 3)  # max_rows, budget, threads, max_suffix
CENSUS_DOCUMENT_SHA256 = "c73f544ae8ffe965cbeaa36f9af725540fb5df65c304f5bfea5aa0a9396a8ae3"
CENSUS_COUNTS = {"examined": 738, "duplicates": 1149, "found": 2}


def expected_census() -> list:
    """One observation: (document digest, examined, duplicates, found)."""
    return [[CENSUS_DOCUMENT_SHA256, CENSUS_COUNTS["examined"],
             CENSUS_COUNTS["duplicates"], CENSUS_COUNTS["found"]]]


# ---------------------------------------------------------------- cli

SMALL_SEARCH_ARGS = ("3", "50", "1", "--max-suffix", "3")
SMALL_SEARCH_SHA256 = "589bd50dcf09cc02b3b384c9327c06b25ad18809c58b50e8cbe9223c978e1c5b"
SMALL_THEOREM = (2, 2)

_ROW = re.compile(r"(?:|v|vv)[01](?:uu[01])*(?:|w|ww)")
_LOWERINGS = {"0": "0vuw", "1": "1vuw", "w": "wu", "v": "v", "u": "u"}
_CANON = str.maketrans("01uvw", "abcde")


def brute_converting_set(word: str) -> list[str]:
    """Every lowering of ``word`` that is a row, in canonical order."""
    found = {
        "".join(choice)
        for choice in itertools.product(*(_LOWERINGS[s] for s in word))
        if _ROW.fullmatch("".join(choice))
    }
    return sorted(found, key=lambda w: w.translate(_CANON))


def decode_tokens(tokens: str) -> str:
    return "".join({"Z": "00", "O": "1101"}[t] for t in tokens)


def theorem_stdout(n_max: int, m_max: int) -> str:
    return "".join(
        f"n={n}: " + " ".join(str(growth_steps(n, m)) for m in range(m_max + 1)) + "\n"
        for n in range(n_max + 1)
    )


def expected_cli(row: str, tokens: str) -> dict:
    """(exit code, stdout digest, emitted-file digest or None) per subcommand."""
    ok, failed = sha256("certificate ok\n"), sha256("certificate FAILED\n")
    return {
        "simulate": [0, sha256(f"TargetReached {growth_steps(0, 0)} "
                               f"{LEN_A + LEN_B + LEN_C}\n"), None],
        "verify_omega_emit": [0, ok, CERTIFICATE_SHA256],
        "verify_omega_check": [0, ok, None],
        "verify_omega_flip_a": [3, failed, None],
        "verify_omega_seed_x": [3, failed, None],
        "blockset": [0, sha256("".join(m + "\n" for m in brute_converting_set(row))), None],
        "decode": [0, sha256(decode_tokens(tokens) + "\n"), None],
        "verify_theorem": [0, sha256(theorem_stdout(*SMALL_THEOREM)), None],
        "block_search": [0, SMALL_SEARCH_SHA256, None],
    }


def cli_steps() -> int:
    """Tag steps one pass of the cli list performs (simulate + verify-theorem)."""
    n_max, m_max = SMALL_THEOREM
    return growth_steps(0, 0) + sum(
        growth_steps(n, m) for n in range(n_max + 1) for m in range(m_max + 1))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()
