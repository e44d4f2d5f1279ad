"""Row language and guided construction of periodic-evolution scaffolds.

Rows are words from  {ε,v,vv}{0,1}{uu0,uu1}*{ε,w,ww}  over {v,u,w,0,1}.
Lowering a word means replacing some w symbols by u and some literal 0/1
symbols by v, u or w; the converting set of a word is every member of the
row language reachable that way.  Blocks (stacks of rows) are built by two
procedures: initial creation, which repeatedly lowers the production
expansion of the previous row, and right extension, which appends a suffix
to the first row and propagates the forced rewrites downward.  A block whose
first and last rows coincide and whose adjacent rows balance their w/v counts
is a candidate scaffold for a periodic tag evolution, which is what the
bounded search at the bottom of this module looks for.
"""

from __future__ import annotations

import functools
import re
from collections import deque
from dataclasses import dataclass
from typing import Optional

from taglab.core import DEFAULT_PRODUCTION

ALPHABET = frozenset("vuw01")

# canonical symbol order 0 < 1 < u < v < w, realized as a translation so that
# ordinary string comparison sorts canonically
_CANON = str.maketrans("01uvw", "abcde")

Block = tuple[str, ...]


class InvalidSeed(Exception):
    """The seed word is outside the initial-creation choice set."""


class NoExtension(Exception):
    """No suffix induces a forced (singleton) lowering of the first row."""


def check_block_word(word: str) -> str:
    if not ALPHABET.issuperset(word):
        bad = sorted(set(word) - ALPHABET)
        raise ValueError(f"not a row word, unexpected symbols {bad}")
    return word


def row_key(word: str) -> str:
    return word.translate(_CANON)


def block_key(rows: Block) -> tuple[str, ...]:
    return tuple(row.translate(_CANON) for row in rows)


# Deterministic recognizer for {ε,v,vv}{0,1}{uu0,uu1}*{ε,w,ww}: states are
# start, one v, two v, after a literal, one u, two u, one w, two w.
_START, _V1, _V2, _LIT, _U1, _U2, _W1, _W2 = range(8)
_ACCEPT = (_LIT, _W1, _W2)
_DFA = (
    {"v": _V1, "0": _LIT, "1": _LIT},
    {"v": _V2, "0": _LIT, "1": _LIT},
    {"0": _LIT, "1": _LIT},
    {"u": _U1, "w": _W1},
    {"u": _U2},
    {"0": _LIT, "1": _LIT},
    {"w": _W2},
    {},
)

# positionwise lowering choices: literals may become v, u or w; w may become
# u; v and u are immutable
_CHOICES = {"0": "0vuw", "1": "1vuw", "w": "wu", "v": "v", "u": "u"}

# _MOVES[symbol][state]: the (choice, next state) pairs the recognizer allows
_MOVES = {
    symbol: tuple(
        tuple((c, _DFA[state][c]) for c in choices if c in _DFA[state]) for state in range(8)
    )
    for symbol, choices in _CHOICES.items()
}


def is_row(word: str) -> bool:
    """Membership in the row language, by running the recognizer."""
    check_block_word(word)
    state = _START
    for symbol in word:
        state = _DFA[state].get(symbol)
        if state is None:
            return False
    return state in _ACCEPT


def _literals(word: str) -> int:
    return word.count("0") + word.count("1")


_EXPAND = str.maketrans({**dict.fromkeys("vuw"), **DEFAULT_PRODUCTION})


def expand_literals(word: str) -> str:
    """Drop v/u/w and apply the tag productions to the remaining literals."""
    check_block_word(word)
    return word.translate(_EXPAND)


def converting_set(word: str) -> list[str]:
    """All lowerings of ``word`` inside the row language, canonically sorted.

    Computed by intersecting the positionwise choice lattice with the
    recognizer: a backward pass marks which (position, state) pairs can still
    reach acceptance, then a forward walk emits exactly the surviving words.
    Results are memoised for the life of the process; each call returns a
    fresh list.
    """
    check_block_word(word)
    return list(_lowerings(word))


# Cached, like _candidates below: both are pure functions of their
# arguments, and the block census asks for each word about 29 times.
@functools.lru_cache(maxsize=None)
def _lowerings(word: str) -> tuple[str, ...]:
    n = len(word)
    viable = [None] * (n + 1)
    viable[n] = [state in _ACCEPT for state in range(8)]
    for i in range(n - 1, -1, -1):
        nxt = viable[i + 1]
        viable[i] = [any(nxt[t] for _, t in moves) for moves in _MOVES[word[i]]]
    if not viable[0][_START]:
        return ()
    out: list[str] = []
    acc: list[str] = []
    # depth-first, one iterator of untried moves per position on the path, so
    # the walk needs no recursion however long the word is
    stack = [iter(_MOVES[word[0]][_START])]
    while stack:
        depth = len(stack)
        nxt = viable[depth]
        for c, state in stack[-1]:
            if not nxt[state]:
                continue
            if depth == n:
                out.append("".join(acc) + c)
                continue
            acc.append(c)
            stack.append(iter(_MOVES[word[depth]][state]))
            break
        else:
            stack.pop()
            if acc:
                acc.pop()
    out.sort(key=row_key)
    return tuple(out)


_SEED = re.compile(r"v{0,2}[01]w{0,2}")

INITIAL_SEEDS = tuple(
    sorted(
        (p + lit + s for p in ("", "v", "vv") for lit in "01" for s in ("", "w", "ww")),
        key=row_key,
    )
)


def create_initial_blocks(seed: str, depth: int) -> set[Block]:
    """All blocks the initial-creation procedure can produce from ``seed``.

    Each level lowers the working word in every possible way; a branch dies
    when its chosen row has no literals left to expand.  After ``depth``
    levels one more lowering closes the block, so results have depth + 1
    rows.
    """
    check_block_word(seed)
    if not _SEED.fullmatch(seed):
        raise InvalidSeed(f"seed must match v{{0,2}}[01]w{{0,2}}, got {seed!r}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    results: set[Block] = set()

    def walk(level: int, working: str, rows: Block) -> None:
        if level > depth:
            for last in converting_set(working):
                results.add(rows + (last,))
            return
        for row in converting_set(working):
            if _literals(row) == 0:
                continue
            walk(level + 1, expand_literals(row), rows + (row,))

    walk(1, seed, ())
    return results


def _advance(counts: list[int], choices: str) -> list[int]:
    new = [0] * 8
    for state, k in enumerate(counts):
        if k:
            table = _DFA[state]
            for c in choices:
                target = table.get(c)
                if target is not None:
                    new[target] += k
    return new


def extension_candidates(row: str, max_suffix: int = 6) -> list[str]:
    """Suffixes whose append leaves exactly one lowering, one literal richer.

    A suffix qualifies when the converting set of row + suffix is a singleton
    whose literal count exceeds the original row's by exactly one.  The walk
    tracks how many lowerings reach each recognizer state, so whole suffix
    subtrees with no surviving lowering are skipped.  Results are memoised
    for the life of the process; each call returns a fresh list.
    """
    if not is_row(row):
        raise ValueError(f"not a member of the row language: {row!r}")
    if max_suffix < 1:
        raise ValueError("max_suffix must be at least 1")
    return list(_candidates(row, max_suffix))


@functools.lru_cache(maxsize=None)
def _candidates(row: str, max_suffix: int) -> tuple[str, ...]:
    counts = [0] * 8
    counts[_START] = 1
    for symbol in row:
        counts = _advance(counts, _CHOICES[symbol])
    base = _literals(row)
    found: list[str] = []

    def walk(counts: list[int], suffix: str) -> None:
        if suffix:
            if sum(counts[s] for s in _ACCEPT) == 1:
                (only,) = converting_set(row + suffix)
                if _literals(only) - base == 1:
                    found.append(suffix)
        if len(suffix) == max_suffix:
            return
        for symbol in "01uvw":
            advanced = _advance(counts, _CHOICES[symbol])
            if any(advanced):
                walk(advanced, suffix + symbol)

    walk(counts, "")
    found.sort(key=row_key)
    return tuple(found)


def validate_block(rows: Block) -> Block:
    if not rows:
        raise ValueError("a block needs at least one row")
    for row in rows:
        if not is_row(row):
            raise ValueError(f"block row is not in the row language: {row!r}")
    return rows


def extend_right(rows: Block, max_suffix: int = 6) -> set[Block]:
    """Every block the right-extension procedure can rewrite ``rows`` into.

    For each qualifying first-row suffix the procedure walks down the block:
    append the carried suffix, lower the combination every possible way, and
    either stop (no appended literal survived the lowering) or carry the
    expansion of the surviving literals to the next row.  The final row is
    never rewritten.  Branches whose combination admits no lowering die.
    """
    validate_block(rows)
    candidates = extension_candidates(rows[0], max_suffix)
    if not candidates:
        raise NoExtension(
            f"no suffix of length <= {max_suffix} forces a singleton lowering of {rows[0]!r}"
        )
    last = len(rows) - 1
    results: set[Block] = set()

    def walk(i: int, carried: str, acc: Block) -> None:
        if i == last:
            results.add(acc + (rows[last],))
            return
        combined = rows[i] + carried
        offset = len(rows[i])
        for lowered in converting_set(combined):
            survivors = "".join(
                lowered[p]
                for p in range(offset, len(combined))
                if combined[p] in "01" and lowered[p] == combined[p]
            )
            if not survivors:
                results.add(acc + (lowered,) + rows[i + 1:])
            else:
                walk(i + 1, expand_literals(survivors), acc + (lowered,))

    for suffix in candidates:
        walk(0, suffix, ())
    return results


@dataclass(frozen=True)
class Provenance:
    """How a block came to be: its creation seed and extension count."""

    seed: Optional[str]
    extensions: int = 0


@dataclass(frozen=True)
class ConditionReport:
    """The four acceptance conditions for periodic-evolution candidates."""

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool

    @property
    def qualifies(self) -> bool:
        return self.cond_ii and self.cond_iii and self.cond_iv

    def items(self):
        return [
            ("cond_i", self.cond_i),
            ("cond_ii", self.cond_ii),
            ("cond_iii", self.cond_iii),
            ("cond_iv", self.cond_iv),
        ]


def check_conditions(rows: Block, provenance: Optional[Provenance] = None) -> ConditionReport:
    """Evaluate the four conditions; creation provenance may count zero extensions."""
    validate_block(rows)
    return ConditionReport(
        cond_i=provenance is not None and provenance.seed is not None,
        cond_ii=rows[0] == rows[-1],
        cond_iii=all(
            rows[i].count("w") + rows[i + 1].count("v") == 2
            for i in range(len(rows) - 1)
        ),
        cond_iv=any(rows[i].count("v") == 0 for i in range(len(rows) - 1)),
    )


@dataclass(frozen=True)
class SearchHit:
    rows: Block
    provenance: Provenance
    report: ConditionReport


@dataclass(frozen=True)
class SearchResult:
    hits: tuple[SearchHit, ...]
    examined: int
    skipped_duplicates: int
    exhausted: bool


def _closure_dead(rows: Block) -> bool:
    # Extensions strictly lengthen the first row and never rewrite the last,
    # so once the first row has caught up with the last and differs, no
    # descendant can ever satisfy rows[0] == rows[-1] again.
    first, last = rows[0], rows[-1]
    if len(first) > len(last):
        return True
    return len(first) == len(last) and first != last


def search(
    max_rows: int,
    budget: int,
    threads: int = 1,
    max_suffix: int = 4,
) -> SearchResult:
    """Breadth-first hunt for blocks meeting the closure and count conditions.

    Seeds every possible initial block of up to ``max_rows`` rows, then
    repeatedly right-extends.  The budget caps how many blocks are examined;
    duplicates and provably closure-dead blocks are dropped when generated
    and never consume budget.  Results are canonically ordered.

    ``threads`` must be at least 1 but selects nothing: the search runs in
    the calling thread, because the examinations are pure Python and a
    thread pool measured no faster than serial under the interpreter lock.
    """
    if max_rows < 1:
        raise ValueError("max_rows must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    frontier: deque[tuple[Block, Provenance]] = deque()
    seen: set[Block] = set()
    duplicates = 0
    for seed in INITIAL_SEEDS:
        for depth in range(1, max_rows):
            for rows in sorted(create_initial_blocks(seed, depth), key=block_key):
                if rows in seen:
                    duplicates += 1
                    continue
                seen.add(rows)
                if not _closure_dead(rows):
                    frontier.append((rows, Provenance(seed, 0)))
    hits: dict[Block, SearchHit] = {}
    examined = 0
    while frontier and examined < budget:
        rows, provenance = frontier.popleft()
        examined += 1
        report = check_conditions(rows, provenance)
        if report.qualifies and rows not in hits:
            hits[rows] = SearchHit(rows, provenance, report)
        try:
            children = extend_right(rows, max_suffix)
        except NoExtension:
            children = set()
        child_provenance = Provenance(provenance.seed, provenance.extensions + 1)
        for child in sorted(children, key=block_key):
            if child in seen:
                duplicates += 1
                continue
            seen.add(child)
            if not _closure_dead(child):
                frontier.append((child, child_provenance))
    ordered = tuple(sorted(hits.values(), key=lambda hit: block_key(hit.rows)))
    return SearchResult(ordered, examined, duplicates, exhausted=not frontier)


def render_search_results(
    result: SearchResult, max_rows: int, budget: int, max_suffix: int
) -> str:
    """Serialize search output as a line-oriented document, one row per line."""
    lines = [
        "version: 1",
        f"max_rows: {max_rows}",
        f"budget: {budget}",
        f"max_suffix: {max_suffix}",
        f"examined: {result.examined}",
        f"exhausted: {'true' if result.exhausted else 'false'}",
        f"found: {len(result.hits)}",
    ]
    for j, hit in enumerate(result.hits, start=1):
        lines.append(f"block.{j}.seed: {hit.provenance.seed or '-'}")
        lines.append(f"block.{j}.extensions: {hit.provenance.extensions}")
        for name, value in hit.report.items():
            lines.append(f"block.{j}.{name}: {'true' if value else 'false'}")
        lines.append(f"block.{j}.rows: {len(hit.rows)}")
        lines.extend(hit.rows)
    return "\n".join(lines) + "\n"
