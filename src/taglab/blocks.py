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
import itertools
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


_ROW = re.compile(r"v{0,2}[01](uu[01])*w{0,2}")


def is_row(word: str) -> bool:
    """Membership in the row language."""
    check_block_word(word)
    return _ROW.fullmatch(word) is not None


def _literals(word: str) -> int:
    return word.count("0") + word.count("1")


_EXPAND = str.maketrans({**dict.fromkeys("vuw"), **DEFAULT_PRODUCTION})


def expand_literals(word: str) -> str:
    """Drop v/u/w and apply the tag productions to the remaining literals."""
    check_block_word(word)
    return word.translate(_EXPAND)


def converting_set(word: str) -> list[str]:
    """All lowerings of ``word`` inside the row language, canonically sorted.

    A row is v^p L (uu L)* w^q with p, q <= 2 and L a literal, so each shape
    (p, q) whose middle has length 1 mod 3 admits at most one lowering: the
    first p symbols become v, every third middle symbol stays a literal, the
    symbols between become u, and the last q symbols become w.  At most three
    shapes fit the length, so the set has at most three members.  Results
    are memoised for the life of the process; each call returns a fresh list.
    """
    check_block_word(word)
    return list(_lowerings(word))


# Cached, like _candidates below: both are pure functions of their
# arguments, and the block census asks for each word about 29 times.
@functools.lru_cache(maxsize=None)
def _lowerings(word: str) -> tuple[str, ...]:
    n = len(word)
    out: list[str] = []
    for p in range(3):
        head = word[:p]
        if "u" in head or "w" in head:
            break
        for q in range(3):
            if n - p - q < 1 or (n - p - q) % 3 != 1:
                continue
            core, tail = word[p:n - q], word[n - q:]
            literals = core[::3]
            if "v" in core or "u" in literals or "w" in literals or "u" in tail or "v" in tail:
                continue
            out.append("v" * p + "uu".join(literals) + "w" * q)
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


def extension_candidates(row: str, max_suffix: int) -> list[str]:
    """Suffixes whose append leaves exactly one lowering, one literal richer.

    A suffix qualifies when the converting set of row + suffix is a singleton
    whose literal count exceeds the original row's by exactly one.  Suffixes
    are tried in full up to the longest length that can qualify.  Results
    are memoised for the life of the process; each call returns a fresh list.
    """
    if not is_row(row):
        raise ValueError(f"not a member of the row language: {row!r}")
    if max_suffix < 1:
        raise ValueError("max_suffix must be at least 1")
    return list(_candidates(row, max_suffix))


@functools.lru_cache(maxsize=None)
def _candidates(row: str, max_suffix: int) -> tuple[str, ...]:
    # A lowering of shape (p, q) keeps (len - p - q + 2) / 3 literals, so one
    # literal more than the row, whose shape is (a, b), needs a suffix of
    # exactly 3 + p + q - a - b <= 7 - a - b symbols.
    a = len(row) - len(row.lstrip("v"))
    b = len(row) - len(row.rstrip("w"))
    base = _literals(row)
    # uncached, so the cache keeps only the words the search itself asks about
    lowerings = _lowerings.__wrapped__
    found: list[str] = []
    for length in range(1, min(max_suffix, 7 - a - b) + 1):
        for suffix in map("".join, itertools.product("01uvw", repeat=length)):
            members = lowerings(row + suffix)
            if len(members) == 1 and _literals(members[0]) == base + 1:
                found.append(suffix)
    found.sort(key=row_key)
    return tuple(found)


def validate_block(rows: Block) -> Block:
    if not rows:
        raise ValueError("a block needs at least one row")
    for row in rows:
        if not is_row(row):
            raise ValueError(f"block row is not in the row language: {row!r}")
    return rows


def extend_right(rows: Block, max_suffix: int) -> set[Block]:
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
