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

import functools
import itertools
from collections import deque, namedtuple

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


def is_row(word: str) -> bool:
    """Membership in the row language: a row is a word in its own converting set."""
    check_block_word(word)
    return word in _lowerings(word)


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
    shapes fit the length, so the set has at most three members.  Nothing is
    cached: each call computes a fresh list.
    """
    check_block_word(word)
    return _lowerings(word)


def _lowerings(word: str) -> list[str]:
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
    return out


INITIAL_SEEDS = tuple(
    sorted(
        (p + lit + s for p in ("", "v", "vv") for lit in "01" for s in ("", "w", "ww")),
        key=row_key,
    )
)


def create_initial_blocks(seed: str, depth: int) -> set[Block]:
    """All blocks the initial-creation procedure can produce from ``seed``.

    Each level lowers the working word in every possible way and expands the
    chosen row into the next working word; a branch dies when its working
    word has no lowering.  After ``depth`` levels one more lowering closes
    the block, so results have depth + 1 rows.
    """
    check_block_word(seed)
    if seed not in INITIAL_SEEDS:
        raise InvalidSeed(f"seed must match v{{0,2}}[01]w{{0,2}}, got {seed!r}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return _initial_levels(seed, depth, _step)[-1]


def _initial_levels(seed: str, depth: int, step) -> list[set[Block]]:
    # Level by level: entry k - 1 holds the blocks of depth k, the rows of
    # the partial blocks after k + 1 lowerings.  Lowering a working word is
    # the step from the empty row, which pairs each lowering with its
    # expansion, the next working word.  Every row of the language has a
    # literal, so that word is never empty.
    levels: list[set[Block]] = []
    partial: list[tuple[Block, str]] = [((), seed)]
    for _ in range(depth + 1):
        partial = [
            (rows + (row,), following)
            for rows, working in partial
            for row, following in step("", working)
        ]
        levels.append({rows for rows, _ in partial})
    return levels[1:]


def extension_candidates(row: str, max_suffix: int) -> list[str]:
    """Suffixes whose append leaves exactly one lowering, one literal richer.

    A suffix qualifies when the converting set of row + suffix is a singleton
    whose literal count exceeds the original row's by exactly one.  No suffix
    is lowered: for each length up to the longest that can qualify, the
    suffixes that fit a shape one literal richer form a product of
    per-position symbol sets, and those that also fit another shape are
    left out.  Nothing is cached: each call computes a fresh list.
    """
    if not is_row(row):
        raise ValueError(f"not a member of the row language: {row!r}")
    if max_suffix < 1:
        raise ValueError("max_suffix must be at least 1")
    return _candidates(row, max_suffix)


def _candidates(row: str, max_suffix: int) -> list[str]:
    # A lowering of shape (p, q) keeps (len - p - q + 2) / 3 literals, so one
    # literal more than the row, whose shape is (a, b), needs a suffix of
    # exactly 3 + p + q - a - b <= 7 - a - b symbols.  Two shapes never lower
    # a word alike (a lowering of shape (p, q) opens with exactly p v and
    # closes with exactly q w), so the converting set is a singleton exactly
    # when one shape fits.  The suffixes of one length that fit a shape,
    # given that the row does, are the product of their positions' allowed
    # sets, and the candidates are, for each shape one literal richer, that
    # product less the products of the other shapes that fit the row.
    a = len(row) - len(row.lstrip("v"))
    b = len(row) - len(row.rstrip("w"))
    found: list[str] = []
    for length in range(1, min(max_suffix, 7 - a - b) + 1):
        n = len(row) + length
        fitting = {}
        for p, q in itertools.product(range(3), repeat=2):
            if n - p - q >= 1 and (n - p - q) % 3 == 1:
                # what each position may hold: the head lowers to v, every
                # third middle symbol stays a literal, the middle symbols
                # between lower to u, and the tail lowers to w
                allowed = [
                    "01v" if i < p else "01w" if i >= n - q else "01" if (i - p) % 3 == 0 else "01uw"
                    for i in range(n)
                ]
                if all(map(str.__contains__, allowed, row)):
                    fitting[p, q] = allowed[len(row):]
        for (p, q), sets in fitting.items():
            if p + q == length + a + b - 3:
                others = [other for shape, other in fitting.items() if shape != (p, q)]
                found.extend(_outside(sets, others))
    found.sort(key=row_key)
    return found


def _outside(sets: list[str], others: list[list[str]]) -> list[str]:
    # The words of the product of sets that lie in none of the products of
    # others, in canonical order: fix the first symbol, keep the products
    # that admit it, and go on with the rest.
    if not others:
        return list(map("".join, itertools.product(*sets)))
    if not sets:  # the word so far lies in every product left in others
        return []
    rest = sets[1:]
    return [
        symbol + tail
        for symbol in sets[0]
        for tail in _outside(rest, [other[1:] for other in others if symbol in other[0]])
    ]


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
    if max_suffix < 1:
        raise ValueError("max_suffix must be at least 1")
    return _extend(rows, max_suffix, _opening, _step)


def _extend(rows: Block, max_suffix: int, opening, step) -> set[Block]:
    # Many suffixes lower the first row alike, so the walk starts from the
    # distinct (lowered, carried) pairs its candidates open with.
    opened = opening(rows[0], max_suffix)
    if not opened:
        raise NoExtension(
            f"no suffix of length <= {max_suffix} forces a singleton lowering of {rows[0]!r}"
        )
    last = len(rows) - 1
    if last == 0:
        return {rows}
    results: set[Block] = set()
    # Row by row over the distinct branches, each the rows rewritten so far
    # and the suffix carried into the next: branches that agree have the
    # same continuation, so it is walked once.  A branch ends when nothing
    # is carried or it reaches the last row, which is never rewritten.
    branches = {((lowered,), carried) for lowered, carried in opened}
    for i in range(1, last + 1):
        deeper: set[tuple[Block, str]] = set()
        for acc, carried in branches:
            if not carried or i == last:
                results.add(acc + rows[i:])
            else:
                for lowered, following in step(rows[i], carried):
                    deeper.add((acc + (lowered,), following))
        branches = deeper
    return results


def _opening(row: str, max_suffix: int) -> set[tuple[str, str]]:
    # The distinct (lowered, carried) pairs that the candidates of a first
    # row open with under a suffix bound.
    return {pair for suffix in _candidates(row, max_suffix) for pair in _step(row, suffix)}


def _step(row: str, carried: str) -> tuple[tuple[str, str], ...]:
    # Each lowering of row + carried, with what it carries to the next row.
    # A lowering keeps a literal only where the word had that same literal,
    # so the literals of its appended part are exactly the survivors, and
    # translating that part expands them ("" when none survived).
    offset = len(row)
    return tuple(
        (lowered, lowered[offset:].translate(_EXPAND)) for lowered in _lowerings(row + carried)
    )


class Provenance(namedtuple("Provenance", "seed extensions", defaults=(0,))):
    """How a block came to be: its creation seed (or None) and extension count."""

    __slots__ = ()


class ConditionReport(namedtuple("ConditionReport", "cond_i cond_ii cond_iii cond_iv")):
    """The four acceptance conditions for periodic-evolution candidates."""

    __slots__ = ()

    @property
    def qualifies(self) -> bool:
        return self.cond_ii and self.cond_iii and self.cond_iv


def check_conditions(rows: Block, provenance: Provenance | None = None) -> ConditionReport:
    """Evaluate the four conditions; creation provenance may count zero extensions."""
    return _conditions(validate_block(rows), provenance)


def _conditions(rows: Block, provenance: Provenance | None) -> ConditionReport:
    # For blocks already known to be valid, such as those ``search`` builds.
    return ConditionReport(
        cond_i=provenance is not None and provenance.seed is not None,
        cond_ii=rows[0] == rows[-1],
        cond_iii=all(
            rows[i].count("w") + rows[i + 1].count("v") == 2
            for i in range(len(rows) - 1)
        ),
        cond_iv=any(rows[i].count("v") == 0 for i in range(len(rows) - 1)),
    )


SearchHit = namedtuple("SearchHit", "rows provenance report")
SearchResult = namedtuple("SearchResult", "hits examined skipped_duplicates exhausted")


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

    The search wraps two functions in ``functools.cache``, shared by all its
    blocks and dropped when it returns: the distinct openings of each first
    row, and the steps of the walks, which initial creation shares.  The
    same (row, carried suffix) step recurs across many blocks, so most steps
    are looked up rather than computed.  Initial blocks and extensions are
    admitted alike, and a block offered again counts as a skipped duplicate.

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
    if max_suffix < 1:
        raise ValueError("max_suffix must be at least 1")
    opening = functools.cache(_opening)
    step = functools.cache(_step)
    frontier: deque[tuple[Block, Provenance]] = deque()
    seen: set[Block] = set()
    offered = 0

    def admit(blocks: set[Block], provenance: Provenance) -> None:
        nonlocal offered
        offered += len(blocks)
        for rows in sorted(blocks, key=block_key):
            if rows not in seen:
                seen.add(rows)
                if not _closure_dead(rows):
                    frontier.append((rows, provenance))

    for seed in INITIAL_SEEDS:
        for level in _initial_levels(seed, max_rows - 1, step):
            admit(level, Provenance(seed, 0))
    # no block enters the frontier twice, so no block is a hit twice
    hits: list[SearchHit] = []
    examined = 0
    while frontier and examined < budget:
        rows, provenance = frontier.popleft()
        examined += 1
        report = _conditions(rows, provenance)
        if report.qualifies:
            hits.append(SearchHit(rows, provenance, report))
        try:
            children = _extend(rows, max_suffix, opening, step)
        except NoExtension:
            continue
        admit(children, Provenance(provenance.seed, provenance.extensions + 1))
    ordered = tuple(sorted(hits, key=lambda hit: block_key(hit.rows)))
    return SearchResult(ordered, examined, offered - len(seen), exhausted=not frontier)


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
        for name, value in zip(ConditionReport._fields, hit.report):
            lines.append(f"block.{j}.{name}: {'true' if value else 'false'}")
        lines.append(f"block.{j}.rows: {len(hit.rows)}")
        lines.extend(hit.rows)
    return "\n".join(lines) + "\n"
