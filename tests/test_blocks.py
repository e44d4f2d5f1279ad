"""Row language, converting sets, block construction, and the bounded search."""

import functools
import gc
import hashlib
import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from taglab.blocks import (
    ALPHABET,
    INITIAL_SEEDS,
    InvalidSeed,
    NoExtension,
    Provenance,
    SearchHit,
    SearchResult,
    check_conditions,
    converting_set,
    create_initial_blocks,
    expand_literals,
    extend_right,
    extension_candidates,
    is_row,
    render_search_results,
    row_key,
    search,
)
from taglab.blocks import _extend, _initial_levels, _opening, _step

from pins import CENSUSES
from reference import RAISES, reference_candidates

ROW_LANGUAGE = re.compile(r"v{0,2}[01](uu[01])*w{0,2}")
CHOICES = {"0": "0vuw", "1": "1vuw", "w": "wu", "v": "v", "u": "u"}

block_words = st.text(alphabet="vuw01", max_size=9)


@st.composite
def language_rows(draw, max_literals):
    literals = draw(st.lists(st.sampled_from("01"), min_size=1, max_size=max_literals))
    return "v" * draw(st.integers(0, 2)) + "uu".join(literals) + "w" * draw(st.integers(0, 2))


@st.composite
def raised_rows(draw):
    """A row of up to 62 symbols and a word that lowers to it."""
    row = draw(language_rows(20))
    return row, "".join(draw(st.sampled_from(RAISES[symbol])) for symbol in row)


long_block_words = st.one_of(
    st.text(alphabet="vuw01", max_size=62), raised_rows().map(lambda case: case[1])
)


def brute_converting_set(word):
    """Oracle: enumerate every positionwise replacement, keep language members."""
    return sorted(
        cand
        for cand in map("".join, itertools.product(*(CHOICES[s] for s in word)))
        if ROW_LANGUAGE.fullmatch(cand)
    )


# every prefix of a row: up to two v, then optionally a literal, further
# uu-literal groups, and the start of one more group or of the w tail
ROW_PREFIX = re.compile(r"v{0,2}(?:[01](?:uu[01])*(?:u{1,2}|w{0,2}))?")


def pruned_converting_set(word):
    """Oracle: brute_converting_set's positionwise replacements, grown symbol
    by symbol and abandoned as soon as the prefix cannot begin a row."""
    prefixes = [""]
    for symbol in word:
        prefixes = [
            prefix + choice
            for prefix in prefixes
            for choice in CHOICES[symbol]
            if ROW_PREFIX.fullmatch(prefix + choice)
        ]
    return sorted(row for row in prefixes if ROW_LANGUAGE.fullmatch(row))


def brute_extension_candidates(row, max_suffix, lowerings=brute_converting_set):
    """Oracle: try every suffix, demand a singleton set one literal richer."""
    base = row.count("0") + row.count("1")
    found = []
    for length in range(1, max_suffix + 1):
        for suffix in map("".join, itertools.product("vuw01", repeat=length)):
            members = lowerings(row + suffix)
            if len(members) == 1 and members[0].count("0") + members[0].count("1") - base == 1:
                found.append(suffix)
    return sorted(found)


def replay_extension(rows, max_suffix, lowerings=brute_converting_set):
    """Oracle: replay the extension loop directly over brute-force sets."""
    results = set()
    last = len(rows) - 1

    def walk(i, carried, acc):
        if i == last:
            results.add(acc + (rows[last],))
            return
        combined = rows[i] + carried
        offset = len(rows[i])
        for lowered in lowerings(combined):
            survivors = "".join(
                lowered[p]
                for p in range(offset, len(combined))
                if combined[p] in "01" and lowered[p] == combined[p]
            )
            if not survivors:
                results.add(acc + (lowered,) + rows[i + 1:])
            else:
                walk(i + 1, expand_literals(survivors), acc + (lowered,))

    for suffix in brute_extension_candidates(rows[0], max_suffix, lowerings):
        walk(0, suffix, ())
    return results


def recursive_initial_blocks(seed, depth):
    """Reference: initial creation as the recursive walk it was first written as."""
    results = set()

    def walk(level, working, rows):
        if level > depth:
            for last in converting_set(working):
                results.add(rows + (last,))
            return
        for row in converting_set(working):
            if row.count("0") + row.count("1") == 0:
                continue
            walk(level + 1, expand_literals(row), rows + (row,))

    walk(1, seed, ())
    return results


@st.composite
def search_blocks(draw):
    """A block as the search meets it, and a suffix bound: an initial block
    of depth 1-3, right-extended once or not at all."""
    max_suffix = draw(st.integers(1, 3))
    seed = draw(st.sampled_from(INITIAL_SEEDS))
    depth = draw(st.integers(1, 3))
    rows = draw(st.sampled_from(sorted(create_initial_blocks(seed, depth))))
    if draw(st.booleans()):
        try:
            children = extend_right(rows, max_suffix)
        except NoExtension:
            children = set()
        if children:
            rows = draw(st.sampled_from(sorted(children)))
    return rows, max_suffix


def extension_outcome(extend, rows, max_suffix):
    try:
        return extend(rows, max_suffix)
    except NoExtension:
        return NoExtension


def test_membership_accepts_grouped_row():
    assert is_row("1uu1uu0w")


def test_membership_needs_a_literal():
    assert not is_row("")
    assert not is_row("vvw")


def test_membership_rejects_w_prefix():
    assert not is_row("w1v")
    # w belongs to the tail only, even though w-prefixed rows show up in
    # hand-drawn left-extension sketches
    assert not is_row("ww0uu1w")


def test_membership_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        is_row("0x1")


def test_canonical_order_is_code_point_order():
    # row_key maps 0 < 1 < u < v < w to abcde, an order that the code points
    # already have, so a plain sort of rows is the canonical sort
    assert "".join(sorted(ALPHABET)) == "01uvw"
    ws = [w for n in range(5) for w in map("".join, itertools.product("vuw01", repeat=n))]
    assert sorted(ws) == sorted(ws, key=row_key)


def test_converting_set_can_be_empty_mid_word():
    # v is only legal in the first two positions, so this combination is dead;
    # extension branches hitting such a set contribute nothing
    assert converting_set("vv1v") == []


def test_converting_set_of_a_long_word():
    # 5105 symbols: one frame per symbol would overflow a recursive walk
    prefix = "1" + "uu1" * 1700
    assert converting_set(prefix + "1000") == [prefix + "uu0w"]


def test_pruned_oracle_matches_brute_force_up_to_length_five():
    for length in range(6):
        for word in map("".join, itertools.product("vuw01", repeat=length)):
            assert pruned_converting_set(word) == brute_converting_set(word), word


def test_converting_set_leaves_nothing_behind():
    # no module-level cache may grow with use: once one call has warmed the
    # interpreter up, converting every word of length 6 keeps nothing alive
    words = list(map("".join, itertools.product("vuw01", repeat=6)))
    tracemalloc.start()
    try:
        converting_set("0000")
        before = tracemalloc.get_traced_memory()[0]
        for word in words:
            converting_set(word)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


@given(long_block_words)
@settings(deadline=None)
def test_converting_set_members_stay_in_language(word):
    members = converting_set(word)
    assert members == sorted(set(members))
    for member in members:
        assert len(member) == len(word)
        assert is_row(member)
        for original, replaced in zip(word, member):
            assert replaced in CHOICES[original]


@given(raised_rows())
@settings(deadline=None)
def test_converting_set_contains_every_raised_row(case):
    # completeness, checked from the row side: whatever word a row was
    # lowered from, the row is among that word's lowerings
    row, raised = case
    members = converting_set(raised)
    assert row in members
    assert len(members) <= 3


@pytest.mark.parametrize(
    "call",
    [lambda: converting_set("0000"), lambda: extension_candidates("1uu1", 3)],
    ids=["converting_set", "extension_candidates"],
)
def test_cached_results_are_fresh_lists(call):
    expected = list(call())
    assert len(expected) > 1
    assert expected == sorted(expected)
    for mutate in (list.clear, lambda xs: xs.append("0"), list.reverse):
        returned = call()
        mutate(returned)
        again = call()
        assert again is not returned
        assert again == expected


def test_expand_literals_examples():
    assert expand_literals("1uu1") == "11011101"
    assert expand_literals("v0uu0w") == "0000"
    assert expand_literals("vvw") == ""


@given(block_words)
def test_expand_literals_length_law(word):
    assert len(expand_literals(word)) == 2 * word.count("0") + 4 * word.count("1")


def test_initial_seed_inventory():
    assert len(INITIAL_SEEDS) == 18
    for seed in INITIAL_SEEDS:
        assert re.fullmatch(r"v{0,2}[01]w{0,2}", seed)


def test_initial_blocks_contain_illustrated_chain():
    blocks = create_initial_blocks("v1w", 5)
    assert ("v1w", "1uu1", "vv0uu1ww", "v0uu0w", "v0ww", "0w") in blocks


def test_illustrated_chain_links_backward():
    rows = ("v1w", "1uu1", "vv0uu1ww", "v0uu0w", "v0ww", "0w")
    for i in range(len(rows) - 1):
        assert rows[i + 1] in converting_set(expand_literals(rows[i]))


def test_initial_blocks_from_smallest_seed():
    blocks = create_initial_blocks("0", 1)
    assert blocks == {("0", "0w"), ("0", "v0")}
    # first-level branching covers exactly the brute-force converting set
    assert {rows[0] for rows in blocks} == set(brute_converting_set("0"))


def test_initial_blocks_structure():
    for depth in (1, 2, 3):
        for rows in create_initial_blocks("v1w", depth):
            assert len(rows) == depth + 1
            for row in rows:
                assert is_row(row)


def test_initial_blocks_match_recursive_reference():
    # one cached step for every seed, as in a search, so a warm cache is
    # covered too
    step = functools.cache(_step)
    for seed in INITIAL_SEEDS:
        levels = _initial_levels(seed, 4, step)
        assert len(levels) == 4
        for depth, level in enumerate(levels, start=1):
            expected = recursive_initial_blocks(seed, depth)
            assert level == expected, (seed, depth)
            assert create_initial_blocks(seed, depth) == expected, (seed, depth)


def test_initial_blocks_reject_bad_seed():
    # every word up to length 5, the longest a seed has, outside the seeds'
    # language
    for length in range(6):
        for word in map("".join, itertools.product("vuw01", repeat=length)):
            if not re.fullmatch(r"v{0,2}[01]w{0,2}", word):
                with pytest.raises(InvalidSeed, match=r"seed must match v\{0,2\}\[01\]w\{0,2\}"):
                    create_initial_blocks(word, 3)
    with pytest.raises(ValueError):
        create_initial_blocks("v1w", 0)


@pytest.mark.parametrize("row", ["vv0", "1ww", "0w"])
def test_extension_candidates_match_brute_force(row):
    assert extension_candidates(row, max_suffix=4) == brute_extension_candidates(row, 4)


@given(language_rows(2).filter(lambda row: len(row) <= 5), st.integers(1, 2))
@settings(deadline=None)
def test_extension_candidates_match_brute_force_on_random_rows(row, max_suffix):
    assert extension_candidates(row, max_suffix) == brute_extension_candidates(row, max_suffix)


@pytest.mark.parametrize("row, longest", [("vv0ww", 3), ("vv1ww", 3), ("vv0w", 4)])
def test_extension_candidates_stop_at_the_longest_qualifying_suffix(row, longest):
    # with a leading v and b trailing w, no suffix longer than 7 - a - b can
    # add exactly one literal, so a larger max_suffix finds nothing more
    assert extension_candidates(row, 8) == brute_extension_candidates(row, longest)


def shaped_rows(literal_counts):
    """Every row with the given numbers of literals, in all nine (a, b) shapes."""
    return [
        "v" * a + "uu".join(literals) + "w" * b
        for count in literal_counts
        for literals in itertools.product("01", repeat=count)
        for a in range(3)
        for b in range(3)
    ]


@pytest.mark.parametrize("max_suffix", [1, 2, 3, 4, 8])
def test_extension_candidates_match_reference_exhaustively(max_suffix):
    # trying every suffix of up to 7 symbols takes seconds per 3-literal row,
    # so the longest bound is checked on the shorter rows only
    for row in shaped_rows(range(1, 3 if max_suffix == 8 else 5)):
        assert extension_candidates(row, max_suffix) == reference_candidates(row, max_suffix), row


@given(language_rows(20), st.integers(1, 4))
@settings(deadline=None)
def test_extension_candidates_match_reference_on_long_rows(row, max_suffix):
    assert extension_candidates(row, max_suffix) == reference_candidates(row, max_suffix)


def test_single_row_extension_is_identity():
    assert extend_right(("vv0",), max_suffix=6) == {("vv0",)}


def test_extension_replay_matches_oracle():
    for rows in [("v1w", "1uu1"), ("0w", "v0"), ("1ww", "0uu0", "1ww")]:
        assert extend_right(rows, max_suffix=3) == replay_extension(rows, 3)


@given(search_blocks())
@settings(deadline=None, max_examples=60)
def test_extension_matches_replay_on_search_blocks(case):
    rows, max_suffix = case
    expected = replay_extension(rows, max_suffix, pruned_converting_set)
    assert extension_outcome(extend_right, rows, max_suffix) == (expected or NoExtension)


@given(st.lists(search_blocks(), min_size=2, max_size=8))
@settings(deadline=None)
def test_a_warm_memo_changes_no_extension(cases):
    # the two caches a search shares across blocks of any suffix bound
    opening, step = functools.cache(_opening), functools.cache(_step)
    for rows, max_suffix in cases:
        shared = extension_outcome(lambda *args: _extend(*args, opening, step), rows, max_suffix)
        assert shared == extension_outcome(extend_right, rows, max_suffix)


def test_extension_walks_each_distinct_opening_once():
    # eight suffixes of at most two symbols qualify for the first row 1w, but
    # they open it in only two ways: 00, 10, u0 and w0 all give ("1uu0", "00")
    rows = ("1w", "v1ww", "1uu1")
    expected = replay_extension(rows, 2)
    assert extend_right(rows, 2) == expected
    opening = functools.cache(_opening)
    assert _extend(rows, 2, opening, _step) == expected
    assert extension_candidates("1w", 2) == ["00", "01", "10", "11", "u0", "u1", "w0", "w1"]
    assert opening.cache_info().currsize == 1
    assert opening("1w", 2) == {("1uu0", "00"), ("1uu1", "1101")}


def test_extension_without_candidates_raises():
    with pytest.raises(NoExtension):
        extend_right(("0",), max_suffix=1)


def test_extension_validates_rows():
    with pytest.raises(ValueError):
        extend_right(("w1v",), max_suffix=4)
    with pytest.raises(ValueError):
        extend_right((), max_suffix=4)


def test_extension_never_rewrites_last_row():
    for rows in [("v1w", "1uu1"), ("1ww", "0uu0", "1ww")]:
        for child in extend_right(rows, max_suffix=3):
            assert child[-1] == rows[-1]
            assert len(child) == len(rows)


def test_conditions_on_repeated_rows():
    report = check_conditions(("v1w", "v1w"), Provenance("v1w", 0))
    assert report.cond_i and report.cond_ii
    assert report.cond_iii  # c(v1w, w) + c(v1w, v) == 2


def test_conditions_pair_count_failure():
    report = check_conditions(("vv0w", "1ww"))
    assert not report.cond_iii  # 1 + 0 != 2


def test_conditions_v_free_row():
    assert check_conditions(("1ww", "0ww", "1ww")).cond_iv
    # only rows before the last participate in the existence check
    assert not check_conditions(("vv0w", "vv0w", "0w")).cond_iv


def test_conditions_provenance_flag():
    rows = ("v1w", "1uu1")
    assert not check_conditions(rows).cond_i
    assert check_conditions(rows, Provenance("v1w", 0)).cond_i
    assert check_conditions(rows, Provenance("v1w", 4)).cond_i


def test_search_rejects_bad_parameters():
    with pytest.raises(ValueError):
        search(0, 5)
    with pytest.raises(ValueError):
        search(2, 0)
    with pytest.raises(ValueError):
        search(2, 5, threads=0)
    with pytest.raises(ValueError, match="max_suffix must be at least 1"):
        search(3, 50, 1, 0)


def test_search_results_satisfy_filter():
    result = search(2, 10)
    for hit in result.hits:
        assert hit.report.qualifies


@pytest.fixture(scope="module")
def exhaustive_search():
    return search(4, 10**6, threads=1, max_suffix=3)


def unpruned_bfs(max_rows, max_depth, max_suffix):
    """Oracle: breadth-first exploration without the closure prune."""
    frontier = []
    seen = set()
    for seed in INITIAL_SEEDS:
        for depth in range(1, max_rows):
            for rows in sorted(create_initial_blocks(seed, depth)):
                if rows not in seen:
                    seen.add(rows)
                    frontier.append((rows, Provenance(seed, 0)))
    hits = set()
    index = 0
    while index < len(frontier):
        rows, provenance = frontier[index]
        index += 1
        if check_conditions(rows, provenance).qualifies:
            hits.add(rows)
        if provenance.extensions == max_depth:
            continue
        try:
            children = sorted(extend_right(rows, max_suffix))
        except NoExtension:
            continue
        for child in children:
            if child not in seen:
                seen.add(child)
                frontier.append((child, Provenance(provenance.seed, provenance.extensions + 1)))
    return hits


def test_search_finds_qualifying_blocks(exhaustive_search):
    rows_found = {hit.rows for hit in exhaustive_search.hits}
    assert ("1uu1uu0w", "v1uu1uu1ww", "1uu1uu0uu1ww", "1uu1uu0w") in rows_found
    assert exhaustive_search.exhausted
    for hit in exhaustive_search.hits:
        assert hit.report.qualifies
        assert hit.report.cond_i
        # search skips row validation on the blocks it builds; the public
        # check validates them and must report the same
        assert check_conditions(hit.rows, hit.provenance) == hit.report


def test_search_agrees_with_unpruned_oracle(exhaustive_search):
    oracle_hits = unpruned_bfs(4, 2, 3)
    pruned_hits = {hit.rows for hit in exhaustive_search.hits}
    shallow = {
        hit.rows for hit in exhaustive_search.hits if hit.provenance.extensions <= 2
    }
    # pruning never invents results and never loses one the oracle can see
    assert shallow <= oracle_hits
    assert oracle_hits <= pruned_hits


def test_search_budget_prefix_monotone(exhaustive_search):
    limited = search(4, 200, threads=1, max_suffix=3)
    assert {hit.rows for hit in limited.hits} <= {hit.rows for hit in exhaustive_search.hits}


def test_search_duplicates_do_not_consume_budget():
    full = search(2, 10**6)
    assert full.exhausted
    assert full.skipped_duplicates > 0
    tight = search(2, full.examined)
    assert tight.exhausted
    assert tight.hits == full.hits
    assert tight.examined == full.examined


def test_search_leaves_nothing_behind():
    # the search's two tables live and die with the call
    search(2, 50)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        search(3, 200, max_suffix=3)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def test_search_thread_determinism():
    single = search(3, 120, threads=1, max_suffix=3)
    pooled = search(3, 120, threads=8, max_suffix=3)
    assert single == pooled


def test_search_document_rendering(exhaustive_search):
    doc = render_search_results(exhaustive_search, 4, 10**6, 3)
    lines = doc.splitlines()
    assert lines[0] == "version: 1"
    assert f"found: {len(exhaustive_search.hits)}" in lines
    for hit in exhaustive_search.hits:
        for row in hit.rows:
            assert row in lines
    # search hits meet all four conditions; a hand-made one without a seed
    # shows that each value is rendered under its own name
    rows = ("1uu1uu0w", "v1uu1uu1ww", "1uu1uu0uu1ww", "1uu1uu0w")
    hit = SearchHit(rows, Provenance(None), check_conditions(rows))
    lines = render_search_results(SearchResult((hit,), 1, 0, True), 4, 1, 4).splitlines()
    assert lines[7:13] == [
        "block.1.seed: -",
        "block.1.extensions: 0",
        "block.1.cond_i: false",
        "block.1.cond_ii: true",
        "block.1.cond_iii: true",
        "block.1.cond_iv: true",
    ]


PINNED_CENSUSES = [
    # max_rows, budget, max_suffix, document sha256, examined, duplicates, hits
    (4, 2000, 3, CENSUSES[4, 2000, 3], 738, 1149, 2),
    (4, 2000, 4, CENSUSES[4, 2000, 4], 1068, 2274, 2),
    (5, 20000, 4, CENSUSES[5, 20000, 4], 5540, 12982, 3),
    (6, 100000, 4, "3e83d316a76e8b097442e65094ecff8833986f9c6ba54fce37c5f24326795c34", 27281, 68570, 5),
]


@functools.cache
def census(max_rows, budget, max_suffix):
    """One search per pinned census and session, shared by the tests that read it."""
    return search(max_rows, budget, threads=1, max_suffix=max_suffix)


@pytest.mark.parametrize(
    "max_rows, budget, max_suffix, digest, examined, duplicates, found",
    PINNED_CENSUSES,
    # the two 4-row censuses keep the ids they were first pinned under
    ids=["-".join(map(str, case[2:] if case[:2] == (4, 2000) else case)) for case in PINNED_CENSUSES],
)
def test_census_documents_are_pinned(
    max_rows, budget, max_suffix, digest, examined, duplicates, found
):
    result = census(max_rows, budget, max_suffix)
    assert result.exhausted
    assert (result.examined, result.skipped_duplicates, len(result.hits)) == (
        examined,
        duplicates,
        found,
    )
    # every hit also carries creation provenance, so all four conditions hold
    assert all(all(hit.report) for hit in result.hits)
    # the search admits each block once, so no two hits share their rows
    assert len({hit.rows for hit in result.hits}) == len(result.hits)
    doc = render_search_results(result, max_rows, budget, max_suffix)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_six_row_census_hits_link_down_to_their_last_row():
    # In every hit, each row but the last lies in the converting set of the
    # expansion of the row above it, as in initial creation.  The last row
    # does too only in the constant blocks.
    hits = census(6, 100000, 4).hits
    for hit in hits:
        pairs = zip(hit.rows, hit.rows[1:])
        links = [lower in converting_set(expand_literals(upper)) for upper, lower in pairs]
        assert all(links[:-1]), hit.rows
        assert links[-1] == (len(set(hit.rows)) == 1), hit.rows
    # the hit that the 5-row census lacks
    assert any(
        len(hit.rows) == 6 and hit.rows[0] == hit.rows[-1] == "1uu1uu0uu1uu0w"
        and hit.provenance == Provenance("1", 4)
        for hit in hits
    )
