"""Ball growth, witness words, and the persistence format."""

import functools
import gc
import os
import random
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_find_element, naive_grow_ball, naive_load_ball, outcome, spinal_gens
from vncalc.constructions import (
    Permutation,
    default_base,
    dot,
    make_s_alpha,
    make_t,
    make_tau,
    plan_alpha,
    sigma_dot,
)
from vncalc import element, search
from vncalc.element import VnElement, compose, format_element, identity, invert, random_element
from vncalc.errors import AlphabetMismatchError, FileFormatError, ParameterRangeError
from vncalc.search import (
    Ball,
    GeneratorSet,
    evaluate_word,
    find_element,
    grow_ball,
    load_ball,
    load_generator_manifest,
    save_ball,
)
from vncalc.words import Alphabet

A2 = Alphabet(2)


def sigma_tau_gens():
    return GeneratorSet.from_dict({"sigma": sigma_dot(A2), "tau": make_tau(A2)})


def test_generator_set_sorts_and_validates():
    gens = sigma_tau_gens()
    assert [name for name, _ in gens.generators] == ["sigma", "tau"]
    with pytest.raises(ValueError):
        GeneratorSet.from_dict({"bad name": sigma_dot(A2)})
    with pytest.raises(ValueError):
        GeneratorSet.from_dict({})
    with pytest.raises(AlphabetMismatchError):
        GeneratorSet.from_dict({"a": sigma_dot(A2), "b": sigma_dot(Alphabet(3))})


def test_tokens_add_inverses_only_when_needed():
    gens = sigma_tau_gens()
    assert [tok for tok, _ in gens.tokens()] == ["sigma", "tau"]
    t = make_t(A2)
    with_t = GeneratorSet.from_dict({"t": t})
    assert [tok for tok, _ in with_t.tokens()] == ["t", "t^-1"]
    assert dict(with_t.tokens())["t^-1"] == invert(t)


def test_ball_radius_one():
    ball = grow_ball(sigma_tau_gens(), 1)
    assert len(ball) == 3
    elements = {g: w for w, g in ball.entries}
    assert elements[identity(A2)] == ()
    assert elements[sigma_dot(A2)] == ("sigma",)
    assert elements[make_tau(A2)] == ("tau",)


def test_ball_radius_two_counts_noncommuting_products():
    ball = grow_ball(sigma_tau_gens(), 2)
    assert len(ball) == 5
    sig, tau = sigma_dot(A2), make_tau(A2)
    assert compose(sig, tau) != compose(tau, sig)
    elements = {g: w for w, g in ball.entries}
    assert elements[compose(sig, tau)] == ("sigma", "tau")
    assert elements[compose(tau, sig)] == ("tau", "sigma")
    assert ball.sizes == (1, 3, 5)


def test_ball_growth_strictly_increasing_for_spinal_generators():
    ball = grow_ball(spinal_gens(), 6)
    for r in range(1, 7):
        assert ball.sizes[r] > ball.sizes[r - 1]


def test_ball_words_all_evaluate():
    gens = spinal_gens()
    ball = grow_ball(gens, 4)
    for word, g in ball.entries:
        assert evaluate_word(gens, word) == g


def test_evaluate_word_reads_the_token_table(monkeypatch):
    """A generator set inverts each generator once, when its token table is
    built: evaluate_word then replays every witness of a radius-6 ball,
    ``t^-1`` tokens included, without inverting anything."""
    named = {**dict(spinal_gens().generators), "t": make_t(A2)}
    ball = grow_ball(GeneratorSet.from_dict(named), 6)
    assert any("t^-1" in word for word, _ in ball.entries)
    inverted = []

    def counted_invert(g):
        inverted.append(g)
        return invert(g)

    monkeypatch.setattr(search, "invert", counted_invert)
    gens = GeneratorSet.from_dict(named)
    gens.tokens()
    assert len(inverted) == len(named)
    for word, g in ball.entries:
        assert evaluate_word(gens, word) == g
    assert len(inverted) == len(named)


@pytest.mark.parametrize(
    "word", [("sigma", "x"), ("sigma^-1",)], ids=["unknown-name", "involution-inverse"]
)
def test_evaluate_word_refuses_an_unknown_token(word):
    """A token outside the token table is a typed error, as a bad name is
    in from_dict; an involution has no ``^-1`` token."""
    with pytest.raises(ParameterRangeError) as info:
        evaluate_word(spinal_gens(), word)
    assert str(info.value) == f"unknown generator token {word[-1]!r}"


def test_ball_closed_under_inversion_for_involutive_generators():
    ball = grow_ball(spinal_gens(), 4)
    elements = {g for _, g in ball.entries}
    assert all(invert(g) in elements for g in elements)


def test_ball_respects_cap():
    untruncated = grow_ball(spinal_gens(), 6)
    assert not untruncated.truncated
    assert len(untruncated) == 158
    # 84 is the radius-5 size: the cap is reached exactly between two radii.
    for cap in (1, 20, 84, 157, 158, 159):
        ball = grow_ball(spinal_gens(), 6, cap=cap)
        assert ball.truncated == (cap < 158), cap
        assert len(ball) == min(cap, 158), cap
        assert ball.entries == untruncated.entries[:cap], cap


def test_grown_ball_shares_its_domain_words_and_domains():
    """The walk keeps one copy of each domain word and of each domain: at
    radius 12 the ball's 5,714 domains make 81,808 references to 239
    distinct words and 1,483 distinct domains.  A walk that keeps each
    product's own tuples holds 71,383 word objects and 5,714 domains."""
    ball = grow_ball(spinal_gens(), 12)
    domains = [g.dom for _, g in ball.entries]
    words = [w for d in domains for w in d]
    assert len({id(w) for w in words}) == len(set(words)) == 239
    assert len({id(d) for d in domains}) == len(set(domains)) == 1483


def test_the_walk_leaves_the_callers_generators_alone():
    """compose(identity, h) is h itself, so the walk's first level meets
    the generators it was given: it must share their domains in copies of
    its own, not by rewriting the caller's elements."""
    gens = spinal_gens()
    tokens = [(g, g.dom) for _, g in gens.tokens()]
    ball = grow_ball(gens, 3)
    assert all(g.dom is dom for g, dom in tokens)
    assert [g for word, g in ball.entries if len(word) == 1] == [g for g, _ in tokens]


def count_hashes(monkeypatch):
    """Count VnElement hashes and the candidates the search composes."""
    counts = {"hash": 0, "candidates": 0}
    element_hash = VnElement.__hash__

    def counted_hash(self):
        counts["hash"] += 1
        return element_hash(self)

    def counted_compose(g, h):
        counts["candidates"] += 1
        return compose(g, h)

    monkeypatch.setattr(VnElement, "__hash__", counted_hash)
    monkeypatch.setattr(search, "compose", counted_compose)
    return counts


def test_ball_hashes_each_candidate_once(monkeypatch):
    gens = spinal_gens()
    counts = count_hashes(monkeypatch)
    ball = grow_ball(gens, 4)
    assert counts["hash"] == 1 + counts["candidates"]
    counts.update(hash=0, candidates=0)
    assert grow_ball(gens, 4, cap=10).entries == ball.entries[:10]
    # Below the cap one add per candidate; at the cap one lookup per candidate.
    assert counts["hash"] == 1 + counts["candidates"]


def test_find_hashes_each_candidate_once(monkeypatch):
    gens = sigma_tau_gens()
    counts = count_hashes(monkeypatch)
    assert find_element(make_t(A2), gens, 3) == ("sigma", "tau")
    assert counts["hash"] == 1 + counts["candidates"]


def test_ball_worker_counts_agree():
    for radius in (3, 5):
        b1 = grow_ball(spinal_gens(), radius, workers=1)
        b4 = grow_ball(spinal_gens(), radius, workers=4)
        assert b1 == b4


def test_ball_stabilizes_on_finite_groups():
    gens = GeneratorSet.from_dict({"sigma": sigma_dot(A2)})
    ball = grow_ball(gens, 5)
    assert ball.sizes == (1, 2, 2, 2, 2, 2)


def walk_pool(n):
    """Generators of small balls at degree n: non-involutions, then involutions."""
    a = Alphabet(n)
    movers = [make_t(a), random_element(a, random.Random(n), 3)]
    if n == 3:
        movers.append(dot(Permutation.from_cycles([(1, 2, 3)], 3), a))
    return movers, [sigma_dot(a), make_tau(a)]


@st.composite
def walk_cases(draw):
    """A generator set with one non-involution, so that ``^-1`` tokens occur,
    and at most one involution, under names that vary the token order.  It
    may also name the non-involution's inverse, so that two generators undo
    each other, and the identity, a token that is its own inverse; neither
    adds an element, so the balls stay small."""
    n = draw(st.sampled_from([2, 3]))
    movers, involutions = walk_pool(n)
    mover = draw(st.sampled_from(movers))
    chosen = [mover]
    chosen += draw(st.lists(st.sampled_from(involutions), max_size=1))
    if draw(st.booleans()):
        chosen.append(invert(mover))
    if draw(st.booleans()):
        chosen.append(identity(mover.alphabet))
    # "t2" sorts before "t^-1" and "ta" after it.
    names = draw(st.permutations(["a", "b", "t", "t2", "ta"]))
    gens = GeneratorSet.from_dict(dict(zip(names, chosen)))
    return gens, draw(st.integers(0, 6))


def composes_of(fn, *args):
    """fn(*args) and the number of products the search composed for it."""
    calls = 0

    def counted(g, h):
        nonlocal calls
        calls += 1
        return compose(g, h)

    search.compose = counted
    try:
        return fn(*args), calls
    finally:
        search.compose = compose


@settings(max_examples=60)
@given(walk_cases())
def test_walk_matches_the_naive_ball_and_find_loops(case):
    """grow_ball at every cap and find_element for every element agree with
    the breadth-first loops they replaced, which compose every candidate.
    The walk skips exactly one token after every non-empty word, the one
    that undoes its last token."""
    gens, radius = case
    ball, calls = composes_of(grow_ball, gens, radius)
    tokens = gens.tokens()
    assert any("^-1" in tok for tok, _ in tokens)
    words = ball.sizes[radius - 1] if radius else 0
    assert calls == words * len(tokens) - max(words - 1, 0)
    for cap in range(1, len(ball) + 2):
        capped = grow_ball(gens, radius, cap=cap)
        naive, naive_sizes = naive_grow_ball(gens, radius, cap=cap)
        assert capped == naive, cap
        assert capped.sizes == naive_sizes, cap
    elements = {g: w for w, g in ball.entries}
    for word, g in ball.entries:
        assert find_element(g, gens, radius) == naive_find_element(g, gens, radius) == word
    beyond = [g for _, g in naive_grow_ball(gens, radius + 1)[0].entries if g not in elements]
    outside = beyond[0] if beyond else random_element(gens.alphabet, random.Random(0), 6)
    assert outside not in elements
    assert find_element(outside, gens, radius) is naive_find_element(outside, gens, radius) is None


def test_find_identity_is_empty_word():
    assert find_element(identity(A2), sigma_tau_gens(), 0) == ()


def test_find_t_as_product():
    assert find_element(make_t(A2), sigma_tau_gens(), 2) == ("sigma", "tau")


def test_find_not_found_within_radius():
    assert find_element(make_t(A2), sigma_tau_gens(), 1) is None



def test_find_ends_once_a_level_adds_nothing():
    """{sigma} is finite, so the walk ends at its first empty level: a search
    of radius 10^12 composes one product and returns."""
    gens = GeneratorSet.from_dict({"sigma": sigma_dot(A2)})
    assert composes_of(find_element, make_tau(A2), gens, 10**12) == (None, 1)

def test_find_prefers_lexicographically_least_word():
    gens = GeneratorSet.from_dict({"a": sigma_dot(A2), "b": sigma_dot(A2)})
    assert find_element(sigma_dot(A2), gens, 3) == ("a",)


def test_find_rejects_negative_radius():
    with pytest.raises(ParameterRangeError, match="radius must be >= 0"):
        find_element(identity(A2), sigma_tau_gens(), -1)


def test_find_rejects_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        find_element(identity(Alphabet(3)), sigma_tau_gens(), 2)


def test_find_recovers_isolation_commutator_witness():
    # The factored commutator of a spinal element with its shifted conjugate
    # is reachable as the length-4 commutator word over {s, s^(t^k)}.
    from vncalc.constructions import embed, plan_alpha, spine_cone
    from vncalc.element import commutator, conjugate, power
    from vncalc.words import Word

    plan = plan_alpha(default_base(A2, 2))
    i, j = plan.support.sorted_members
    s = make_s_alpha(plan)
    shifted = conjugate(s, power(make_t(A2), j - i))
    sig = sigma_dot(A2)
    deep = embed(spine_cone(plan.length + 1), commutator(sig, embed(spine_cone(j - i), sig)))
    cone = embed(spine_cone(j) + Word((2,)), commutator(plan.entry(j), plan.entry(i)))
    target = compose(deep, cone)
    assert target == commutator(s, shifted)
    gens = GeneratorSet.from_dict({"s": s, "sc": shifted})
    assert find_element(target, gens, 4) == ("s", "sc", "s", "sc")


def test_save_load_round_trip(tmp_path):
    gens = spinal_gens()
    manifest = (("s", "s.elt"), ("sigma", "sigma.elt"), ("tau", "tau.elt"))
    ball = grow_ball(gens, 4, manifest=manifest)
    path = tmp_path / "ball.txt"
    save_ball(ball, str(path))
    assert load_ball(str(path)) == ball


def test_truncated_ball_round_trip(tmp_path):
    ball = grow_ball(spinal_gens(), 6, cap=100)
    assert ball.truncated
    path = tmp_path / "ball.txt"
    save_ball(ball, str(path))
    assert path.read_text().splitlines()[0] == "ball 2 6 100 1"
    loaded = load_ball(str(path))
    assert loaded.truncated is True
    assert loaded == ball


def test_load_ball_rejects_a_truncated_flag_other_than_0_or_1(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("ball 2 0 0 2\n")
    with pytest.raises(FileFormatError) as info:
        load_ball(str(bad))
    assert (info.value.reason, info.value.line) == ("truncated flag must be 0 or 1", 1)


def test_generator_paths_may_hold_spaces(tmp_path):
    """A ``gen`` line's path is the rest of the line, spaces and all, in a
    manifest and in a ball file."""
    (tmp_path / "my dir").mkdir()
    (tmp_path / "my dir" / "g.elt").write_text(format_element(sigma_dot(A2)) + "\n")
    manifest = tmp_path / "gens.txt"
    manifest.write_text("gen g my dir/g.elt\n")
    gens, recorded = load_generator_manifest(str(manifest))
    assert gens == GeneratorSet.from_dict({"g": sigma_dot(A2)})
    assert recorded == (("g", "my dir/g.elt"),)
    ball = grow_ball(gens, 2, manifest=recorded)
    path = tmp_path / "ball.txt"
    save_ball(ball, str(path))
    assert path.read_text().splitlines()[1] == "gen g my dir/g.elt"
    assert load_ball(str(path)) == ball


def test_saved_ball_layout(tmp_path):
    ball = grow_ball(sigma_tau_gens(), 1, manifest=(("sigma", "x"), ("tau", "y")))
    path = tmp_path / "b.txt"
    save_ball(ball, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "ball 2 1 3 0"
    assert lines[1] == "gen sigma x"
    assert lines[2] == "gen tau y"
    assert lines[3] == ""
    assert lines[4] == "word"
    assert lines[5] == "vn 2"


def test_load_ball_reports_corrupt_word_line(tmp_path):
    ball = grow_ball(sigma_tau_gens(), 1)
    path = tmp_path / "b.txt"
    save_ball(ball, str(path))
    text = path.read_text().replace("word sigma", "wrd sigma")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(FileFormatError) as info:
        load_ball(str(bad))
    assert "line" in str(info.value)


def test_load_ball_reports_corrupt_element_block(tmp_path):
    ball = grow_ball(sigma_tau_gens(), 1)
    path = tmp_path / "b.txt"
    save_ball(ball, str(path))
    text = path.read_text().replace("1 -> 2", "1 -> bogus", 1)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(FileFormatError):
        load_ball(str(bad))


def test_load_ball_checks_count(tmp_path):
    ball = grow_ball(sigma_tau_gens(), 1)
    path = tmp_path / "b.txt"
    save_ball(ball, str(path))
    text = path.read_text().replace("ball 2 1 3 0", "ball 2 1 7 0")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(FileFormatError):
        load_ball(str(bad))


def test_load_ball_rejects_negative_radius(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("ball 2 -1 0 0\n")
    with pytest.raises(FileFormatError) as info:
        load_ball(str(bad))
    assert str(info.value) == "line 1: radius must be >= 0"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "ball 2 0 2 0\n\nword\nvn 2\neps -> eps\n\nword\nvn 2\neps -> eps\n",
            "line 7: element already listed for the word at line 3",
        ),
        # The same element in another table form, under another word.
        (
            "ball 2 1 2 0\n\nword sigma\nvn 2\n1 -> 2\n2 -> 1\n"
            "\nword tau\nvn 2\n1.1 -> 2.1\n1.2 -> 2.2\n2 -> 1\n",
            "line 8: element already listed for the word at line 3",
        ),
    ],
    ids=["identity", "refined-table"],
)
def test_load_ball_rejects_repeated_element(tmp_path, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(FileFormatError) as info:
        load_ball(str(bad))
    assert str(info.value) == message


# Element blocks that load_ball refuses after BAD_BLOCK_PREFIX, under the
# word at line 7, with its error.
BAD_BLOCK_PREFIX = "ball 2 1 2 0\n\nword\nvn 2\neps -> eps\n\nword sigma\n"
BAD_BLOCKS = [
    pytest.param(
        "vn 2\n1 -> 2\n2 -> x\n",
        "line 10: bad element block for word at line 7: bad word syntax 'x'",
        id="bad-word",
    ),
    pytest.param(
        "vn x\n1 -> 2\n2 -> 1\n",
        "line 8: bad element block for word at line 7: "
        "invalid literal for int() with base 10: 'x'",
        id="bad-header",
    ),
    pytest.param(
        "vn 2\n1 -> 2\n2 -> 2\n",
        "line 7: bad element block for word at line 7: image words are not distinct",
        id="repeated-images",
    ),
    pytest.param(
        "vn 2\n1 -> 2\n",
        "line 7: bad element block for word at line 7: "
        "domain is not a partition set: cone measures sum to 1/2, expected 1",
        id="incomplete-domain",
    ),
]


@pytest.mark.parametrize("block, message", BAD_BLOCKS)
def test_load_ball_names_the_file_line_of_a_bad_block(tmp_path, block, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(BAD_BLOCK_PREFIX + block)
    with pytest.raises(FileFormatError) as info:
        load_ball(str(bad))
    assert str(info.value) == message


def test_generator_manifest_loading(tmp_path):
    (tmp_path / "sig.elt").write_text(format_element(sigma_dot(A2)) + "\n")
    (tmp_path / "tau.elt").write_text(format_element(make_tau(A2)) + "\n")
    manifest = tmp_path / "gens.txt"
    manifest.write_text("gen sigma sig.elt\ngen tau tau.elt\n")
    gens, recorded = load_generator_manifest(str(manifest))
    assert gens == sigma_tau_gens()
    assert recorded == (("sigma", "sig.elt"), ("tau", "tau.elt"))


def test_generator_manifest_rejects_duplicates(tmp_path):
    (tmp_path / "sig.elt").write_text(format_element(sigma_dot(A2)) + "\n")
    manifest = tmp_path / "gens.txt"
    manifest.write_text("gen sigma sig.elt\ngen sigma sig.elt\n")
    with pytest.raises(FileFormatError):
        load_generator_manifest(str(manifest))


def test_ball_deterministic_across_runs(tmp_path):
    p1, p2 = tmp_path / "one.txt", tmp_path / "two.txt"
    save_ball(grow_ball(spinal_gens(), 5, workers=1), str(p1))
    save_ball(grow_ball(spinal_gens(), 5, workers=3), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_ball_round_trip_keeps_unsorted_manifest(tmp_path):
    manifest = (("tau", "tau.elt"), ("sigma", "sigma.elt"))
    ball = grow_ball(sigma_tau_gens(), 3, manifest=manifest)
    path = tmp_path / "ball.txt"
    save_ball(ball, str(path))
    assert load_ball(str(path)) == ball


MANIFEST = (("s", "s.elt"), ("sigma", "sigma.elt"), ("tau", "tau.elt"))


@functools.cache
def ball_text(radius: int) -> str:
    """The saved ball over {sigma, tau, s} of the given radius, with a manifest."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "ball.txt")
        save_ball(grow_ball(spinal_gens(), radius, manifest=MANIFEST), path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


# Read sizes for load_ball's chunked reader: every character at a chunk
# edge, edges that fall at every offset in a line, and edges a few lines apart.
CHUNK_SIZES = (1, 7, 64)


def assert_chunks_match_whole_file_reader(path) -> None:
    """load_ball gives, at every chunk size, the ball or the error class,
    text and line that naive_load_ball gives reading the whole file."""
    expected = outcome(naive_load_ball, str(path))
    got = {}
    with pytest.MonkeyPatch.context() as mp:
        for size in CHUNK_SIZES:
            mp.setattr(search, "_CHUNK_CHARS", size)
            got[size] = outcome(load_ball, str(path))
    assert got == dict.fromkeys(CHUNK_SIZES, expected)


# Every character at which str.splitlines ends a line, but \n and \r, which
# the writer uses and universal newlines translate.
OTHER_BREAKS = tuple(
    ch
    for ch in map(chr, range(sys.maxunicode + 1))
    if len(f"a{ch}b".splitlines()) == 2 and ch not in "\n\r"
)
BREAK_NAMES = {"\f": "formfeed", "\x85": "nel", "\u2028": "u2028"}


def chunk_edge_cases():
    """Files for the chunked reader, one pytest param each."""
    text = ball_text(3)
    gen_line = text.splitlines()[1]
    cases = {
        "radius-8": ball_text(8),
        "crlf": text.replace("\n", "\r\n"),
        "spaces-separators": text.replace("\n\n", "\n \t \n"),
        "long-header": text.replace("ball 2 3", "ball" + " " * 150 + "2 3", 1),
        "long-gen-line": text.replace(gen_line, gen_line + "/" * 150, 1),
        "long-bad-gen-line": text.replace(gen_line, "gen" + "_" * 150, 1),
        "no-final-newline": text.rstrip("\n"),
        "header-only-no-newline": "ball 2 0 0 0",
        "empty": "",
    }
    for ch in OTHER_BREAKS:
        name = BREAK_NAMES.get(ch, f"u{ord(ch):04x}")
        # Between two rows, and inside a row.
        cases[f"{name}-between-rows"] = text.replace("\n2 -> ", ch + "2 -> ", 1)
        cases[f"{name}-inside-a-row"] = text.replace("1 -> ", "1 " + ch + "-> ", 1)
    for bad in BAD_BLOCKS:
        cases[f"bad-block-{bad.id}"] = BAD_BLOCK_PREFIX + bad.values[0]
    return [pytest.param(text, id=name) for name, text in cases.items()]


@pytest.mark.parametrize("text", chunk_edge_cases())
def test_load_ball_reads_across_chunk_edges(tmp_path, text):
    path = tmp_path / "ball.txt"
    path.write_bytes(text.encode("utf-8"))
    assert_chunks_match_whole_file_reader(path)


@st.composite
def mutated_ball_texts(draw):
    """The radius-2 ball file with up to four line mutations, each of a
    kind that a chunked reader could split wrongly, and LF or CRLF ends."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = ball_text(2).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = rng.randrange(len(lines))
        kind = rng.choice(("break", "spaces", "long", "drop", "duplicate"))
        if kind == "break":
            j = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:j] + rng.choice(OTHER_BREAKS) + lines[i][j:]
        elif kind == "spaces":
            lines.insert(i, rng.choice((" ", "\t", " \t ")))
        elif kind == "long":
            # The header or a gen line, stretched past every chunk size.
            k = rng.choice([k for k, ln in enumerate(lines) if k == 0 or ln.startswith("gen ")])
            lines[k] = lines[k].replace(" ", " " * rng.randint(2, 80), 1) + "x" * rng.randint(0, 80)
        elif kind == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    ends = [rng.choice(("\n", "\r\n")) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map("".join, zip(lines, ends)))


@settings(max_examples=150)
@given(mutated_ball_texts())
def test_load_ball_reads_mutated_files_across_chunk_edges(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ball") / "ball.txt"
    path.write_bytes(text.encode("utf-8"))
    assert_chunks_match_whole_file_reader(path)


def test_load_ball_refuses_bytes_that_are_not_utf8(tmp_path):
    """A bad byte inside a block is refused with a typed error at every chunk size."""
    path = tmp_path / "ball.txt"
    path.write_bytes(ball_text(3).encode("utf-8").replace(b"\n1 -> 2\n", b"\n1 -> \xff\n", 1))
    message = f"not UTF-8 text: {path}: byte 0xff (invalid start byte)"
    with pytest.MonkeyPatch.context() as mp:
        for size in (*CHUNK_SIZES, search._CHUNK_CHARS):
            mp.setattr(search, "_CHUNK_CHARS", size)
            with pytest.raises(FileFormatError) as info:
                load_ball(str(path))
            assert str(info.value) == message


def test_ball_io_holds_a_chunk_and_a_block_not_the_file(tmp_path):
    """Traced allocation of a radius-12 round trip (5,714 elements, a
    2.1 MB file), with the row memos cleared first.  On Python 3.11,
    save_ball peaks at 0.8 MB, the row-text memo it fills, and load_ball at
    1.0 MB beyond the ball it returns.  A writer that joins every line
    peaked at 7.7 MB, and a reader that splits the whole file at 8.1 MB."""
    ball = grow_ball(spinal_gens(), 12)
    path = str(tmp_path / "ball.txt")
    memos = (element._memo_row_text, element._memo_row, element._memo_partition)
    for memo in memos:
        memo.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_ball(ball, path)
        save_peak = tracemalloc.get_traced_memory()[1] - before
        for memo in memos:
            memo.cache_clear()
        tracemalloc.reset_peak()
        loaded = load_ball(path)
        held, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == ball
    assert save_peak < 2.5e6
    assert load_peak - held < 2.5e6


def test_ball_files_without_newlines_are_read_a_chunk_at_a_time(tmp_path):
    """A radius-12 ball file whose lines all end in U+2028 or a form feed,
    which universal newlines do not end, loads within a small factor of the
    memory that the file as written takes.  On Python 3.11 the peaks beyond
    the ball are 0.8 MB for the file as written, 1.2 MB for U+2028 and
    1.1 MB for form feeds; a reader that reads on to the next ``\n`` held
    the whole rest of the file, 7.9 MB."""
    ball = grow_ball(spinal_gens(), 12)
    written = tmp_path / "ball.txt"
    save_ball(ball, str(written))
    text = written.read_text(encoding="utf-8")
    memos = (element._memo_row_text, element._memo_row, element._memo_partition)
    peaks = {}
    for name, brk in (("newline", "\n"), ("u2028", "\u2028"), ("formfeed", "\f")):
        path = tmp_path / f"{name}.txt"
        path.write_text(text.replace("\n", brk), encoding="utf-8")
        for memo in memos:
            memo.cache_clear()
        tracemalloc.start()
        try:
            loaded = load_ball(str(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded == ball
        peaks[name] = peak - held
    assert peaks["u2028"] < 2 * peaks["newline"]
    assert peaks["formfeed"] < 2 * peaks["newline"]


def test_grown_ball_holds_a_shared_copy_of_each_domain():
    """Traced allocation of a radius-12 ball (5,714 elements).  On Python
    3.11 it holds 3.2 MB, 560 B per element, once a full collection has
    emptied the interpreter's free lists.  A walk that keeps each
    product's own domain tuples held 9.4 MB."""
    gens = spinal_gens()
    gens.tokens()  # the token table is the set's, not the ball's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ball = grow_ball(gens, 12)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ball) == 5714
    assert held < 5e6
