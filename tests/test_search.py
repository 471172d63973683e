"""Ball growth, witness words, and the persistence format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_find_element, naive_grow_ball, spinal_gens
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
from vncalc import search
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
    assert gens.names() == ("sigma", "tau")
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
    elements = ball.elements()
    assert elements[identity(A2)] == ()
    assert elements[sigma_dot(A2)] == ("sigma",)
    assert elements[make_tau(A2)] == ("tau",)


def test_ball_radius_two_counts_noncommuting_products():
    ball = grow_ball(sigma_tau_gens(), 2)
    assert len(ball) == 5
    sig, tau = sigma_dot(A2), make_tau(A2)
    assert compose(sig, tau) != compose(tau, sig)
    assert ball.word_for(compose(sig, tau)) == ("sigma", "tau")
    assert ball.word_for(compose(tau, sig)) == ("tau", "sigma")
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


def test_ball_closed_under_inversion_for_involutive_generators():
    ball = grow_ball(spinal_gens(), 4)
    elements = set(ball.elements())
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


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
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
    elements = ball.elements()
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


@pytest.mark.parametrize(
    "block, message",
    [
        (
            "vn 2\n1 -> 2\n2 -> x\n",
            "line 10: bad element block for word at line 7: bad word syntax 'x'",
        ),
        (
            "vn x\n1 -> 2\n2 -> 1\n",
            "line 8: bad element block for word at line 7: "
            "invalid literal for int() with base 10: 'x'",
        ),
        (
            "vn 2\n1 -> 2\n2 -> 2\n",
            "line 7: bad element block for word at line 7: image words are not distinct",
        ),
        (
            "vn 2\n1 -> 2\n",
            "line 7: bad element block for word at line 7: "
            "domain is not a partition set: cone measures sum to 1/2, expected 1",
        ),
    ],
    ids=["bad-word", "bad-header", "repeated-images", "incomplete-domain"],
)
def test_load_ball_names_the_file_line_of_a_bad_block(tmp_path, block, message):
    bad = tmp_path / "bad.txt"
    bad.write_text("ball 2 1 2 0\n\nword\nvn 2\neps -> eps\n\nword sigma\n" + block)
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
