"""Words, partition sets, refinement, and eventually periodic points."""

import math
import random
from fractions import Fraction

import pytest

from conftest import (
    W,
    naive_random_leaves,
    outcome,
    refine_oracle,
    tree_complete_oracle,
    words,
)
from vncalc.errors import (
    LevelTooSmallError,
    MalformedWordError,
    NotAPartitionError,
)
from vncalc import words as words_module
from vncalc.words import (
    Alphabet,
    PartitionSet,
    RationalPoint,
    Word,
    _plain_letters,
    _random_leaves,
    _text,
    expand_to_level,
    is_partition_set,
    point_normalize,
    random_partition,
    refine,
)

A2 = Alphabet(2)
A3 = Alphabet(3)


def test_alphabet_rejects_degree_below_two():
    with pytest.raises(ValueError):
        Alphabet(1)


def test_word_parse_and_print_round_trip():
    for text in ["eps", "1", "1.1.2", "3.10.2"]:
        assert str(Word.parse(text)) == text


def test_word_parse_rejects_garbage():
    for bad in ["", "1..2", "a.b", "0", "-1"]:
        with pytest.raises(MalformedWordError):
            Word.parse(bad)


def test_word_memos_stay_bounded():
    """Each memo keeps at most _MEMO_SIZE words; longer words skip both memos."""
    size, cap = words_module._MEMO_SIZE, words_module._MEMO_LETTERS
    memos = (words_module._memo_join, words_module._memo_split)
    short = [tuple(int(b) + 1 for b in f"{i:013b}") for i in range(size + 100)]
    for letters in short + short[:100]:
        text = _text(letters)
        assert text == ".".join(map(str, letters))
        assert _plain_letters(text) == letters
    assert [m.cache_info().currsize for m in memos] == [size, size]

    misses = [m.cache_info().misses for m in memos]
    at_cap = (2,) * cap
    assert _plain_letters(_text(at_cap)) == at_cap
    assert [m.cache_info().misses for m in memos] == [k + 1 for k in misses]
    past_cap = (2,) * (cap + 1)
    assert _plain_letters(_text(past_cap)) == past_cap
    assert _plain_letters(" 2" + ".2" * cap) == past_cap
    assert [m.cache_info().misses for m in memos] == [k + 1 for k in misses]


def test_word_prefix_relations():
    assert W("1").is_prefix_of(W("1.2"))
    assert W("1").is_proper_prefix_of(W("1.2"))
    assert not W("1.2").is_prefix_of(W("1"))
    assert W("eps").is_prefix_of(W("2.1"))
    assert W("1.2").comparable(W("1"))
    assert not W("1.2").comparable(W("2"))


def test_is_partition_set_level_one():
    assert is_partition_set(words("1", "2"), A2)


def test_is_partition_set_one_caret():
    assert is_partition_set(words("1.1", "1.2", "2"), A2)


def test_is_partition_set_incomplete():
    # Measures 1/2 + 1/4 fall short of 1.
    assert Fraction(1, 2) + Fraction(1, 4) != 1
    assert not is_partition_set(words("1", "2.1"), A2)


def test_is_partition_set_rejects_prefix_overlap():
    assert not is_partition_set(words("1", "1.1", "2"), A2)


def test_is_partition_set_raises_on_bad_letter():
    with pytest.raises(MalformedWordError):
        is_partition_set(words("1", "3"), A2)


def test_partition_set_matches_tree_oracle():
    rng = random.Random(7)
    for n in (2, 3):
        alphabet = Alphabet(n)
        for _ in range(25):
            part = random_partition(alphabet, rng, rng.randint(0, 5))
            assert tree_complete_oracle(part.words, n)
            assert part.measure_total() == 1
            # Dropping any word breaks completeness.
            broken = list(part.words)[1:]
            if broken:
                assert not is_partition_set(broken, alphabet)


@pytest.mark.parametrize("max_depth", [None, 2, 4])
@pytest.mark.parametrize("expansions", [4, 40])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_random_leaves_match_resorting_loop(n, expansions, max_depth):
    # Same leaves, same rng state afterwards, and the same "no expandable
    # word" error as the loop that re-sorts on every expansion.
    alphabet = Alphabet(n)
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        got = outcome(_random_leaves, alphabet, rng, expansions, max_depth)
        assert got == outcome(naive_random_leaves, alphabet, ref, expansions, max_depth)
        assert rng.getstate() == ref.getstate()


def test_refine_when_one_refines_the_other():
    a = PartitionSet.from_words(words("1", "2"), A2)
    b = PartitionSet.from_words(words("1.1", "1.2", "2"), A2)
    assert refine(a, b).words == b.words


def test_refine_mixed():
    a = PartitionSet.from_words(words("1.1", "1.2", "2"), A2)
    b = PartitionSet.from_words(words("1", "2.1", "2.2"), A2)
    assert set(refine(a, b).words) == set(words("1.1", "1.2", "2.1", "2.2"))
    assert refine_oracle(a, b) == set(refine(a, b).words)


def test_refine_idempotent_and_symmetric():
    rng = random.Random(3)
    for n in (2, 3):
        alphabet = Alphabet(n)
        for _ in range(20):
            a = random_partition(alphabet, rng, rng.randint(0, 4))
            b = random_partition(alphabet, rng, rng.randint(0, 4))
            r = refine(a, b)
            assert r == refine(b, a)
            assert refine(a, a) == a
            assert refine_oracle(a, b) == set(r.words)
            # Both inputs coarsen the result.
            for w in r.words:
                assert any(u.is_prefix_of(w) for u in a.words)
                assert any(u.is_prefix_of(w) for u in b.words)


def test_expand_to_level_basic():
    a = PartitionSet.from_words(words("1", "2"), A2)
    assert expand_to_level(a, 2).words == tuple(words("1.1", "1.2", "2.1", "2.2"))
    b = PartitionSet.from_words(words("1.1", "1.2", "2"), A2)
    assert expand_to_level(b, 2).words == tuple(words("1.1", "1.2", "2.1", "2.2"))


def test_expand_to_level_count_cubed():
    level1 = PartitionSet.level(A3, 1)
    assert len(expand_to_level(level1, 3)) == 27


def test_expand_to_level_rejects_small_level():
    a = PartitionSet.from_words(words("1.1", "1.2", "2"), A2)
    with pytest.raises(LevelTooSmallError):
        expand_to_level(a, 1)


def test_expand_to_level_always_full_level():
    rng = random.Random(11)
    for _ in range(15):
        part = random_partition(A2, rng, rng.randint(0, 4))
        depth = part.max_depth() + rng.randint(0, 2)
        expanded = expand_to_level(part, depth)
        assert expanded == PartitionSet.level(A2, depth)
        assert is_partition_set(expanded.words, A2)


def test_from_words_rejects_incomplete():
    with pytest.raises(NotAPartitionError):
        PartitionSet.from_words(words("1", "2.1"), A2)


def test_point_normalize_primitive_root():
    assert point_normalize(W("eps"), W("1.1")) == point_normalize(W("eps"), W("1"))
    assert str(point_normalize(W("eps"), W("1.1"))) == "eps:1"


def test_point_normalize_rotates_across_boundary():
    p = point_normalize(W("1"), W("2.1"))
    assert (str(p.preperiod), str(p.period)) == ("eps", "1.2")
    # Same infinite word: compare long prefixes.
    q = RationalPoint(W("eps"), W("1.2"))
    raw_prefix = (1,) + (2, 1) * 10
    assert p.prefix(20).letters == raw_prefix[:20]
    assert q.prefix(20) == p.prefix(20)


def test_point_normalize_already_normal():
    p = point_normalize(W("2"), W("1"))
    assert (str(p.preperiod), str(p.period)) == ("2", "1")


def test_point_normalize_idempotent():
    rng = random.Random(5)
    for _ in range(200):
        pre = Word(tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4))))
        per = Word(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4))))
        p = point_normalize(pre, per)
        assert point_normalize(p.preperiod, p.period) == p


def test_point_equality_matches_prefix_oracle():
    rng = random.Random(9)
    for _ in range(300):
        pre1 = Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3))))
        per1 = Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))))
        pre2 = Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3))))
        per2 = Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))))
        p, q = point_normalize(pre1, per1), point_normalize(pre2, per2)
        k = len(pre1) + len(pre2) + 2 * math.lcm(len(per1), len(per2))
        same_prefix = p.prefix(k) == q.prefix(k)
        assert (p == q) == same_prefix


def test_point_rejects_empty_period():
    with pytest.raises(MalformedWordError):
        point_normalize(W("1"), Word())


def test_point_parse_round_trip():
    for text in ["eps:1", "2:1", "1.2:3.1"]:
        assert str(RationalPoint.parse(text)) == text


def test_partition_text_round_trip():
    from vncalc.words import format_partition, parse_partition

    part = PartitionSet.from_words(words("1.1", "1.2", "2"), A2)
    text = format_partition(part)
    assert text == "1.1\n1.2\n2"
    assert parse_partition(text, A2) == part
