"""Words, partition sets, and eventually periodic points."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    W,
    is_prefix,
    is_proper_prefix,
    naive_format_element,
    naive_parse_word,
    naive_random_leaves,
    outcome,
    tree_complete_oracle,
    words,
)
from vncalc.errors import MalformedWordError, NotAPartitionError
from vncalc import element as element_module
from vncalc.constructions import embed, sigma_dot
from vncalc.element import format_element, random_element
from vncalc.words import (
    Alphabet,
    PartitionSet,
    RationalPoint,
    Word,
    _random_leaves,
    point_normalize,
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


@pytest.mark.parametrize("bad", ["1_1", "+2", "\u0661.2", "2.\uff13", "1.1_0.2"])
def test_word_letters_are_ascii_digits(bad):
    """Spellings that ``int`` accepts but the writer never produces are refused."""
    with pytest.raises(MalformedWordError) as info:
        Word.parse(bad)
    assert str(info.value) == f"bad word syntax {bad!r}"


def test_word_parse_allows_spaces_around_letters():
    assert Word.parse(" 1 . 2 ") == Word((1, 2))
    assert Word.parse("\t10.\u30003 ") == Word((10, 3))


@pytest.mark.parametrize(
    "text",
    ["01.2", "1 .\x1f2", "\xa01", "-3.1", "- 1", "1-2", "1.-0", "1 2", "1.2.", "٣", "1.\u00b2"],
)
def test_word_parse_matches_the_regular_expression_oracle(text):
    assert outcome(Word.parse, text) == outcome(naive_parse_word, text)


def test_word_memos_stay_bounded():
    """format_element's row-text memo keeps at most _MEMO_SIZE rows."""
    size, cap = element_module._MEMO_SIZE, element_module._MEMO_LETTERS
    rows = element_module._memo_row_text
    rows.cache_clear()
    a2, rng = Alphabet(2), random.Random(0)
    while rows.cache_info().misses <= size:
        g = random_element(a2, rng, 40, max_depth=cap)
        assert format_element(g) == naive_format_element(g)
    assert rows.cache_info().currsize == size
    rows.cache_clear()
    at_cap = embed(Word((1,) * (cap - 1)), sigma_dot(a2))
    assert format_element(at_cap) == naive_format_element(at_cap)
    assert rows.cache_info().currsize == len(at_cap.dom)
    past_cap = embed(Word((1,) * cap), sigma_dot(a2))
    assert format_element(past_cap) == naive_format_element(past_cap)
    assert rows.cache_info().currsize == len(at_cap.dom)


def test_word_comparisons_follow_the_letter_tuples():
    """Word compares and hashes as its letter tuple does, ordering included,
    and leaves comparisons with any other class to that class."""
    ws = [Word(t) for t in [(), (1,), (1, 1), (1, 2), (2,), (2, 1), (10,)]]
    for a in ws:
        for b in ws:
            x, y = a.letters, b.letters
            assert (a == b, a != b, a < b, a <= b, a > b, a >= b) == (
                x == y, x != y, x < y, x <= y, x > y, x >= y
            )
        assert hash(a) == hash((a.letters,))
        assert a != a.letters
        assert a.__eq__(a.letters) is NotImplemented
        for method in (a.__lt__, a.__le__, a.__gt__, a.__ge__):
            assert method(a.letters) is NotImplemented
        with pytest.raises(TypeError):
            a < a.letters
    assert sorted(reversed(ws)) == ws


def test_word_prefix_relations():
    assert is_prefix(W("1"), W("1.2"))
    assert is_proper_prefix(W("1"), W("1.2"))
    assert not is_proper_prefix(W("1.2"), W("1.2"))
    assert not is_prefix(W("1.2"), W("1"))
    assert is_prefix(W("eps"), W("2.1"))


def test_partition_set_matches_tree_oracle():
    rng = random.Random(7)
    for n in (2, 3):
        alphabet = Alphabet(n)
        for _ in range(25):
            part = [Word(w) for w in _random_leaves(alphabet, rng, rng.randint(0, 5), None)]
            assert tree_complete_oracle(part, n)
            assert PartitionSet.from_words(part, alphabet).words == tuple(part)
            # Dropping any word breaks completeness.
            if len(part) > 1:
                with pytest.raises(NotAPartitionError):
                    PartitionSet.from_words(part[1:], alphabet)


@pytest.mark.parametrize("max_depth", [None, 0, 1, 2, 4])
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


def test_from_words_rejects_incomplete():
    with pytest.raises(NotAPartitionError):
        PartitionSet.from_words(words("1", "2.1"), A2)


@pytest.mark.parametrize(
    "texts, n, measure",
    [
        ((), 2, "0"),
        (("1", "2"), 3, "2/3"),
        (("1", "2"), 4, "1/2"),
        (("1.1", "2"), 3, "4/9"),
    ],
    ids=["empty", "two-thirds", "reduced", "two-depths"],
)
def test_incomplete_sets_report_their_reduced_cone_measure(texts, n, measure):
    with pytest.raises(NotAPartitionError) as info:
        PartitionSet.from_words(words(*texts), Alphabet(n))
    assert str(info.value) == f"cone measures sum to {measure}, expected 1"


@settings(max_examples=200)
@given(st.integers(2, 5), st.integers(0, 12), st.data())
def test_the_cone_measure_is_written_as_fraction_writes_it(n, expansions, data):
    """Any prefix-free set: a random partition set with some words dropped."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    leaves = _random_leaves(Alphabet(n), rng, expansions, None)
    kept = [w for w in leaves if data.draw(st.booleans())]
    total = sum(Fraction(1, n ** len(w)) for w in kept)
    result = outcome(PartitionSet.from_words, [Word(w) for w in kept], Alphabet(n))
    if total == 1:
        assert result[0] == "ok"
    else:
        assert result == (NotAPartitionError, f"cone measures sum to {total}, expected 1")


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

