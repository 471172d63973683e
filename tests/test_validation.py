"""Validation at the edge: parsers and checks against the validate-every-Word oracle.

Element tables are checked once, on letter tuples, where they enter from
text or from a caller.  These tests hold that fast path to the original
implementations in ``conftest`` (the ``naive_*`` parsers): the same
tables are accepted with equal results, and every defect raises the same
exception class with a byte-identical message.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_from_words, naive_make_element, naive_parse_element
from vncalc.constructions import sigma_dot
from vncalc.element import format_element, make_element, parse_element, random_element
from vncalc.errors import LevelTooSmallError, MalformedWordError, ParameterRangeError, VnError
from vncalc.verify import enumerate_en_group, run_suites, verify_s_alpha_conjugation
from vncalc.words import Alphabet, PartitionSet, Word, random_partition


def outcome(fn, *args):
    """(exception class, message) of a call, or ("ok", result)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # any exception: its class is part of the comparison
        return type(exc), str(exc)


def word_text(letters) -> str:
    return ".".join(map(str, letters)) if letters else "eps"


def table_text(degree: int, rows, rng: random.Random) -> str:
    """Element text with random spacing around the arrow and blank lines."""
    lines = [f"vn {degree}"]
    for w, v in rows:
        pad = " " * rng.randint(0, 2), " " * rng.randint(0, 2)
        lines.append(f"{pad[0]}{word_text(w)} {pad[1]}-> {word_text(v)}{pad[0]}")
        if rng.random() < 0.05:
            lines.append("")
    return "\n".join(lines)


@st.composite
def element_rows(draw):
    """(degree, rows, rng): a 40-100 caret element at n in {2, 3, 5}, as letter rows.

    Half of the tables are refined at 1-20 random rows (refined rows
    included), so they are not canonical; the rows are shuffled.
    """
    degree = draw(st.sampled_from((2, 3, 5)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = random_element(Alphabet(degree), rng, draw(st.integers(40, 100)), max_depth=None)
    rows = [(w.letters, v.letters) for w, v in g.pairs()]
    for _ in range(draw(st.sampled_from((0, 0, 1, 5, 20)))):
        i = rng.randrange(len(rows))
        w, v = rows.pop(i)
        rows.extend((w + (a,), v + (a,)) for a in range(1, degree + 1))
    rng.shuffle(rows)
    return degree, rows, rng


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(element_rows())
def test_parsers_match_naive_oracle_on_valid_tables(table):
    degree, rows, rng = table
    text = table_text(degree, rows, rng)
    got, expected = parse_element(text), naive_parse_element(text)
    assert got == expected
    assert format_element(got) == format_element(expected)
    alphabet = Alphabet(degree)
    dom = PartitionSet.from_words([Word(w) for w, _ in rows], alphabet)
    image_of = dict(rows)
    images = [word_text(image_of[w.letters]) for w in dom.words]
    assert make_element(dom, images) == naive_make_element(dom, images)


def corrupt(degree: int, rows, kind: str, rng: random.Random):
    """The rows with one defect of the given kind."""
    rows = list(rows)
    i = rng.randrange(len(rows))
    w, v = rows[i]
    side = rng.randrange(2)
    if kind == "drop row":
        del rows[i]
    elif kind == "duplicate row":
        rows.insert(rng.randrange(len(rows) + 1), rows[i])
    elif kind == "duplicate image":
        j = rng.choice([j for j in range(len(rows)) if j != i])
        rows[i] = (w, rows[j][1])
    elif kind in ("letter 0", "letter above n"):
        bad = 0 if kind == "letter 0" else rng.randint(degree + 1, degree + 3)
        word = list(rows[i][side]) or [1]
        word[rng.randrange(len(word))] = bad
        rows[i] = (tuple(word), v) if side == 0 else (w, tuple(word))
    elif kind == "domain prefix overlap":
        long = [(w, v) for w, v in rows if w]
        w, v = rng.choice(long)
        rows.insert(rng.randrange(len(rows) + 1), (w[: rng.randrange(len(w))], v))
    elif kind == "image prefix overlap":
        long = [k for k in range(len(rows)) if rows[k][1]]
        k = rng.choice(long)
        w, v = rows[k]
        rows[k] = (w, v[: rng.randrange(len(v))])
    return rows


KINDS = (
    "drop row",
    "duplicate row",
    "duplicate image",
    "letter 0",
    "letter above n",
    "domain prefix overlap",
    "image prefix overlap",
)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(element_rows(), st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
def test_parsers_match_naive_oracle_on_corrupted_tables(table, kinds):
    degree, valid, rng = table
    rows = valid
    for kind in kinds:
        rows = corrupt(degree, rows, kind, rng)
    text = table_text(degree, rows, rng)
    expected = outcome(naive_parse_element, text)
    assert expected[0] != "ok"
    assert outcome(parse_element, text) == expected

    # make_element gets the valid domain and the corrupted image column.
    dom = PartitionSet.from_words([Word(w) for w, _ in valid], Alphabet(degree))
    images = [word_text(v) for _, v in rows]
    assert outcome(make_element, dom, images) == outcome(naive_make_element, dom, images)


@st.composite
def word_sets(draw):
    """Random partitions at n in {2, 3, 5}, some of them broken.

    A set may lose words, gain random words (letters up to n + 1, so
    above the degree too) or repeat a word.
    """
    degree = draw(st.sampled_from((2, 3, 5)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    alphabet = Alphabet(degree)
    ws = [w.letters for w in random_partition(alphabet, rng, draw(st.integers(0, 60)), None)]
    for _ in range(draw(st.integers(0, 2))):
        if ws:
            del ws[rng.randrange(len(ws))]
    for _ in range(draw(st.integers(0, 2))):
        ws.append(tuple(rng.randint(1, degree + 1) for _ in range(rng.randint(0, 6))))
    if ws and draw(st.booleans()):
        ws.append(rng.choice(ws))
    rng.shuffle(ws)
    return alphabet, [Word(w) for w in ws]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(word_sets())
def test_from_words_matches_naive_oracle(case):
    alphabet, ws = case
    assert outcome(PartitionSet.from_words, ws, alphabet) == outcome(
        naive_from_words, ws, alphabet
    )


# --- public construction still validates -------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Word((0,)), "letters must be integers >= 1, got 0"),
        (lambda: Word((1.5,)), "letters must be integers >= 1, got 1.5"),
        (lambda: Word(("1",)), "letters must be integers >= 1, got '1'"),
        (lambda: Word.parse("1.0.-1"), "letters must be integers >= 1, got 0"),
        (lambda: Word.parse(""), "empty word text; write 'eps' for the empty word"),
        (lambda: Word.parse("1..2"), "bad word syntax '1..2'"),
    ],
    ids=["zero", "float", "str", "parse-zero", "parse-empty", "parse-double-dot"],
)
def test_public_word_construction_validates(build, message):
    with pytest.raises(MalformedWordError) as info:
        build()
    assert str(info.value) == message


# --- typed errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PartitionSet.level(Alphabet(2), -1), ParameterRangeError, "depth must be >= 0"),
        (
            lambda: random_partition(Alphabet(2), random.Random(0), 2, max_depth=1),
            ParameterRangeError,
            "no expandable word below the depth bound",
        ),
        (
            lambda: verify_s_alpha_conjugation([], 0),
            ParameterRangeError,
            "empty sequences need an explicit alphabet; pass a plan",
        ),
        (lambda: enumerate_en_group([]), ParameterRangeError, "at least one generator is required"),
        (
            lambda: enumerate_en_group([sigma_dot(Alphabet(2))], level=0),
            LevelTooSmallError,
            "level 0 is below the deepest generator table 1",
        ),
        (lambda: run_suites("nope", (2,)), ParameterRangeError, "unknown suite 'nope'"),
    ],
    ids=["level-depth", "random-partition", "empty-sequence", "no-generators", "level", "suite"],
)
def test_range_errors_are_typed(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert isinstance(info.value, VnError) and isinstance(info.value, ValueError)
    assert str(info.value) == message
