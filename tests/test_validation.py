"""Validation at the edge: parsers and checks against the validate-every-Word oracle.

Element tables are checked once, on letter tuples, where they enter from
text or from a caller.  These tests hold that fast path to the original
implementations in ``conftest`` (the ``naive_*`` parsers): the same
tables are accepted with equal results, and every defect raises the same
exception class with a byte-identical message.
"""

import contextlib
import functools
import os
import random
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    naive_format_element,
    naive_load_ball,
    naive_from_words,
    naive_make_element,
    naive_parse_element,
    naive_tuple_parse_element,
    outcome,
    spinal_gens,
)
from vncalc.cli import main
from vncalc.constructions import (
    AlphaPlan,
    Permutation,
    SidonSet,
    default_base,
    dot,
    embed,
    load_alpha_plan,
    make_s_alpha,
    make_t,
    make_tau,
    plan_alpha,
    save_alpha_plan,
    sidon_generate,
    sigma_dot,
)
import vncalc.element as element_module
from vncalc.element import (
    _MEMO_LETTERS,
    VnElement,
    _read_element,
    canonicalize,
    compose,
    format_element,
    make_element,
    parse_element,
    power,
    random_element,
)
from vncalc.errors import (
    AlphabetMismatchError,
    ExpressionError,
    FileFormatError,
    LevelTooSmallError,
    MalformedWordError,
    NotABijectionError,
    ParameterRangeError,
    PlanInvariantError,
    VnError,
)
from vncalc.expressions import parse_expression
from vncalc.search import (
    GeneratorSet,
    grow_ball,
    load_ball,
    load_generator_manifest,
    save_ball,
)
from vncalc.verify import enumerate_en_group, run_suites, verify_s_alpha_conjugation
from vncalc.words import Alphabet, PartitionSet, RationalPoint, Word, _random_leaves


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


def test_property_tests_run_derandomized_without_a_database():
    """The profile conftest loads holds for every property test that sets
    only its example count."""
    assert settings.default.derandomize
    assert settings.default.database is None
    assert settings.default.deadline is None
    assert settings(max_examples=7).derandomize


@settings(max_examples=40)
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


@settings(max_examples=80)
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


def checked_canonicalize_oracle(pairs, alphabet: Alphabet):
    """The checks ``canonicalize`` owes a raw table, from the naive ones:
    a repeated domain word, then the domain as ``naive_from_words`` checks
    it, then the images as ``naive_make_element`` checks them."""
    seen = set()
    for w, _ in pairs:
        if w in seen:
            raise NotABijectionError(f"duplicate domain word {w}")
        seen.add(w)
    dom = naive_from_words([w for w, _ in pairs], alphabet)
    image_of = dict(pairs)
    return naive_make_element(dom, [image_of[w] for w in dom.words])


# "letter 0" is left out: a Word cannot hold it, so it never reaches
# canonicalize.
WORD_KINDS = [k for k in KINDS if k != "letter 0"]


@settings(max_examples=80)
@given(element_rows(), st.lists(st.sampled_from(WORD_KINDS), max_size=3))
def test_canonicalize_checks_like_the_naive_constructors(table, kinds):
    # With no defect the table is valid and both sides reduce it.
    degree, rows, rng = table
    for kind in kinds:
        rows = corrupt(degree, rows, kind, rng)
    alphabet = Alphabet(degree)
    pairs = [(Word(w), Word(v)) for w, v in rows]
    expected = outcome(checked_canonicalize_oracle, pairs, alphabet)
    assert (expected[0] == "ok") == (not kinds)
    assert outcome(canonicalize, pairs, alphabet) == expected


@st.composite
def deep_elements(draw):
    """(g, rng): a 40-100 caret element at n in {2, 3, 5} times t^k, k in 0..48.

    t^k has words of up to k + 1 letters, so many tables hold words past
    the memos' length cap; over the examples there are more distinct words
    than a memo keeps, so the memos evict.
    """
    alphabet = Alphabet(draw(st.sampled_from((2, 3, 5))))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = random_element(alphabet, rng, draw(st.integers(40, 100)), max_depth=None)
    return compose(g, power(make_t(alphabet), draw(st.integers(0, 48)))), rng


GARBLED = ("eps", "", "x", "1..2", "0", "+1", "1.-1", "1_1", " 1 . 2 ")


def garble(text: str, rng: random.Random) -> str:
    """The text with one word of one row replaced by a token from GARBLED."""
    lines = text.split("\n")
    i = rng.choice([i for i, ln in enumerate(lines) if "->" in ln])
    left, right = lines[i].split("->", 1)
    token = rng.choice(GARBLED)
    lines[i] = f"{token} ->{right}" if rng.randrange(2) else f"{left}-> {token}"
    return "\n".join(lines)


@settings(max_examples=60)
@given(
    deep_elements(),
    st.lists(st.sampled_from(KINDS), max_size=2),
    st.booleans(),
)
def test_word_memos_match_unmemoized_conversion(element, kinds, garbled):
    g, rng = element
    text = format_element(g)
    assert text == naive_format_element(g)
    assert parse_element(text) == naive_tuple_parse_element(text) == g

    degree = g.alphabet.degree
    rows = list(zip(g.dom, g.img))
    for kind in kinds:
        rows = corrupt(degree, rows, kind, rng)
    mutated = table_text(degree, rows, rng)
    if garbled:
        mutated = garble(mutated, rng)
    assert outcome(parse_element, mutated) == outcome(naive_tuple_parse_element, mutated)


def test_memo_hit_still_checks_the_degree():
    """A word text seen at n = 3 is checked again at n = 2, with its line number."""
    rows = "1 -> 3.3\n2.1 -> 2\n2.2 -> 3.1\n2.3 -> 1\n3 -> 3.2\n"
    assert parse_element("vn 3\n" + rows) == naive_tuple_parse_element("vn 3\n" + rows)
    with pytest.raises(FileFormatError) as info:
        parse_element("vn 2\n" + rows)
    assert str(info.value) == "line 2: letter 3 of word 3.3 exceeds alphabet degree 2"
    assert outcome(parse_element, "vn 2\n" + rows) == outcome(
        naive_tuple_parse_element, "vn 2\n" + rows
    )


@pytest.mark.parametrize("word", ["1_1", "+2", "\u0661", "1.\uff12"])
def test_row_letters_are_ascii_digits(word):
    """A row with a letter that ``int`` reads but the writer never writes
    is refused at its line, even when the letter lies in the alphabet."""
    text = f"vn 12\n{word} -> 1\n" + "".join(f"{k} -> {k}\n" for k in range(2, 13))
    with pytest.raises(FileFormatError) as info:
        parse_element(text)
    assert str(info.value) == f"line 2: bad word syntax {word!r}"
    assert outcome(parse_element, text) == outcome(naive_tuple_parse_element, text)


INT_ERROR = "line 1: invalid literal for int() with base 10: {!r}"
BALL_BODY = "\n\nword\nvn 2\neps -> eps\n"

HEADER_NUMBERS = [
    (_read_element, "vn {}\neps -> eps\n", 2, INT_ERROR),
    (load_ball, "ball {} 0 1 0" + BALL_BODY, 2, INT_ERROR),
    (load_ball, "ball 2 {} 1 0" + BALL_BODY, 1, INT_ERROR),
    (load_ball, "ball 2 0 {} 0" + BALL_BODY, 1, INT_ERROR),
    (load_alpha_plan, "alpha {} 2\n1 @ b.elt\n", 2, INT_ERROR),
    (load_alpha_plan, "alpha 2 {}\n1 @ b.elt\n", 2, INT_ERROR),
    (load_alpha_plan, "alpha 2 2\n{} @ b.elt\n", 1, "line 2: bad index {!r}"),
]


@pytest.mark.parametrize("reader, text, value, message", HEADER_NUMBERS)
def test_header_numbers_are_ascii_digits(tmp_path, reader, text, value, message):
    """The numbers of element, ball and plan headers and a plan's indices
    follow the rule of word letters: ASCII digits only.  Any other spelling
    gets the message that a non-number such as ``x`` gets."""
    (tmp_path / "b.elt").write_text(format_element(default_base(Alphabet(2), 1)[0]) + "\n")
    path = tmp_path / "file.txt"
    path.write_text(text.format(value))
    reader(str(path))
    for number in ["x", chr(0x660 + value), f"0_{value}", f"+{value}"]:
        path.write_text(text.format(number))
        with pytest.raises(FileFormatError) as info:
            reader(str(path))
        assert str(info.value) == message.format(number)


def test_negative_plan_length_keeps_its_message(tmp_path):
    path = tmp_path / "p.alpha"
    path.write_text("alpha 2 -1\n")
    with pytest.raises(FileFormatError) as info:
        load_alpha_plan(str(path))
    assert str(info.value) == "line 1: sequence length must be >= 0"


@pytest.mark.parametrize("letters", [_MEMO_LETTERS, _MEMO_LETTERS + 1])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_row_text_memo_matches_the_naive_writer_at_its_length_cap(n, letters):
    """A table whose longest word has _MEMO_LETTERS letters is written through
    the row-text memo, one entry per row; one letter more and the memo is
    not touched.  Both give the naive writer's text, which reads back."""
    alphabet = Alphabet(n)
    g = embed(Word((n,) * (letters - 1)), sigma_dot(alphabet))
    assert max(map(len, g.dom + g.img)) == letters
    memo = element_module._memo_row_text
    memo.cache_clear()
    text = format_element(g)
    assert text == naive_format_element(g)
    assert memo.cache_info().currsize == (len(g.dom) if letters == _MEMO_LETTERS else 0)
    assert parse_element(text) == g


def clear_parse_memos():
    element_module._memo_row.cache_clear()
    element_module._memo_partition.cache_clear()


# Image sets that fail, after {1, 2} has been memoized as a partition set,
# and how many sets the partition memo then holds: {1, 2}, and the text's
# domain when that is another set.
IMAGE_FAILURES = {
    # Repeated images whose distinct words, {1, 2}, form a memoized set.
    "repeats-of-a-partition-set": (
        "vn 2\n1.1 -> 1\n1.2 -> 2\n2 -> 2", "image words are not distinct", 2
    ),
    "repeats": ("vn 2\n1 -> 1\n2 -> 1", "image words are not distinct", 1),
    "incomplete": (
        "vn 2\n1 -> 1.1\n2 -> 1.2",
        "images are not a partition set: cone measures sum to 1/2, expected 1",
        1,
    ),
    "overlapping": (
        "vn 2\n1 -> 1\n2.1 -> 1.2\n2.2 -> 2",
        "images are not a partition set: 1 is a proper prefix of 1.2",
        2,
    ),
}


@pytest.mark.parametrize("text, message, kept", IMAGE_FAILURES.values(), ids=IMAGE_FAILURES)
def test_failed_image_sets_keep_their_errors_and_stay_out_of_the_memo(text, message, kept):
    """The image set goes straight to the partition memo; repeats are looked
    for only when it fails, and are reported first.  A failed set is not
    memoized: parsing the text again misses on its image set once more."""
    clear_parse_memos()
    parse_element("vn 2\n1 -> 2\n2 -> 1")
    memo = element_module._memo_partition
    for _ in range(2):
        misses = memo.cache_info().misses
        assert outcome(parse_element, text) == (NotABijectionError, message)
        assert outcome(naive_tuple_parse_element, text) == (NotABijectionError, message)
    assert memo.cache_info().misses == misses + 1
    assert memo.cache_info().currsize == kept


# Each sequence is parsed in order on empty memos; every text must give
# the unmemoized parser's result or error, and the listed outcome.
MEMO_SEQUENCES = {
    # The domain {1, 2} is complete at n = 2 and not at n = 3.
    "domain-at-another-degree": [
        ("vn 2\n1 -> 2\n2 -> 1", "ok"),
        ("vn 3\n1 -> 2\n2 -> 1", FileFormatError),
        ("vn 3\n1 -> 2\n2 -> 1\n3 -> 3", "ok"),
        ("vn 2\n1 -> 2\n2 -> 1\n3 -> 3", FileFormatError),
    ],
    # The images {1, 2.1, 2.2} are complete at n = 2 and not at n = 3;
    # at n = 2 the set was first checked as a domain.
    "images-at-another-degree": [
        ("vn 2\n1 -> 1\n2.1 -> 2.1\n2.2 -> 2.2", "ok"),
        ("vn 3\n1 -> 1\n2 -> 2.1\n3 -> 2.2", NotABijectionError),
        ("vn 5\n1 -> 1\n2 -> 2\n3 -> 3\n4 -> 4\n5 -> 5", "ok"),
        ("vn 2\n1 -> 1\n2 -> 2\n3 -> 3\n4 -> 4\n5 -> 5", FileFormatError),
    ],
    # Rows and sets first seen in tables that failed, then reused.
    "seen-in-a-failed-table": [
        ("vn 2\n1.1 -> 1\n1.2 -> 2.1\n2 -> 2.1", NotABijectionError),
        ("vn 2\n1.1 -> 1\n1.2 -> 2.1\n2 -> 2.2", "ok"),
        ("vn 2\n1 -> 1.1\n1 -> 2\n2 -> 1.2", FileFormatError),
        ("vn 2\n1 -> 1.1\n2 -> 1.2", NotABijectionError),
        ("vn 2\n1 -> 2\n2 -> 1", "ok"),
        ("vn 2\n1 -> 1\n2.1 -> 2\neps -> 2.2", FileFormatError),
        ("vn 2\n1 -> 1\n2.1 -> 2.1\n2.2 -> 2.2", "ok"),
    ],
    # A failed check is not memoized: the same set fails again, and the
    # same rows in a complete table pass.
    "failure-not-kept": [
        ("vn 2\n1 -> 1\n2.1 -> 2", FileFormatError),
        ("vn 2\n1 -> 1\n2.1 -> 2", FileFormatError),
        ("vn 2\n1 -> 1\n2.1 -> 2\n2.2 -> 2.2", NotABijectionError),
        ("vn 2\n1 -> 1\n2.1 -> 2.1\n2.2 -> 2.2", "ok"),
        ("vn 2\n1 -> 1.1\n2 -> 1.2.1", NotABijectionError),
        ("vn 2\n1 -> 1.1\n2 -> 1.2.1", NotABijectionError),
    ],
}


@pytest.mark.parametrize("sequence", MEMO_SEQUENCES.values(), ids=MEMO_SEQUENCES)
def test_parse_memos_match_unmemoized_parser(sequence):
    clear_parse_memos()
    for text, expected in sequence:
        result = outcome(parse_element, text)
        assert result == outcome(naive_tuple_parse_element, text), text
        assert result[0] == expected, text


def test_parse_memos_keep_no_table_with_long_words():
    """t^40 holds words of up to 41 letters, and each of its rows has more
    than 2 * _MEMO_LETTERS characters: it leaves no memo entry."""
    clear_parse_memos()
    t = make_t(Alphabet(2))
    t40 = power(t, 40)
    text = format_element(t40)
    assert min(map(len, text.splitlines()[1:])) > 2 * _MEMO_LETTERS
    assert parse_element(text) == naive_tuple_parse_element(text) == t40
    assert element_module._memo_row.cache_info().currsize == 0
    assert element_module._memo_partition.cache_info().currsize == 0
    # t^3's 5 rows and its domain and image sets are memoized.
    parse_element(format_element(power(t, 3)))
    assert element_module._memo_row.cache_info().currsize == 5
    assert element_module._memo_partition.cache_info().currsize == 2


def test_parse_memos_stay_bounded_on_a_ball_larger_than_they_hold(tmp_path):
    """The radius-14 ball over {sigma, tau, s} at n = 2 has 8,258 distinct
    rows and 4,246 distinct domains, more than either memo keeps."""
    ball = grow_ball(spinal_gens(), 14)
    path = str(tmp_path / "ball.txt")
    save_ball(ball, path)
    clear_parse_memos()
    assert load_ball(path) == ball
    for memo in (element_module._memo_row, element_module._memo_partition):
        info = memo.cache_info()
        assert info.currsize <= info.maxsize < info.misses


def test_loaded_elements_share_their_domain_tuples(tmp_path):
    a2 = Alphabet(2)
    gens = GeneratorSet.from_dict({"sigma": sigma_dot(a2), "tau": make_tau(a2)})
    ball = grow_ball(gens, 6)
    path = str(tmp_path / "ball.txt")
    save_ball(ball, path)
    loaded = load_ball(path)
    assert loaded == ball
    domains = [g.dom for _, g in loaded.entries]
    assert len({id(d) for d in domains}) == len(set(domains)) < len(domains)


@functools.cache
def saved_ball_text() -> str:
    manifest = (("s", "s.elt"), ("sigma", "sigma.elt"), ("tau", "tau.elt"))
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "ball.txt")
        save_ball(grow_ball(spinal_gens(), 3, manifest=manifest), path)
        with open(path) as fh:
            return fh.read()


LINE_KINDS = ("drop", "duplicate", "blank", "spaces", "swap", "garbage", "header", "repeat")
GARBAGE_LINES = ("word", "word s", "vn 3", "1 -> 1", "x", "gen a b", "eps -> eps", "2 -> 1.1")


@st.composite
def ball_texts(draw):
    """A saved radius-3 ball file with up to three line-level corruptions."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = saved_ball_text().split("\n")
    for _ in range(draw(st.integers(0, 3))):
        kind = rng.choice(LINE_KINDS)
        i = rng.randrange(len(lines))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind in ("blank", "spaces"):
            lines.insert(i, "" if kind == "blank" else " \t ")
        elif kind == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "garbage":
            lines[i] = rng.choice(GARBAGE_LINES)
        elif kind == "header":
            fields = [rng.choice(("2", "3", "x")), str(rng.randint(-2, 4)), str(rng.randint(0, 30))]
            lines[0] = "ball " + " ".join(fields) + " " + rng.choice(("0", "1", "2"))
        else:
            # Another word for an element already listed, in its own block.
            start = rng.choice([k for k, ln in enumerate(lines) if ln.startswith("word")])
            end = start + 1
            while end < len(lines) and lines[end].strip():
                end += 1
            lines += ["", "word s s s", *lines[start + 1 : end]]
    return "\n".join(lines)


def block_element(lines: list[str], word_line: int) -> VnElement:
    """The element under the word at a 1-based line, read without the package's memos."""
    end = word_line
    while end < len(lines) and lines[end].strip():
        end += 1
    return naive_tuple_parse_element("\n".join(lines[word_line:end]))


@settings(max_examples=200)
@given(ball_texts())
def test_load_ball_matches_line_by_line_reader(tmp_path_factory, text):
    """Same ball, or same error class, text and line, as the reader that
    scanned every line of a block; except for the two files that only
    ``load_ball`` refuses, which are checked to be what it says."""
    path = tmp_path_factory.mktemp("ball") / "ball.txt"
    path.write_text(text)
    result = outcome(load_ball, str(path))
    lines = text.split("\n")
    if result[0] is FileFormatError and result[1] == "line 1: radius must be >= 0":
        assert int(lines[0].split()[2]) < 0
        return
    repeated = re.fullmatch(r"line (\d+): element already listed for the word at line (\d+)", str(result[1]))
    if result[0] is FileFormatError and repeated:
        later, first = map(int, repeated.groups())
        assert first < later
        assert block_element(lines, first) == block_element(lines, later)
        return
    assert result == outcome(naive_load_ball, str(path))


@st.composite
def word_sets(draw):
    """Random partitions at n in {2, 3, 5}, some of them broken.

    A set may lose words, gain random words (letters up to n + 1, so
    above the degree too) or repeat a word.
    """
    degree = draw(st.sampled_from((2, 3, 5)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    alphabet = Alphabet(degree)
    ws = _random_leaves(alphabet, rng, draw(st.integers(0, 60)), None)
    for _ in range(draw(st.integers(0, 2))):
        if ws:
            del ws[rng.randrange(len(ws))]
    for _ in range(draw(st.integers(0, 2))):
        ws.append(tuple(rng.randint(1, degree + 1) for _ in range(rng.randint(0, 6))))
    if ws and draw(st.booleans()):
        ws.append(rng.choice(ws))
    rng.shuffle(ws)
    return alphabet, [Word(w) for w in ws]


@settings(max_examples=150)
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
        (lambda: Word((True, 2)), "letters must be integers >= 1, got True"),
        (lambda: Word.parse("1.0.-1"), "letters must be integers >= 1, got 0"),
        (lambda: Word.parse(""), "empty word text; write 'eps' for the empty word"),
        (lambda: Word.parse("1..2"), "bad word syntax '1..2'"),
        (lambda: RationalPoint(Word(), Word()), "period must be nonempty"),
        (lambda: RationalPoint(Word(), Word((1, 1))), "period 1.1 is not primitive"),
        (
            lambda: RationalPoint(Word((1,)), Word((2, 1))),
            "preperiod 1 can be absorbed into the period",
        ),
        (lambda: RationalPoint.parse("1.2"), "point syntax is '<pre>:<per>', got '1.2'"),
    ],
    ids=[
        "zero", "float", "str", "bool", "parse-zero", "parse-empty", "parse-double-dot",
        "point-empty-period", "point-period-not-primitive", "point-preperiod-absorbed",
        "point-syntax",
    ],
)
def test_public_word_construction_validates(build, message):
    with pytest.raises(MalformedWordError) as info:
        build()
    assert str(info.value) == message


# --- typed errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: random_element(Alphabet(2), random.Random(0), 2, max_depth=1),
            ParameterRangeError,
            "no expandable word below the depth bound",
        ),
        (
            lambda: verify_s_alpha_conjugation([], 0),
            ParameterRangeError,
            "an alphabet is required for the empty sequence",
        ),
        (lambda: enumerate_en_group([]), ParameterRangeError, "at least one generator is required"),
        (
            lambda: enumerate_en_group([sigma_dot(Alphabet(2))], level=0),
            LevelTooSmallError,
            "level 0 is below the deepest generator table 1",
        ),
        (lambda: run_suites("nope", (2,)), ParameterRangeError, "unknown suite 'nope'"),
        (lambda: run_suites("eq3", (2,), count=-1), ParameterRangeError, "count must be >= 0"),
        (
            lambda: Permutation((1, 1)),
            ParameterRangeError,
            "not a permutation of 1..2: (1, 1)",
        ),
        (
            lambda: Permutation.from_cycles([(3,)], 2),
            ParameterRangeError,
            "cycle entry 3 outside 1..2",
        ),
        (
            lambda: Permutation.from_cycles([(1, 2), (2,)], 2),
            ParameterRangeError,
            "cycles are not disjoint at 2",
        ),
        (
            lambda: SidonSet(frozenset({0})),
            ParameterRangeError,
            "members must be positive integers, got 0",
        ),
        (
            lambda: SidonSet(frozenset({1, 2, 3})),
            ParameterRangeError,
            "pairwise differences collide in [1, 2, 3]",
        ),
        (lambda: sidon_generate(2, "nope"), ParameterRangeError, "unknown strategy 'nope'"),
        (
            lambda: make_s_alpha([]),
            ParameterRangeError,
            "an alphabet is required for the empty sequence",
        ),
        (
            lambda: AlphaPlan.from_entries([]),
            ParameterRangeError,
            "an alphabet is required for the empty sequence",
        ),
        (lambda: plan_alpha([]), ParameterRangeError, "base must be nonempty"),
        (
            # Raises before the file is opened.
            lambda: save_alpha_plan(plan_alpha(default_base(Alphabet(2), 1)), os.devnull, {}),
            FileFormatError,
            "no element file given for indices [1]",
        ),
        (
            lambda: default_base(Alphabet(2), 5),
            ParameterRangeError,
            "base size must lie in 0..4 at degree 2, got 5",
        ),
        (
            lambda: default_base(Alphabet(3), -1),
            ParameterRangeError,
            "base size must lie in 0..4 at degree 3, got -1",
        ),
    ],
    ids=[
        "random-partition",
        "empty-sequence",
        "no-generators",
        "level",
        "suite",
        "suite-count",
        "permutation",
        "cycle-entry",
        "cycles-disjoint",
        "sidon-member",
        "sidon-collide",
        "sidon-strategy",
        "spinal-empty",
        "plan-entries-empty",
        "plan-base-empty",
        "plan-file-missing",
        "default-base-size",
        "default-base-negative",
    ],
)
def test_range_errors_are_typed(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert isinstance(info.value, VnError) and isinstance(info.value, ValueError)
    assert str(info.value) == message


# --- typed errors of the constructions, from the library and the CLI -----------
# Each raise in ``vncalc.constructions`` that the tests above leave out.
# A row gives the files it needs, the library call, its error and text,
# and the command that reaches the same error, or None where no command
# does: the CLI builds ``dot`` at the session's degree, and it reads every
# sequence from a plan file, whose reader refuses an entry of another
# degree before ``make_s_alpha`` or ``AlphaPlan.from_entries`` sees it.
# Every command that fails prints ``error: <text>`` and exits 1.  ``{d}``
# stands for the directory that holds the files; ``s2.elt`` and ``s3.elt``
# are sigma at n = 2 and n = 3.

SIG2, SIG3 = sigma_dot(Alphabet(2)), sigma_dot(Alphabet(3))


def plan_file(text):
    return {"s2.elt": format_element(SIG2), "s3.elt": format_element(SIG3), "p.alpha": text}


def load_plan(d):
    return load_alpha_plan(os.path.join(d, "p.alpha"))


MAKE_S = ["make", "s", "-n", "2", "--alpha", "{d}/p.alpha"]

CONSTRUCTION_ERRORS = {
    "dot-degree": (
        {},
        lambda d: dot(Permutation((2, 1, 3)), Alphabet(2)),
        AlphabetMismatchError,
        "permutation degree 3 vs alphabet degree 2",
        None,
    ),
    "spinal-mixed": (
        {},
        lambda d: make_s_alpha([SIG2, SIG3]),
        AlphabetMismatchError,
        "sequence entries use mixed alphabets",
        None,
    ),
    "plan-entries-mixed": (
        {},
        lambda d: AlphaPlan.from_entries([SIG2, SIG3]),
        AlphabetMismatchError,
        "entries use mixed alphabets",
        None,
    ),
    "plan-not-sidon": (
        plan_file("alpha 2 3\n1 @ s2.elt\n2 @ s2.elt\n3 @ s2.elt\n"),
        load_plan,
        PlanInvariantError,
        "pairwise differences collide in [1, 2, 3]",
        MAKE_S,
    ),
    "plan-padding": (
        plan_file("alpha 2 5\n1 @ s2.elt\n2 @ s2.elt\n"),
        load_plan,
        PlanInvariantError,
        "entry 1 must be trivial below the padding width 1",
        MAKE_S,
    ),
    "plan-base-mixed": (
        {"s2.elt": format_element(SIG2), "s3.elt": format_element(SIG3)},
        lambda d: plan_alpha([SIG2, SIG3]),
        AlphabetMismatchError,
        "base elements use mixed alphabets",
        ["plan", "--base", "{d}/s2.elt", "{d}/s3.elt"],
    ),
    "plan-empty": (plan_file("\n\n"), load_plan, FileFormatError, "empty plan file", MAKE_S),
    "plan-line": (
        plan_file("alpha 2 2\n1 s2.elt\n"),
        load_plan,
        FileFormatError,
        "line 2: expected '<index> @ <element-file>', got '1 s2.elt'",
        MAKE_S,
    ),
    "plan-index": (
        plan_file("alpha 2 2\n3 @ s2.elt\n"),
        load_plan,
        FileFormatError,
        "line 2: index 3 outside 1..2",
        MAKE_S,
    ),
    "plan-entry-degree": (
        plan_file("alpha 2 2\n1 @ s3.elt\n"),
        load_plan,
        FileFormatError,
        "line 2: element at index 1 has degree 3, plan has 2",
        MAKE_S,
    ),
}


@pytest.mark.parametrize(
    "files, call, error, message, argv",
    CONSTRUCTION_ERRORS.values(),
    ids=CONSTRUCTION_ERRORS,
)
def test_construction_errors_are_typed_in_the_library_and_the_cli(
    tmp_path, capsys, files, call, error, message, argv
):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(error) as info:
        call(str(tmp_path))
    assert type(info.value) is error
    assert str(info.value) == message
    if argv is not None:
        assert main([arg.format(d=tmp_path) for arg in argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


# --- typed errors of the expression parser and the search files ----------------
# Raises of the expression parser and of the search module's file readers
# that the tables above leave out, in the layout of the last one; a pattern
# stands for a text that names how deep the Python stack was.  No command
# loads a ball file.  Every row runs under a recursion limit 100 frames
# above the test's own depth, so that the deep expression meets it long
# before ``MAX_NESTING``.

DEEP = "(" * 150 + "sigma" + ")" * 150


def eval_argv(text):
    return ["eval", "-n", "2", "-e", text]


@contextlib.contextmanager
def shallow_stack():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


PARSER_AND_FILE_ERRORS = {
    "trailing-input": (
        {},
        lambda d: parse_expression("sigma sigma"),
        ExpressionError,
        "trailing input 'sigma' (at position 6)",
        eval_argv("sigma sigma"),
    ),
    "negative-power": (
        {},
        lambda d: parse_expression("sigma^-tau"),
        ExpressionError,
        "expected an integer after '^-' (at position 7)",
        eval_argv("sigma^-tau"),
    ),
    "cycle-letter": (
        {},
        lambda d: parse_expression("dot((1 x))"),
        ExpressionError,
        "expected a letter or ')' in a cycle (at position 7)",
        eval_argv("dot((1 x))"),
    ),
    "empty-cycle": (
        {},
        lambda d: parse_expression("dot(())"),
        ExpressionError,
        "empty cycle (at position 6)",
        eval_argv("dot(())"),
    ),
    "python-stack": (
        {},
        lambda d: parse_expression(DEEP),
        ExpressionError,
        re.compile(r"expression nests too deeply for the Python stack \(reached \d+ levels\)"),
        eval_argv(DEEP),
    ),
    "ball-gen-line": (
        {"ball.txt": "ball 2 0 1 0\ngen a\n"},
        lambda d: load_ball(os.path.join(d, "ball.txt")),
        FileFormatError,
        "line 2: expected 'gen <name> <file>', got 'gen a'",
        None,
    ),
    "manifest-line": (
        {"gens.txt": "# generators\ngen sigma\n"},
        lambda d: load_generator_manifest(os.path.join(d, "gens.txt")),
        FileFormatError,
        "line 2: expected 'gen <name> <element-file>', got 'gen sigma'",
        ["ball", "--gens", "{d}/gens.txt", "--radius", "1", "--out", "{d}/out.txt"],
    ),
}


def same_text(expected, text):
    if isinstance(expected, re.Pattern):
        return expected.fullmatch(text) is not None
    return text == expected


@pytest.mark.parametrize(
    "files, call, error, message, argv",
    PARSER_AND_FILE_ERRORS.values(),
    ids=PARSER_AND_FILE_ERRORS,
)
def test_parser_and_file_errors_are_typed_in_the_library_and_the_cli(
    tmp_path, capsys, files, call, error, message, argv
):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with shallow_stack(), pytest.raises(error) as info:
        call(str(tmp_path))
    assert type(info.value) is error
    assert same_text(message, str(info.value))
    if argv is not None:
        with shallow_stack():
            assert main([arg.format(d=tmp_path) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.endswith("\n")
        assert same_text(message, err[len("error: ") : -1])
