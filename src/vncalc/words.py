"""Finite words over {1..n}, eventually periodic points, and partition sets.

A word names a cone of the n-ary Cantor set (the clopen set of infinite
words extending it).  A partition set is a finite, complete, prefix-free
antichain of words: its cones tile the whole Cantor set.  Completeness is
decided by the integer Kraft sum, never by floats.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product as _cartesian
from operator import attrgetter

from .errors import MalformedWordError, NotAPartitionError, ParameterRangeError


@dataclass(frozen=True, order=True)
class Alphabet:
    """The letter set {1, .., degree} labelling the children of a tree node."""

    degree: int

    def __post_init__(self):
        if not isinstance(self.degree, int) or self.degree < 2:
            raise ParameterRangeError(
                f"alphabet degree must be an integer >= 2, got {self.degree!r}"
            )

    @property
    def letters(self) -> range:
        return range(1, self.degree + 1)


@dataclass(frozen=True, order=True, slots=True)
class Word:
    """A finite (possibly empty) word; letters are 1-based integers.

    Text syntax is dot-separated: ``1.1.2``; the empty word prints as
    ``eps``.  Words compare and hash as their letter tuples, whose order
    is the lexicographic order used throughout (within an antichain no
    word prefixes another, so no shortlex subtlety arises).

    Every ``Word`` checks its letters when it is built.  The package
    builds them only at its public edge: the element kernel, the renderer
    and the parity probe work on letter tuples.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        # Exactly int: True would equal 1 in a tuple and print as "True".
        for x in self.letters:
            if type(x) is not int or x < 1:
                raise MalformedWordError(f"letters must be integers >= 1, got {x!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other: Word) -> Word:
        return Word(self.letters + other.letters)

    def __str__(self) -> str:
        return _text(self.letters)

    def child(self, letter: int) -> Word:
        return Word(self.letters + (letter,))

    def last(self) -> int:
        return self.letters[-1]

    def is_prefix_of(self, other: Word) -> bool:
        """True when self is a (not necessarily proper) prefix of other."""
        return self.letters == other.letters[: len(self.letters)]

    def is_proper_prefix_of(self, other: Word) -> bool:
        return len(self.letters) < len(other.letters) and self.is_prefix_of(other)

    @staticmethod
    def parse(text: str) -> Word:
        """Parse ``1.1.2`` or ``eps``."""
        return Word(_parse_letters(text))


def _text(letters: tuple[int, ...]) -> str:
    """The text form of a letter tuple: ``1.1.2``, or ``eps`` for no letters."""
    return ".".join(map(str, letters)) if letters else "eps"


# Characters that no letter text holds.  ``int`` also reads "+", "_" and
# non-ASCII digits, which ``_text`` never writes.
_FOREIGN = re.compile(r"[^0-9.\s-]").search


def _parse_letters(text: str) -> tuple[int, ...]:
    """Letter tuple of a word's text form, with ``Word.parse``'s checks and errors.

    A letter is a run of ASCII digits, the only spelling ``_text`` writes;
    spaces around a letter or the word are allowed.  A minus sign in front
    is read too, so that a negative letter fails the range check.
    """
    text = text.strip()
    if text == "eps":
        return ()
    if not text:
        raise MalformedWordError("empty word text; write 'eps' for the empty word")
    # Built from a list, so the tuple gets its exact size: a tuple grown
    # from an iterator can keep a larger memory block than it needs.
    try:
        letters = tuple([*map(int, text.split("."))])
    except ValueError:
        letters = None
    if letters is None or _FOREIGN(text):
        raise MalformedWordError(f"bad word syntax {text!r}")
    if min(letters) < 1:
        bad = next(x for x in letters if x < 1)
        raise MalformedWordError(f"letters must be integers >= 1, got {bad!r}")
    return letters


_INTEGER = re.compile(r"-?[0-9]+").fullmatch


def _parse_int(text: str) -> int:
    """A number in a file header: ASCII digits, with a minus sign allowed so
    that a negative count fails its range check.  Raises ``ValueError`` with
    ``int``'s message for any other spelling."""
    if _INTEGER(text) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


EPS = Word()


def check_letters(w: Word, alphabet: Alphabet) -> None:
    """Raise unless every letter of w lies in 1..degree."""
    _check_degree((w.letters,), alphabet.degree)


def _check_degree(words, degree: int) -> None:
    """Raise for the first letter above degree, scanning the letter tuples in order."""
    for w in words:
        if w and max(w) > degree:
            bad = next(x for x in w if x > degree)
            raise MalformedWordError(
                f"letter {bad} of word {_text(w)} exceeds alphabet degree {degree}"
            )


def _check_antichain(ws: list[tuple[int, ...]], degree: int) -> None:
    """Raise unless sorted, distinct letter tuples form a partition set.

    Letters must already lie in 1..degree: each caller runs
    ``_check_degree`` first, in the order its error should report.  A
    prefix overlap is reported before incompleteness.  In sorted order
    the shortest prefix of the first overlapping word sits directly
    before it, so adjacent pairs suffice.  Completeness is the integer
    Kraft sum: sum of n**(depth - len(w)) equals n**depth.
    """
    for a, b in zip(ws, ws[1:]):
        if b[: len(a)] == a:
            raise NotAPartitionError(f"{_text(a)} is a proper prefix of {_text(b)}")
    depth = max(map(len, ws), default=0)
    powers = [degree**k for k in range(depth + 1)]
    total = sum(powers[depth - len(w)] for w in ws)
    if total != powers[depth]:
        # The reduced fraction, written as ``str(Fraction(...))`` would write it.
        d = math.gcd(total, powers[depth])
        num, den = total // d, powers[depth] // d
        measure = f"{num}/{den}" if den != 1 else str(num)
        raise NotAPartitionError(f"cone measures sum to {measure}, expected 1")


def _primitive_root(per: tuple[int, ...]) -> tuple[int, ...]:
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            return per[:d]
    return per


@dataclass(frozen=True, order=True)
class RationalPoint:
    """An eventually periodic infinite word, stored in normal form.

    Normal form means the period is primitive and the preperiod is as
    short as possible (trailing preperiod letters matching the rotated
    period are absorbed).  Two points are equal as infinite words exactly
    when their normal forms coincide, so equality is structural.
    """

    preperiod: Word
    period: Word

    def __post_init__(self):
        if len(self.period) == 0:
            raise MalformedWordError("period must be nonempty")
        if _primitive_root(self.period.letters) != self.period.letters:
            raise MalformedWordError(f"period {self.period} is not primitive")
        if self.preperiod.letters and self.preperiod.last() == self.period.last():
            raise MalformedWordError(
                f"preperiod {self.preperiod} can be absorbed into the period"
            )

    def prefix(self, k: int) -> Word:
        """The first k letters of the infinite word."""
        letters = list(self.preperiod.letters)
        while len(letters) < k:
            letters.extend(self.period.letters)
        return Word(tuple(letters[:k]))

    def drop(self, k: int) -> RationalPoint:
        """The point obtained by deleting the first k letters."""
        pre, per = self.preperiod.letters, self.period.letters
        if k <= len(pre):
            return point_normalize(Word(pre[k:]), Word(per))
        m = (k - len(pre)) % len(per)
        return point_normalize(EPS, Word(per[m:] + per[:m]))

    def __str__(self) -> str:
        return f"{self.preperiod}:{self.period}"

    @staticmethod
    def parse(text: str) -> RationalPoint:
        if ":" not in text:
            raise MalformedWordError(f"point syntax is '<pre>:<per>', got {text!r}")
        pre, per = text.split(":", 1)
        return point_normalize(Word.parse(pre), Word.parse(per))


def point_normalize(pre: Word, per: Word) -> RationalPoint:
    """Normal form of the infinite word pre . per^infinity.

    The period is first reduced to its primitive root; trailing preperiod
    letters equal to the last period letter are then absorbed by rotating
    the period backwards across the boundary.
    """
    if len(per) == 0:
        raise MalformedWordError("period must be nonempty")
    p = list(pre.letters)
    q = list(_primitive_root(per.letters))
    while p and p[-1] == q[-1]:
        p.pop()
        q = [q[-1]] + q[:-1]
    return RationalPoint(Word(tuple(p)), Word(tuple(q)))


@dataclass(frozen=True)
class PartitionSet:
    """A complete prefix-free antichain; cones tile the Cantor set.

    Words are stored sorted lexicographically.  Construct through
    ``from_words`` (validating) or ``level`` (the full antichain at a
    fixed depth).
    """

    alphabet: Alphabet
    words: tuple[Word, ...]

    @classmethod
    def from_words(cls, words, alphabet: Alphabet) -> PartitionSet:
        """The validating constructor: duplicates are dropped, then the words must
        stay within the alphabet, be prefix-free and tile the Cantor set.

        Raises ``MalformedWordError`` or ``NotAPartitionError``.
        """
        ws = sorted(set(words), key=attrgetter("letters"))
        letters = [w.letters for w in ws]
        _check_degree(letters, alphabet.degree)
        _check_antichain(letters, alphabet.degree)
        return cls(alphabet, tuple(ws))

    @classmethod
    def level(cls, alphabet: Alphabet, depth: int) -> PartitionSet:
        if depth < 0:
            raise ParameterRangeError("depth must be >= 0")
        ws = tuple(Word(p) for p in _cartesian(alphabet.letters, repeat=depth))
        return cls(alphabet, tuple(sorted(ws)))

    def __len__(self) -> int:
        return len(self.words)

    def max_depth(self) -> int:
        return max(len(w) for w in self.words)


def _random_leaves(alphabet, rng, expansions, max_depth) -> list[tuple[int, ...]]:
    """The sorted words of a random partition set, as letter tuples, grown by
    ``expansions`` caret expansions of words shorter than ``max_depth``
    (``None`` for no bound).

    The set has exactly 1 + expansions*(degree-1) words, so two sets grown
    with the same count can be matched as the domain and range of an
    element.  The words stay sorted throughout: the children of an expanded word
    sort exactly where it stood, since no other word of the antichain
    lies between a word and its descendants.  Each step draws from the
    expandable words in sorted order.
    """
    words = [()]
    for step in range(expansions):
        if max_depth is None or step < max_depth:
            # Each expansion deepens the set by at most one letter, so no word
            # has reached the bound yet and every word is open.  ``choice``
            # draws from a range exactly as from the list of all indices:
            # same index, same generator state.
            i = rng.choice(range(len(words)))
        else:
            open_at = [i for i, w in enumerate(words) if len(w) < max_depth]
            if not open_at:
                raise ParameterRangeError("no expandable word below the depth bound")
            i = rng.choice(open_at)
        w = words[i]
        words[i : i + 1] = [w + (a,) for a in alphabet.letters]
    return words
