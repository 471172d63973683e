"""Finite words over {1..n}, eventually periodic points, and partition sets.

A word names a cone of the n-ary Cantor set (the clopen set of infinite
words extending it).  A partition set is a finite, complete, prefix-free
antichain of words: its cones tile the whole Cantor set.  Completeness is
always decided by exact rational measure arithmetic, never by floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian

from .errors import (
    AlphabetMismatchError,
    LevelTooSmallError,
    MalformedWordError,
    NotAPartitionError,
    ParameterRangeError,
)


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


@dataclass(frozen=True, order=True)
class Word:
    """A finite (possibly empty) word; letters are 1-based integers.

    Text syntax is dot-separated: ``1.1.2``; the empty word prints as
    ``eps``.  Tuple ordering of the letters gives the lexicographic order
    used throughout (within an antichain no word prefixes another, so no
    shortlex subtlety arises).
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        for x in self.letters:
            if not isinstance(x, int) or x < 1:
                raise MalformedWordError(f"letters must be integers >= 1, got {x!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other: Word) -> Word:
        return Word(self.letters + other.letters)

    def __str__(self) -> str:
        return "eps" if not self.letters else ".".join(str(x) for x in self.letters)

    def child(self, letter: int) -> Word:
        return Word(self.letters + (letter,))

    def parent(self) -> Word:
        if not self.letters:
            raise MalformedWordError("the empty word has no parent")
        return Word(self.letters[:-1])

    def last(self) -> int:
        return self.letters[-1]

    def drop(self, k: int) -> Word:
        """Suffix after removing the first k letters."""
        return Word(self.letters[k:])

    def take(self, k: int) -> Word:
        return Word(self.letters[:k])

    def is_prefix_of(self, other: Word) -> bool:
        """True when self is a (not necessarily proper) prefix of other."""
        return self.letters == other.letters[: len(self.letters)]

    def is_proper_prefix_of(self, other: Word) -> bool:
        return len(self.letters) < len(other.letters) and self.is_prefix_of(other)

    def comparable(self, other: Word) -> bool:
        return self.is_prefix_of(other) or other.is_prefix_of(self)

    @staticmethod
    def parse(text: str) -> Word:
        text = text.strip()
        if text == "eps":
            return Word()
        if not text:
            raise MalformedWordError("empty word text; write 'eps' for the empty word")
        letters = []
        for part in text.split("."):
            try:
                letters.append(int(part))
            except ValueError:
                raise MalformedWordError(f"bad word syntax {text!r}") from None
        return Word(tuple(letters))


EPS = Word()


def check_letters(w: Word, alphabet: Alphabet) -> None:
    """Raise unless every letter of w lies in 1..degree."""
    for x in w.letters:
        if x > alphabet.degree:
            raise MalformedWordError(
                f"letter {x} of word {w} exceeds alphabet degree {alphabet.degree}"
            )


def repeat_letter(letter: int, k: int) -> Word:
    """The word letter^k (k >= 0)."""
    return Word((letter,) * k)


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
        ws = sorted(set(words))
        for w in ws:
            check_letters(w, alphabet)
        wordset = set(ws)
        for w in ws:
            for k in range(len(w)):
                if w.take(k) in wordset:
                    raise NotAPartitionError(f"{w.take(k)} is a proper prefix of {w}")
        total = sum(
            (Fraction(1, alphabet.degree ** len(w)) for w in ws), start=Fraction(0)
        )
        if total != 1:
            raise NotAPartitionError(f"cone measures sum to {total}, expected 1")
        return cls(alphabet, tuple(ws))

    @classmethod
    def level(cls, alphabet: Alphabet, depth: int) -> PartitionSet:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        ws = tuple(Word(p) for p in _cartesian(alphabet.letters, repeat=depth))
        return cls(alphabet, tuple(sorted(ws)))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, w: Word) -> bool:
        return w in self.words

    def max_depth(self) -> int:
        return max(len(w) for w in self.words)

    def measure_total(self) -> Fraction:
        return sum(
            (Fraction(1, self.alphabet.degree ** len(w)) for w in self.words),
            start=Fraction(0),
        )


def is_partition_set(words, alphabet: Alphabet) -> bool:
    """True iff the words form a complete prefix-free antichain.

    Letters outside the alphabet raise; any other defect returns False.
    """
    for w in words:
        check_letters(w, alphabet)
    try:
        PartitionSet.from_words(words, alphabet)
    except NotAPartitionError:
        return False
    return True


def refine(a: PartitionSet, b: PartitionSet) -> PartitionSet:
    """Coarsest common refinement of two partition sets.

    For every prefix-comparable pair the longer word survives; the result
    is again a partition set, refined by both inputs.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(f"{a.alphabet} vs {b.alphabet}")
    out = set()
    for u in a.words:
        for v in b.words:
            if u.is_prefix_of(v):
                out.add(v)
            elif v.is_proper_prefix_of(u):
                out.add(u)
    return PartitionSet(a.alphabet, tuple(sorted(out)))


def expand_to_level(a: PartitionSet, depth: int) -> PartitionSet:
    """Replace every word by all its descendants at exactly the given depth."""
    if depth < a.max_depth():
        raise LevelTooSmallError(
            f"level {depth} is below the deepest word (length {a.max_depth()})"
        )
    out = []
    for w in a.words:
        for tail in _cartesian(a.alphabet.letters, repeat=depth - len(w)):
            out.append(w + Word(tail))
    return PartitionSet(a.alphabet, tuple(sorted(out)))


def format_partition(a: PartitionSet) -> str:
    """Text form: one word per line, sorted."""
    return "\n".join(str(w) for w in a.words)


def parse_partition(text: str, alphabet: Alphabet) -> PartitionSet:
    words = [Word.parse(ln) for ln in text.splitlines() if ln.strip()]
    return PartitionSet.from_words(words, alphabet)


def random_partition(
    alphabet: Alphabet,
    rng: random.Random,
    expansions: int,
    max_depth: int | None = None,
) -> PartitionSet:
    """Random partition set built by a fixed number of caret expansions.

    The result has exactly 1 + expansions*(degree-1) words, which makes
    two partitions grown with the same count directly matchable.
    """
    words = [EPS]
    for _ in range(expansions):
        candidates = sorted(
            w for w in words if max_depth is None or len(w) < max_depth
        )
        if not candidates:
            raise ValueError("no expandable word below the depth bound")
        w = rng.choice(candidates)
        words.remove(w)
        words.extend(w.child(i) for i in alphabet.letters)
    return PartitionSet(alphabet, tuple(sorted(words)))
