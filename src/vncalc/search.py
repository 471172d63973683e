"""Breadth-first exploration of the subgroup generated by named elements.

Balls collect every product of at most r generators (inverses included
for non-involutive generators), deduplicated by canonical form.  Output
is deterministic: candidates are enumerated in lexicographic word order
level by level, so the recorded witness for an element is its shortest,
lexicographically least word.  Persisted files are byte-identical across
runs.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, islice, pairwise

from .element import (
    VnElement,
    _read_element,
    compose,
    format_element,
    identity,
    invert,
    parse_element,
)
from .errors import AlphabetMismatchError, FileFormatError, ParameterRangeError, VnError
from .words import Alphabet, _parse_int

GenWord = tuple[str, ...]

_INVERSE_SUFFIX = "^-1"


@dataclass(frozen=True)
class GeneratorSet:
    """Named generators over one alphabet, ordered by name."""

    alphabet: Alphabet
    generators: tuple[tuple[str, VnElement], ...]

    @classmethod
    def from_dict(cls, named: dict[str, VnElement]) -> GeneratorSet:
        if not named:
            raise ParameterRangeError("at least one generator is required")
        items = sorted(named.items())
        alphabet = items[0][1].alphabet
        for name, g in items:
            if not name or any(ch.isspace() for ch in name) or "^" in name:
                raise ParameterRangeError(f"bad generator name {name!r}")
            if g.alphabet != alphabet:
                raise AlphabetMismatchError(f"generator {name} uses a different alphabet")
        return cls(alphabet, tuple(items))

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def element(self, name: str) -> VnElement:
        return self._by_name[name]

    @functools.cached_property
    def _by_name(self) -> dict[str, VnElement]:
        return dict(self.generators)

    def tokens(self) -> tuple[tuple[str, VnElement], ...]:
        """Sorted (token, element) pairs, adding inverses where they differ."""
        out = []
        for name, g in self.generators:
            out.append((name, g))
            gi = invert(g)
            if gi != g:
                out.append((name + _INVERSE_SUFFIX, gi))
        return tuple(sorted(out))


def evaluate_word(gens: GeneratorSet, word: GenWord) -> VnElement:
    """Product of the named generators, leftmost factor outermost."""
    acc = identity(gens.alphabet)
    for token in word:
        if token.endswith(_INVERSE_SUFFIX):
            g = invert(gens.element(token[: -len(_INVERSE_SUFFIX)]))
        else:
            g = gens.element(token)
        acc = compose(acc, g)
    return acc


@dataclass(frozen=True)
class Ball:
    """All elements within a generator-word radius, with shortest witnesses.

    ``entries`` is in search order (by word length, then lexicographic).
    ``manifest`` records the generator names and the element files they
    came from, as provenance only.
    """

    alphabet: Alphabet
    radius: int
    entries: tuple[tuple[GenWord, VnElement], ...]
    truncated: bool
    manifest: tuple[tuple[str, str], ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def elements(self) -> dict[VnElement, GenWord]:
        return {g: w for w, g in self.entries}

    def word_for(self, g: VnElement) -> GenWord | None:
        return self._words.get(g)

    @functools.cached_property
    def _words(self) -> dict[VnElement, GenWord]:
        return {g: w for w, g in reversed(self.entries)}

    @functools.cached_property
    def sizes(self) -> tuple[int, ...]:
        """``sizes[r]`` is the number of elements within radius r, for r in 0..radius.

        Counted from the word lengths the first time it is read; the tuple
        has ``radius + 1`` entries, so reading it costs O(radius) time and
        memory, however few elements the ball holds.
        """
        lengths = Counter(len(w) for w, _ in self.entries)
        return tuple(accumulate(lengths[r] for r in range(self.radius + 1)))


def _walk(gens: GeneratorSet, radius: int):
    """Each element within the radius once, as (word, element), in search order.

    Level by level, each frontier word is extended by every token in token
    order, one ``compose`` per candidate; a candidate is yielded as soon as
    it proves new, so each element comes with its shortest, then least,
    word.  The token that undoes a word's last token is skipped: that
    product is the element of the word's parent, which is already seen, so
    the skip changes neither the items yielded nor their order.  The walk
    stops early when its caller stops reading, and at the first level that
    adds nothing: every later level would be empty too, so a finite group
    ends the walk whatever the radius.
    """
    tokens = gens.tokens()
    # undo[j] is the index of token j's inverse.  The inverse of x is x^-1;
    # a token with no ^-1 partner is its own inverse, since ``tokens`` adds
    # x^-1 only where the inverse differs.
    index = {tok: j for j, (tok, _) in enumerate(tokens)}
    undo = list(range(len(tokens)))
    for j, (tok, _) in enumerate(tokens):
        if tok.endswith(_INVERSE_SUFFIX):
            k = index[tok[: -len(_INVERSE_SUFFIX)]]
            undo[j], undo[k] = k, j
    frontier = [((), identity(gens.alphabet))]
    # skips[i] is the token that frontier[i] skips: the inverse of its
    # last token, or -1 for the empty word.
    skips = [-1]
    seen = {frontier[0][1]}
    yield frontier[0]
    for _ in range(radius):
        fresh: list[tuple[GenWord, VnElement]] = []
        fresh_skips: list[int] = []
        for (word, g), skip in zip(frontier, skips):
            for j, (tok, h) in enumerate(tokens):
                if j == skip:
                    continue
                cand = compose(g, h)
                # One hash per candidate: a new element is one that grows seen.
                size = len(seen)
                seen.add(cand)
                if len(seen) > size:
                    fresh.append((word + (tok,), cand))
                    fresh_skips.append(undo[j])
                    yield fresh[-1]
        if not fresh:
            return
        frontier, skips = fresh, fresh_skips


def grow_ball(
    gens: GeneratorSet,
    radius: int,
    cap: int = 10**6,
    workers: int = 1,
    manifest: tuple[tuple[str, str], ...] = (),
) -> Ball:
    """Deduplicated ball of the given radius, deterministically ordered.

    Keeps the first ``cap`` elements of the search, marking the ball
    truncated when one more exists; the retained prefix is still
    deterministic.  The manifest is stored sorted by name, the order
    save_ball writes it in.  ``workers`` has no effect: the search is
    serial.
    """
    if radius < 0:
        raise ParameterRangeError("radius must be >= 0")
    if cap < 1:
        raise ParameterRangeError("cap must be >= 1")
    walk = _walk(gens, radius)
    entries = tuple(islice(walk, cap))
    truncated = next(walk, None) is not None
    manifest = tuple(sorted(manifest))
    return Ball(gens.alphabet, radius, entries, truncated, manifest)


def find_element(
    target: VnElement, gens: GeneratorSet, max_radius: int
) -> GenWord | None:
    """Shortest (then lexicographically least) word for the target, if any."""
    if max_radius < 0:
        raise ParameterRangeError("radius must be >= 0")
    if target.alphabet != gens.alphabet:
        raise AlphabetMismatchError("target and generators use different alphabets")
    return next((word for word, g in _walk(gens, max_radius) if g == target), None)


def save_ball(ball: Ball, path: str) -> None:
    """Write the ball file; see load_ball for the layout."""
    parts = [
        f"ball {ball.alphabet.degree} {ball.radius} {len(ball.entries)} "
        f"{1 if ball.truncated else 0}"
    ]
    parts.extend(f"gen {name} {src}" for name, src in sorted(ball.manifest))
    for word, g in ball.entries:
        parts.append("")
        parts.append(("word " + " ".join(word)) if word else "word")
        parts.append(format_element(g))
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def load_ball(path: str) -> Ball:
    """Parse a ball file back; a lossless inverse of save_ball.

    Layout: a header ``ball <n> <radius> <count> <truncated>``, optional
    ``gen <name> <file>`` provenance lines, then one block per element (a
    ``word`` line followed by the element's text form), blocks separated
    by blank lines.  A file that ``save_ball`` cannot write is refused
    with the line at fault: a negative radius, or an element listed twice.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError("empty ball file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "ball":
        raise FileFormatError(
            f"expected 'ball <n> <radius> <count> <truncated>', got {lines[0]!r}", 1
        )
    try:
        alphabet = Alphabet(_parse_int(head[1]))
        radius, count, trunc = map(_parse_int, head[2:])
    except ValueError as exc:
        raise FileFormatError(str(exc), 1) from exc
    if trunc not in (0, 1):
        raise FileFormatError("truncated flag must be 0 or 1", 1)
    if radius < 0:
        raise FileFormatError("radius must be >= 0", 1)
    manifest = []
    pos = 1
    while pos < len(lines) and lines[pos].startswith("gen "):
        fields = lines[pos].split(maxsplit=2)
        if len(fields) != 3:
            raise FileFormatError(f"expected 'gen <name> <file>', got {lines[pos]!r}", pos + 1)
        manifest.append((fields[1], fields[2]))
        pos += 1
    entries: list[tuple[GenWord, VnElement]] = []
    first_line: dict[VnElement, int] = {}
    # Each block is a run of non-blank lines, a word line and then the
    # element, between two blank lines.
    blank = [i for i in range(pos, len(lines)) if not lines[i].strip()]
    for before, end in pairwise([pos - 1, *blank, len(lines)]):
        start = before + 1
        if start == end:
            continue
        if lines[start] != "word" and not lines[start].startswith("word "):
            raise FileFormatError(f"expected a 'word' line, got {lines[start]!r}", start + 1)
        # One string per generator token, shared by every word that uses it.
        word = tuple(map(sys.intern, lines[start].split()[1:]))
        word_line = start + 1
        if len(word) > radius:
            raise FileFormatError(f"word longer than the ball radius {radius}", word_line)
        try:
            g = parse_element("\n".join(lines[word_line:end]))
        except VnError as exc:
            # The block's line k is file line word_line + k; a defect of the
            # whole table is reported at the word line.
            raise FileFormatError(
                f"bad element block for word at line {word_line}: "
                f"{getattr(exc, 'reason', exc)}",
                word_line + (getattr(exc, "line", None) or 0),
            ) from exc
        if g.alphabet != alphabet:
            raise FileFormatError("element degree differs from the header", word_line)
        first = first_line.setdefault(g, word_line)
        if first != word_line:
            raise FileFormatError(
                f"element already listed for the word at line {first}", word_line
            )
        entries.append((word, g))
    if len(entries) != count:
        raise FileFormatError(f"header says {count} elements, file has {len(entries)}")
    return Ball(alphabet, radius, tuple(entries), bool(trunc), tuple(manifest))


def load_generator_manifest(path: str) -> tuple[GeneratorSet, tuple[tuple[str, str], ...]]:
    """Read 'gen <name> <element-file>' lines into a generator set."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    named: dict[str, VnElement] = {}
    manifest = []
    for lineno, ln in enumerate(lines, start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        fields = ln.split(maxsplit=2)
        if len(fields) != 3 or fields[0] != "gen":
            raise FileFormatError(f"expected 'gen <name> <element-file>', got {ln!r}", lineno)
        name, src = fields[1], fields[2]
        if name in named:
            raise FileFormatError(f"duplicate generator name {name!r}", lineno)
        named[name] = _read_element(src, path)
        manifest.append((name, src))
    return GeneratorSet.from_dict(named), tuple(manifest)
