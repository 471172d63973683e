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
from itertools import accumulate, chain, islice

from .element import (
    Letters,
    VnElement,
    _header,
    _open_text,
    _read_element,
    compose,
    format_element,
    identity,
    invert,
    parse_element,
)
from .errors import AlphabetMismatchError, FileFormatError, ParameterRangeError, VnError
from .words import Alphabet, _Record

GenWord = tuple[str, ...]


class GeneratorSet(_Record):
    """Named generators over one alphabet, ordered by name."""

    # The ``__dict__`` holds the cached token table.
    __slots__ = ("alphabet", "generators", "__dict__")
    __match_args__ = ("alphabet", "generators")

    def __init__(self, alphabet: Alphabet, generators: tuple[tuple[str, VnElement], ...]):
        self._set_fields(alphabet, generators)

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

    @functools.cached_property
    def _token_table(self) -> dict[str, tuple[VnElement, str]]:
        """Each token, in sorted order, with its element and the token of its
        inverse.  An involution has one token, its name, which is its own
        inverse; any other generator has two, ``name`` and ``name^-1``, each
        the other's inverse.  Each generator is inverted once per set."""
        table = {}
        for name, g in self.generators:
            gi = invert(g)
            inverse = name if gi == g else name + "^-1"
            # An involution's second entry, holding g itself, replaces its first.
            table[inverse] = (gi, name)
            table[name] = (g, inverse)
        return dict(sorted(table.items()))

    def tokens(self) -> tuple[tuple[str, VnElement], ...]:
        """Sorted (token, element) pairs, adding inverses where they differ."""
        return tuple((tok, g) for tok, (g, _) in self._token_table.items())


def evaluate_word(gens: GeneratorSet, word: GenWord) -> VnElement:
    """Product of the named generators, leftmost factor outermost."""
    table = gens._token_table
    acc = identity(gens.alphabet)
    for token in word:
        if token not in table:
            raise ParameterRangeError(f"unknown generator token {token!r}")
        acc = compose(acc, table[token][0])
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

    The elements of a ball repeat a few hundred domain words, and many
    share whole domains.  Each new element's ``dom`` is pointed at the
    walk's one copy of that domain, whose words are the walk's one copy
    of each word, as a loaded ball already shares them through the parse
    memos.  The image side is left alone: compose passes most image words
    through from its left factor, so few of them are copies.
    """
    tokens = gens.tokens()
    # undo[j] is the index of token j's inverse.
    index = {tok: j for j, (tok, _) in enumerate(tokens)}
    undo = [index[inv] for _, inv in gens._token_table.values()]
    frontier = [((), identity(gens.alphabet))]
    # skips[i] is the token that frontier[i] skips: the inverse of its
    # last token, or -1 for the empty word.
    skips = [-1]
    seen = {frontier[0][1]}
    # One copy of each domain word, and of each domain built from those.
    rows: dict[Letters, Letters] = {}
    domains: dict[tuple[Letters, ...], tuple[Letters, ...]] = {}
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
                    d = cand.dom
                    shared = domains.get(d)
                    if shared is None:
                        shared = domains[d] = tuple(map(rows.setdefault, d, d))
                    if cand is h:
                        # g is the identity, and compose returned the
                        # caller's generator: give the walk its own copy.
                        cand = VnElement(cand.alphabet, shared, cand.img)
                    else:
                        # Safe on a frozen element: compose built cand for
                        # this call, so nothing else refers to it yet, and
                        # the shared domain is equal, so its hash and its
                        # place in seen stay.
                        object.__setattr__(cand, "dom", shared)
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
    """Write the ball file, one element block at a time; see load_ball for
    the layout."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"ball {ball.alphabet.degree} {ball.radius} {len(ball.entries)} "
            f"{1 if ball.truncated else 0}\n"
        )
        for name, src in sorted(ball.manifest):
            fh.write(f"gen {name} {src}\n")
        for word, g in ball.entries:
            fh.write(f"\n{' '.join(('word', *word))}\n{format_element(g)}\n")


# Characters read at a time by load_ball.  It holds one chunk's lines and
# one element block at a time, never the whole file.
_CHUNK_CHARS = 1 << 16


def _line_chunks(fh):
    """The lines of a text file, one list per chunk read, split exactly
    where ``str.splitlines`` splits the whole text.  Each chunk is read on
    to the end of its line, but at most ``_CHUNK_CHARS`` further: universal
    newlines end a line only at ``\n`` (``\r\n`` arrives as ``\n``), and a
    file may end its lines only with other breaks.  A line that a chunk
    leaves open is carried, in pieces, until a break ends it."""
    head: list[str] = []  # the pieces of a line that no break has ended yet
    while chunk := fh.read(_CHUNK_CHARS):
        chunk += fh.readline(_CHUNK_CHARS)
        lines = chunk.splitlines()
        # A break character splits to [""], any other character to itself.
        tail = [lines.pop()] if chunk[-1].splitlines()[0] else []
        if head and lines:
            lines[0] = "".join([*head, lines[0]])
            head = []
        head += tail
        yield lines
        del lines  # so that the reader frees them before it reads on
    if head:
        yield ["".join(head)]


def load_ball(path: str) -> Ball:
    """Parse a ball file back; a lossless inverse of save_ball.

    Layout: a header ``ball <n> <radius> <count> <truncated>``, optional
    ``gen <name> <file>`` provenance lines, then one block per element (a
    ``word`` line followed by the element's text form), blocks separated
    by blank lines.  A file that ``save_ball`` cannot write is refused
    with the line at fault: a negative radius, or an element listed twice.
    The file is read in chunks, so memory beyond the returned ball stays
    at a chunk and a block, whatever the file's size.
    """
    with _open_text(path) as fh:
        return _parse_ball(enumerate(chain.from_iterable(_line_chunks(fh)), start=1))


def _parse_ball(lines) -> Ball:
    """The ball that a file's (line number, line) pairs describe; see load_ball."""
    _, header = next(lines, (0, None))
    if header is None:
        raise FileFormatError("empty ball file")
    alphabet, radius, count, trunc = _header(1, header, "ball <n> <radius> <count> <truncated>")
    if trunc not in (0, 1):
        raise FileFormatError("truncated flag must be 0 or 1", 1)
    if radius < 0:
        raise FileFormatError("radius must be >= 0", 1)
    manifest = []
    # An empty line stands for the end of the file: a blank line ends no
    # manifest and starts no block.
    lineno, line = next(lines, (0, ""))
    while line.startswith("gen "):
        fields = line.split(maxsplit=2)
        if len(fields) != 3:
            raise FileFormatError(f"expected 'gen <name> <file>', got {line!r}", lineno)
        manifest.append((fields[1], fields[2]))
        lineno, line = next(lines, (0, ""))
    entries: list[tuple[GenWord, VnElement]] = []
    first_line: dict[VnElement, int] = {}

    def add_block(block: list[str], word_line: int) -> None:
        if block[0] != "word" and not block[0].startswith("word "):
            raise FileFormatError(f"expected a 'word' line, got {block[0]!r}", word_line)
        # One string per generator token, shared by every word that uses it.
        word = tuple(map(sys.intern, block[0].split()[1:]))
        if len(word) > radius:
            raise FileFormatError(f"word longer than the ball radius {radius}", word_line)
        try:
            g = parse_element("\n".join(block[1:]))
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

    # Each block is a run of non-blank lines, a word line and then the
    # element, ended by a blank line or by the end of the file.
    block: list[str] = []
    for lineno, line in chain([(lineno, line)], lines):
        if line.strip():
            block.append(line)
        elif block:
            add_block(block, lineno - len(block))
            block = []
    if block:
        add_block(block, lineno + 1 - len(block))
    if len(entries) != count:
        raise FileFormatError(f"header says {count} elements, file has {len(entries)}")
    return Ball(alphabet, radius, tuple(entries), bool(trunc), tuple(manifest))


def load_generator_manifest(path: str) -> tuple[GeneratorSet, tuple[tuple[str, str], ...]]:
    """Read 'gen <name> <element-file>' lines into a generator set."""
    with _open_text(path) as fh:
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
        named[name] = _read_element(src, path, lineno)
        manifest.append((name, src))
    return GeneratorSet.from_dict(named), tuple(manifest)
