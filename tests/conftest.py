"""Shared helpers and independent oracles used across the test modules.

The oracles here deliberately avoid the code paths they check: tree
walking instead of the Kraft sum, inversion counting instead of cycle
parity, and plain leaf-index permutation tuples instead of element
arithmetic.
``naive_compose``/``naive_canonicalize`` are the original quadratic
prefix-scan product and restart-after-every-merge reduction, kept as the
reference for the bisect-and-stack kernel in ``vncalc.element``.
``naive_embed`` is the original embedding, which hands the cone rows and
the fixed sibling rows to ``naive_canonicalize`` in no particular order,
kept as the reference for ``embed`` in ``vncalc.constructions``, which
builds its canonical table directly.  ``naive_random_leaves`` is the original
random partition loop, which re-sorts the leaves on every expansion.
``naive_apply_word`` is the original linear scan over an element's rows,
kept as the reference for the bisect lookup of ``apply_word`` on the
letter-tuple storage.
``naive_parse_word``, ``naive_check_letters``, ``naive_from_words``,
``naive_make_element`` and ``naive_parse_element`` are the original
validate-every-Word parsers and checks, kept as the reference for the
tuple-level validation in ``vncalc.words`` and ``vncalc.element``: they
must accept the same tables and raise the same errors, byte for byte.
``naive_format_element`` and ``naive_tuple_parse_element`` are the
element text writer and tuple parser as they were before the text memos
of ``vncalc.element``: they convert every word text on every row, and are
kept as the reference for the memoized ``format_element`` and
``parse_element``; ``naive_tuple_parse_element`` also checks every
partition set and runs the reducer on every table.  ``naive_load_ball``
is the ball reader as it was before, which scans every line of a block
on its own, kept as the reference for ``load_ball``.  Both word oracles
read letters through ``naive_letters``, which matches each letter against
a regular expression of ASCII digits, the only spelling the writer uses.
``naive_grow_ball`` and ``naive_find_element`` are two breadth-first
loops as they were before ``vncalc.search`` ran them through one walk,
kept as the reference for that walk: the same entries, sizes, truncation
point and witness words.  The third such loop, ``naive_generator_words``,
lists the {sigma, tau} products for ``naive_base_involutions``, which is
``base_involutions`` as it was when it searched those products for its
twist, kept as the reference for the fixed twist tau and for the five
products that ``base_involutions`` lists.
``naive_enumerate_en_group`` is the finite closure as it was before it
went through that walk: the generators act as permutation tuples of the
leaves at one level, closed under composition, kept as the reference for
``vncalc.verify.enumerate_en_group``.
``naive_render_dot`` and ``naive_sign_refinement_probe`` are the renderer
and the parity probe as they were when they worked on ``Word``s (the
element's ``domain``, ``images`` and ``pairs()``), kept as the reference
for ``vncalc.render`` and ``vncalc.element``, which work on letter tuples.
``naive_tokenize`` is the expression tokenizer as it was before it became
one ``finditer`` pass: it matches one token at a time and, where no token
matches, strips the spaces by hand to report the first unexpected
character, kept as the reference for ``vncalc.expressions._tokenize``.
``naive_verify_grid`` is the eq2, eq3, trick and isolation suites as they
were before the checks shared their operands: every check builds its
spine embeddings, its power of t, its conjugator and its spinal element
from scratch, kept as the reference for the memos of ``vncalc.verify``.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from itertools import product

from hypothesis import settings

from vncalc import verify
from vncalc.constructions import (
    default_base,
    embed,
    make_s_alpha,
    make_tau,
    plan_alpha,
    sigma_dot,
    spine_cone,
)
from vncalc.element import (
    RefinementWitness,
    VnElement,
    _canonical,
    _image,
    _require_same_alphabet,
    commutator,
    compose,
    conjugate,
    identity,
    is_volume_preserving,
    power,
    random_element,
    table_parity,
)
from vncalc.errors import (
    AlphabetMismatchError,
    ArityError,
    ExpressionError,
    FileFormatError,
    LevelTooSmallError,
    MalformedWordError,
    NotABijectionError,
    NotAPartitionError,
    NotVolumePreservingError,
    ParameterRangeError,
    VnError,
    WordTooShortError,
)
from vncalc.search import Ball, GenWord, GeneratorSet
from vncalc.verify import FiniteClosure
from vncalc.words import (
    EPS,
    Alphabet,
    PartitionSet,
    Word,
    _check_antichain,
    _check_degree,
    check_letters,
)

Pair = tuple[Word, Word]

# Every property test runs derandomized, with no example database and no
# deadline, so that a run is reproducible and a slow host fails none; a
# test's own ``@settings`` sets only its ``max_examples``.
settings.register_profile("vncalc", derandomize=True, database=None, deadline=None)
settings.load_profile("vncalc")


def W(text: str) -> Word:
    return Word.parse(text)


def words(*texts: str) -> list[Word]:
    return [Word.parse(t) for t in texts]


def outcome(fn, *args):
    """(exception class, message) of a call, or ("ok", result)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # any exception: its class is part of the comparison
        return type(exc), str(exc)


# The expression tokens, as the scanning tokenizer matched them.
_NAIVE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    r'|(?P<string>"[^"]*")|(?P<sym>[*^()\[\],.\-/:~]))'
)


def naive_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _NAIVE_TOKEN_RE.match(text, pos)
        if m is None:
            # Report the first character after the spaces the match skipped.
            rest = text[pos:].lstrip()
            if rest:
                raise ExpressionError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def naive_canonicalize(pairs, alphabet: Alphabet) -> VnElement:
    """Reduce a raw bijection table to canonical form.

    Repeatedly merges caret pairs: whenever all n children u.1..u.n are
    domain words with images v.1..v.n for a common v, the n rows collapse
    to u -> v.  The rewriting is confluent, so the result does not depend
    on the merge order (property-tested rather than proved here).
    """
    n = alphabet.degree
    table: dict[Word, Word] = {}
    for w, v in pairs:
        if w in table:
            raise NotABijectionError(f"duplicate domain word {w}")
        table[w] = v
    while True:
        merged = False
        groups: dict[Word, dict[int, Word]] = {}
        for w in table:
            if len(w):
                groups.setdefault(Word(w.letters[:-1]), {})[w.last()] = table[w]
        for u in sorted(groups):
            kids = groups[u]
            if len(kids) != n or 1 not in kids:
                continue
            v1 = kids[1]
            if len(v1) == 0 or v1.last() != 1:
                continue
            base = Word(v1.letters[:-1])
            if all(kids.get(i) == base.child(i) for i in alphabet.letters):
                for i in alphabet.letters:
                    del table[u.child(i)]
                table[u] = base
                merged = True
                break
        if not merged:
            break
    dom = tuple(sorted(table))
    return VnElement(
        alphabet, tuple(w.letters for w in dom), tuple(table[w].letters for w in dom)
    )


def is_prefix(v: Word, u: Word) -> bool:
    """True when v is a (not necessarily proper) prefix of u."""
    return v.letters == u.letters[: len(v.letters)]


def is_proper_prefix(v: Word, u: Word) -> bool:
    """True when v is a prefix of u and shorter than it."""
    return len(v.letters) < len(u.letters) and is_prefix(v, u)


def level_partition(alphabet: Alphabet, depth: int) -> PartitionSet:
    """The full partition set at one depth: every word of that length."""
    words = (Word(p) for p in product(alphabet.letters, repeat=depth))
    return PartitionSet(alphabet, tuple(sorted(words)))


def naive_compose(g: VnElement, h: VnElement) -> VnElement:
    """The element x -> g(h(x)); in the product g*h the right factor acts first."""
    _require_same_alphabet(g, h)
    g_pairs = g.pairs()
    out: list[Pair] = []
    for w, v in h.pairs():
        for u, z in g_pairs:
            if is_prefix(u, v):
                out.append((w, z + Word(v.letters[len(u) :])))
            elif is_proper_prefix(v, u):
                s = Word(u.letters[len(v) :])
                out.append((w + s, z))
    return naive_canonicalize(out, g.alphabet)


def naive_embed(w: Word, g: VnElement) -> VnElement:
    """The element acting as g inside the cone at w and trivially elsewhere."""
    check_letters(w, g.alphabet)
    pairs = [(w + u, w + v) for u, v in g.pairs()]
    # Every sibling cone off the path to w is fixed.
    for k, a in enumerate(w.letters):
        for b in g.alphabet.letters:
            if b != a:
                s = Word(w.letters[:k]).child(b)
                pairs.append((s, s))
    return naive_canonicalize(pairs, g.alphabet)


def naive_random_leaves(alphabet, rng, expansions, max_depth) -> list[tuple[int, ...]]:
    """The sorted words of a random partition set, as letter tuples."""
    words = [()]
    for _ in range(expansions):
        candidates = sorted(w for w in words if max_depth is None or len(w) < max_depth)
        if not candidates:
            raise ParameterRangeError("no expandable word below the depth bound")
        w = rng.choice(candidates)
        words.remove(w)
        words.extend(w + (i,) for i in alphabet.letters)
    return sorted(words)


def naive_apply_word(g: VnElement, w: Word) -> Word:
    """Image of the cone named by w; w must reach into g's domain."""
    check_letters(w, g.alphabet)
    for u, z in g.pairs():
        if is_prefix(u, w):
            return z + Word(w.letters[len(u) :])
    needed = max(len(u) for u in g.domain.words if is_prefix(w, u))
    raise WordTooShortError(
        f"word {w} is shorter than the acting table; extend it to length {needed}"
    )


def naive_prefixes(words) -> list[Word]:
    seen = {EPS}
    for w in words:
        for k in range(1, len(w) + 1):
            seen.add(Word(w.letters[:k]))
    return sorted(seen)


def naive_node_id(side: str, w: Word) -> str:
    return f"{side}_eps" if len(w) == 0 else f"{side}_" + "_".join(str(x) for x in w)


def naive_tree_lines(side: str, title: str, leaves) -> list[str]:
    leaf_set = set(leaves)
    nodes = naive_prefixes(leaves)
    lines = [f"  subgraph cluster_{side} {{", f'    label="{title}";']
    for w in nodes:
        shape = "box" if w in leaf_set else "point"
        label = f', label="{w}"' if w in leaf_set else ""
        lines.append(f'    {naive_node_id(side, w)} [shape={shape}{label}];')
    for w in nodes:
        if len(w):
            lines.append(
                f"    {naive_node_id(side, Word(w.letters[:-1]))} -> {naive_node_id(side, w)};"
            )
    lines.append("  }")
    return lines


def naive_render_dot(g: VnElement) -> str:
    """Deterministic DOT text: domain tree, range tree, dashed leaf matching."""
    lines = ["digraph tree_pair {", "  rankdir=TB;"]
    lines += naive_tree_lines("d", "domain", g.domain.words)
    lines += naive_tree_lines("r", "range", sorted(g.images))
    for w, v in g.pairs():
        lines.append(f"  {naive_node_id('d', w)} -> {naive_node_id('r', v)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def naive_expand_at(pairs: list[Pair], w: Word, alphabet: Alphabet) -> list[Pair]:
    out = []
    for dw, iv in pairs:
        if dw == w:
            out.extend((dw.child(i), iv.child(i)) for i in alphabet.letters)
        else:
            out.append((dw, iv))
    return sorted(out)


def naive_sign_refinement_probe(
    g: VnElement, trials: int = 50, seed: int = 0
) -> RefinementWitness | None:
    """Search refinements of g's table for a parity flip."""
    base_pairs = sorted(g.pairs())
    base = table_parity(base_pairs)

    def check(pairs: list[Pair]) -> RefinementWitness | None:
        p = table_parity(pairs)
        if p != base:
            rows = sorted(pairs)
            return RefinementWitness(
                tuple(w for w, _ in rows), tuple(v for _, v in rows), p, base
            )
        return None

    for w in [w for w, _ in base_pairs]:
        hit = check(naive_expand_at(base_pairs, w, g.alphabet))
        if hit:
            return hit
    rng = random.Random(seed)
    for _ in range(trials):
        pairs = list(base_pairs)
        for _ in range(rng.randint(1, 3)):
            target = rng.choice(sorted(w for w, _ in pairs))
            pairs = naive_expand_at(pairs, target, g.alphabet)
        hit = check(pairs)
        if hit:
            return hit
    return None


def naive_letters(text: str) -> tuple[int, ...]:
    """Letters of dot-separated runs of ASCII digits, each with optional
    spaces around it and a minus sign in front; ``ValueError`` for any
    other text.  ``int`` reads each part, so a space is what it skips: the
    separators \\x1c-\\x1f count as space for ``str.strip`` but not for it."""
    parts = text.split(".")
    if not all(re.fullmatch("-?[0-9]+", part.strip()) for part in parts):
        raise ValueError(f"not a plain word: {text!r}")
    return tuple(int(part) for part in parts)


def naive_parse_word(text: str) -> Word:
    text = text.strip()
    if text == "eps":
        return Word()
    if not text:
        raise MalformedWordError("empty word text; write 'eps' for the empty word")
    try:
        letters = naive_letters(text)
    except ValueError:
        raise MalformedWordError(f"bad word syntax {text!r}") from None
    return Word(letters)


def naive_check_letters(w: Word, alphabet: Alphabet) -> None:
    """Raise unless every letter of w lies in 1..degree."""
    for x in w.letters:
        if x > alphabet.degree:
            raise MalformedWordError(
                f"letter {x} of word {w} exceeds alphabet degree {alphabet.degree}"
            )


def naive_from_words(words, alphabet: Alphabet) -> PartitionSet:
    ws = sorted(set(words))
    for w in ws:
        naive_check_letters(w, alphabet)
    wordset = set(ws)
    for w in ws:
        for k in range(len(w)):
            if Word(w.letters[:k]) in wordset:
                raise NotAPartitionError(f"{Word(w.letters[:k])} is a proper prefix of {w}")
    total = sum(
        (Fraction(1, alphabet.degree ** len(w)) for w in ws), start=Fraction(0)
    )
    if total != 1:
        raise NotAPartitionError(f"cone measures sum to {total}, expected 1")
    return PartitionSet(alphabet, tuple(ws))


def naive_make_element(domain: PartitionSet, images) -> VnElement:
    """Build the element sending each domain word to its listed image."""
    images = [w if isinstance(w, Word) else naive_parse_word(w) for w in images]
    if len(images) != len(domain):
        raise ArityError(f"{len(domain)} domain words but {len(images)} images")
    if len(set(images)) != len(images):
        raise NotABijectionError("image words are not distinct")
    for v in images:
        naive_check_letters(v, domain.alphabet)
    try:
        naive_from_words(images, domain.alphabet)
    except NotAPartitionError as exc:
        raise NotABijectionError(f"images are not a partition set: {exc}") from exc
    return naive_canonicalize(zip(domain.words, images), domain.alphabet)


def naive_parse_element(text: str) -> VnElement:
    """Parse the text form; non-canonical tables are accepted and reduced."""
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(i, ln) for i, ln in lines if ln]
    if not lines:
        raise FileFormatError("empty element text")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "vn":
        raise FileFormatError(f"expected 'vn <degree>', got {header!r}", lineno)
    try:
        alphabet = Alphabet(int(parts[1]))
    except ValueError as exc:
        raise FileFormatError(str(exc), lineno) from exc
    rows = []
    for lineno, ln in lines[1:]:
        if "->" not in ln:
            raise FileFormatError(f"expected '<word> -> <word>', got {ln!r}", lineno)
        left, right = ln.split("->", 1)
        try:
            w, v = naive_parse_word(left), naive_parse_word(right)
            naive_check_letters(w, alphabet)
            naive_check_letters(v, alphabet)
        except VnError as exc:
            raise FileFormatError(str(exc), lineno) from exc
        rows.append((w, v))
    try:
        dom = naive_from_words([w for w, _ in rows], alphabet)
    except NotAPartitionError as exc:
        raise FileFormatError(f"domain is not a partition set: {exc}") from exc
    if len(dom) != len(rows):
        raise FileFormatError("duplicate domain words")
    table = dict(rows)
    return naive_make_element(dom, [table[w] for w in dom.words])


def naive_text(letters: tuple[int, ...]) -> str:
    return ".".join(map(str, letters)) if letters else "eps"


def naive_format_element(g: VnElement) -> str:
    """Bit-exact text form: header line then one sorted row per cone."""
    lines = [f"vn {g.alphabet.degree}"]
    lines.extend(f"{naive_text(w)} -> {naive_text(v)}" for w, v in zip(g.dom, g.img))
    return "\n".join(lines)


def naive_tuple_parse_element(text: str) -> VnElement:
    """Parse the text form; non-canonical tables are accepted and reduced.

    The word texts go through ``naive_parse_word``, which raises the
    errors of the package's word parser without its row memo, and the
    domain and image sets go straight to ``_check_antichain``, without the
    package's partition memo.
    """
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(i, ln) for i, ln in lines if ln]
    if not lines:
        raise FileFormatError("empty element text")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "vn":
        raise FileFormatError(f"expected 'vn <degree>', got {header!r}", lineno)
    try:
        alphabet = Alphabet(int(parts[1]))
    except ValueError as exc:
        raise FileFormatError(str(exc), lineno) from exc
    degree = alphabet.degree
    in_alphabet = frozenset(alphabet.letters)
    rows = []
    for lineno, ln in lines[1:]:
        if "->" not in ln:
            raise FileFormatError(f"expected '<word> -> <word>', got {ln!r}", lineno)
        left, right = ln.split("->", 1)
        try:
            w, v = naive_letters(left), naive_letters(right)
        except ValueError:
            w = v = None
        if w is None or not (in_alphabet.issuperset(w) and in_alphabet.issuperset(v)):
            try:
                w, v = naive_parse_word(left).letters, naive_parse_word(right).letters
                _check_degree((w, v), degree)
            except VnError as exc:
                raise FileFormatError(str(exc), lineno) from exc
        rows.append((w, v))
    table = dict(rows)
    dom = sorted(table)
    try:
        _check_antichain(dom, degree)
    except NotAPartitionError as exc:
        raise FileFormatError(f"domain is not a partition set: {exc}") from exc
    if len(table) != len(rows):
        raise FileFormatError("duplicate domain words")
    image_set = set(table.values())
    if len(image_set) != len(table):
        raise NotABijectionError("image words are not distinct")
    try:
        _check_antichain(sorted(image_set), degree)
    except NotAPartitionError as exc:
        raise NotABijectionError(f"images are not a partition set: {exc}") from exc
    return _canonical([(w, table[w]) for w in dom], alphabet)


def naive_load_ball(path: str) -> Ball:
    """Parse a ball file back; a lossless inverse of save_ball.

    Element blocks go through ``naive_tuple_parse_element``.  Any error
    in a block names the file line of the row at fault, or the word line
    for a defect of the whole table.

    Layout: a header ``ball <n> <radius> <count> <truncated>``, optional
    ``gen <name> <file>`` provenance lines, then one block per element (a
    ``word`` line followed by the element's text form), blocks separated
    by blank lines.
    """
    with open(path) as fh:
        raw = fh.read()
    lines = raw.splitlines()
    if not lines:
        raise FileFormatError("empty ball file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "ball":
        raise FileFormatError(
            f"expected 'ball <n> <radius> <count> <truncated>', got {lines[0]!r}", 1
        )
    try:
        alphabet = Alphabet(int(head[1]))
        radius, count, trunc = int(head[2]), int(head[3]), int(head[4])
    except ValueError as exc:
        raise FileFormatError(str(exc), 1) from exc
    if trunc not in (0, 1):
        raise FileFormatError("truncated flag must be 0 or 1", 1)
    manifest = []
    pos = 1
    while pos < len(lines) and lines[pos].startswith("gen "):
        fields = lines[pos].split(maxsplit=2)
        if len(fields) != 3:
            raise FileFormatError(f"expected 'gen <name> <file>', got {lines[pos]!r}", pos + 1)
        manifest.append((fields[1], fields[2]))
        pos += 1
    entries: list[tuple[GenWord, VnElement]] = []
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        if lines[pos] != "word" and not lines[pos].startswith("word "):
            raise FileFormatError(f"expected a 'word' line, got {lines[pos]!r}", pos + 1)
        word = tuple(lines[pos].split()[1:])
        word_line = pos + 1
        if len(word) > radius:
            raise FileFormatError(f"word longer than the ball radius {radius}", word_line)
        pos += 1
        block = []
        while pos < len(lines) and lines[pos].strip():
            block.append(lines[pos])
            pos += 1
        try:
            # Blank lines in front give each row of the block its file line.
            g = naive_tuple_parse_element("\n" * word_line + "\n".join(block))
        except VnError as exc:
            line = getattr(exc, "line", None) or word_line
            reason = str(exc).removeprefix(f"line {line}: ")
            raise FileFormatError(
                f"bad element block for word at line {word_line}: {reason}", line
            ) from exc
        if g.alphabet != alphabet:
            raise FileFormatError("element degree differs from the header", word_line)
        entries.append((word, g))
    if len(entries) != count:
        raise FileFormatError(f"header says {count} elements, file has {len(entries)}")
    return Ball(alphabet, radius, tuple(entries), bool(trunc), tuple(manifest))


def naive_expand_frontier(frontier, tokens):
    """Candidate (word, element) pairs for the next level, in frontier order."""
    for word, g in frontier:
        for tok, h in tokens:
            yield word + (tok,), compose(g, h)


def naive_grow_ball(
    gens: GeneratorSet,
    radius: int,
    cap: int = 10**6,
    workers: int = 1,
    manifest: tuple[tuple[str, str], ...] = (),
) -> tuple[Ball, tuple[int, ...]]:
    """Deduplicated ball of the given radius, deterministically ordered,
    and the number of elements within each radius 0..radius, counted level
    by level as the ball grows (the reference for ``Ball.sizes``).

    Stops early once the cap is reached, marking the ball truncated; the
    retained prefix of the enumeration is still deterministic.  The
    manifest is stored sorted by name, the order save_ball writes it in.
    ``workers`` has no effect: the expansion is serial.
    """
    if radius < 0:
        raise ParameterRangeError("radius must be >= 0")
    if cap < 1:
        raise ParameterRangeError("cap must be >= 1")
    tokens = gens.tokens()
    ident = identity(gens.alphabet)
    entries: list[tuple[GenWord, VnElement]] = [((), ident)]
    seen = {ident}
    sizes = [1]
    frontier = [((), ident)]
    truncated = False
    for _ in range(radius):
        fresh: list[tuple[GenWord, VnElement]] = []
        if not truncated:
            # One hash per candidate: a new element is one that grows seen.
            # At the cap only a lookup may run, so truncation stays exact.
            for word, g in naive_expand_frontier(frontier, tokens):
                size = len(seen)
                if size < cap:
                    seen.add(g)
                    if len(seen) > size:
                        fresh.append((word, g))
                elif g not in seen:
                    truncated = True
                    break
        entries.extend(fresh)
        sizes.append(len(entries))
        frontier = fresh
    ball = Ball(gens.alphabet, radius, tuple(entries), truncated, tuple(sorted(manifest)))
    return ball, tuple(sizes)


def naive_find_element(
    target: VnElement, gens: GeneratorSet, max_radius: int
) -> GenWord | None:
    """Shortest (then lexicographically least) word for the target, if any."""
    if target.alphabet != gens.alphabet:
        raise AlphabetMismatchError("target and generators use different alphabets")
    tokens = gens.tokens()
    ident = identity(gens.alphabet)
    if target == ident:
        return ()
    seen = {ident}
    frontier = [((), ident)]
    for _ in range(max_radius):
        fresh = []
        for word, g in naive_expand_frontier(frontier, tokens):
            size = len(seen)
            seen.add(g)
            if len(seen) == size:
                continue
            if g == target:
                return word
            fresh.append((word, g))
        frontier = fresh
    return None


def naive_generator_words(alphabet: Alphabet, max_length: int) -> list[VnElement]:
    """Products of up to max_length factors from {sigma, tau}, deduplicated."""
    gens = [sigma_dot(alphabet), make_tau(alphabet)]
    seen = dict.fromkeys([identity(alphabet)])
    frontier = list(seen)
    for _ in range(max_length):
        nxt = []
        for g in frontier:
            for h in gens:
                cand = compose(g, h)
                if cand not in seen:
                    seen[cand] = None
                    nxt.append(cand)
        frontier = nxt
    return list(seen)


def naive_base_involutions(alphabet: Alphabet) -> list[VnElement]:
    """The seed's conjugates as they were built before the twist was fixed
    as tau: the twist is the first {sigma, tau} product of up to three
    factors whose conjugate of the seed does not commute with the seed."""
    sig = sigma_dot(alphabet)
    seed = compose(embed(Word((1,)), sig), embed(Word((2,)), sig))
    candidates = naive_generator_words(alphabet, 3)
    twist = next(c for c in candidates if not commutator(seed, conjugate(seed, c)).is_identity())
    out: dict[VnElement, None] = {}
    for g in naive_generator_words(alphabet, 2):
        for h in (g, compose(twist, g)):
            out.setdefault(conjugate(seed, h))
    return list(out)


def naive_enumerate_en_group(gens, level: int | None = None) -> FiniteClosure:
    """Exact closure of volume-preserving generators.

    All generators are expanded to a common level and act there as
    permutations of the leaf words; the closure of those permutations is
    the generated group.  The order always divides (n^level)!.
    """
    gens = list(gens)
    alphabet = gens[0].alphabet if gens else None
    if alphabet is None:
        raise ParameterRangeError("at least one generator is required")
    for idx, g in enumerate(gens):
        if not is_volume_preserving(g):
            raise NotVolumePreservingError(f"generator {idx} is not volume preserving: {g}")
    depth = max(len(w) for g in gens for w in g.dom)
    if level is not None:
        if level < depth:
            raise LevelTooSmallError(f"level {level} is below the deepest generator table {depth}")
        depth = level
    leaves = list(product(alphabet.letters, repeat=depth))
    index = {w: i for i, w in enumerate(leaves)}
    perms = {tuple(index[_image(g, w)] for w in leaves) for g in gens}
    ident = tuple(range(len(leaves)))
    closure = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in perms:
                r = tuple(p[x] for x in q)
                if r not in closure:
                    closure.add(r)
                    nxt.append(r)
        frontier = nxt
    assert math.factorial(len(leaves)) % len(closure) == 0
    # ``product`` yields the leaves in sorted order, so the rows are in
    # domain order.
    elements = frozenset(
        _canonical(zip(leaves, [leaves[x] for x in p]), alphabet)
        for p in closure
    )
    return FiniteClosure(len(closure), depth, elements)


def naive_verify_grid(degrees, kmax: int, count: int, seed: int) -> dict[str, list]:
    """``(line, lhs, rhs)`` of every report of the eq2, eq3, trick and
    isolation suites, by suite name.  t is read from ``vncalc.verify`` at
    each check, so a rebound ``make_t`` reaches every check here too."""
    out: dict[str, list] = {"eq2": [], "eq3": [], "trick": [], "isolation": []}

    def report(suite, name, params, lhs, rhs):
        if lhs == rhs:
            out[suite].append((f"{name} {params} PASS", None, None))
        else:
            out[suite].append((f"{name} {params} FAIL", lhs, rhs))

    def deep_commutator(alphabet, ell, k):
        sig = sigma_dot(alphabet)
        return embed(spine_cone(ell + 1), commutator(sig, embed(spine_cone(k), sig)))

    for n in degrees:
        alphabet = Alphabet(n)
        rng = random.Random(seed)
        gammas = [sigma_dot(alphabet), identity(alphabet)]
        gammas += [random_element(alphabet, rng) for _ in range(count)]
        for idx, gamma in enumerate(gammas):
            for k in range(1, kmax + 1):
                lhs = conjugate(embed(spine_cone(k), gamma), verify.make_t(alphabet))
                rhs = embed(spine_cone(k + 1), gamma)
                report("eq2", "translation", f"n={n} k={k} gamma#{idx}", lhs, rhs)
    for n in degrees:
        alphabet = Alphabet(n)
        for size in (1, 2, 3):
            plan = plan_alpha(default_base(alphabet, size))
            entries, ell = plan.entries, plan.length
            for k in range(kmax + 1):
                s = make_s_alpha(plan)
                lhs = conjugate(s, power(verify.make_t(alphabet), k))
                rhs = embed(spine_cone(ell + k + 1), sigma_dot(alphabet))
                for i, g in enumerate(entries, start=1):
                    rhs = compose(rhs, embed(spine_cone(i + k).child(2), g))
                report("eq3", "shift-conjugation", f"n={n} ell={ell} k={k}", lhs, rhs)
    for n in degrees:
        alphabet = Alphabet(n)
        for size in (1, 2, 3):
            plan = plan_alpha(default_base(alphabet, size))
            entries, ell = plan.entries, plan.length
            for k in range(kmax + 1):
                params = f"n={n} ell={ell} k={k}"
                top = range(max(ell - k + 1, 1), ell + 1)
                bad = [i for i in top if not entries[i - 1].is_identity()]
                if bad:
                    reason = f"entries {bad} in the top k positions are nontrivial"
                    line = f"commutator-product {params} SKIP({reason})"
                    out["trick"].append((line, None, None))
                    continue
                s = make_s_alpha(plan)
                lhs = commutator(s, conjugate(s, power(verify.make_t(alphabet), k)))
                rhs = deep_commutator(alphabet, ell, k)
                for i in range(k + 1, ell + 1):
                    inner = commutator(entries[i - 1], entries[i - k - 1])
                    rhs = compose(rhs, embed(spine_cone(i).child(2), inner))
                report("trick", "commutator-product", params, lhs, rhs)
    for n in degrees:
        alphabet = Alphabet(n)
        for size in (2, 3):
            plan = plan_alpha(default_base(alphabet, size))
            members = plan.support.sorted_members
            for a, i in enumerate(members):
                for j in members[a + 1 :]:
                    s = make_s_alpha(plan)
                    lhs = commutator(s, conjugate(s, power(verify.make_t(alphabet), j - i)))
                    cone = commutator(plan.entry(j), plan.entry(i))
                    rhs = compose(
                        deep_commutator(alphabet, plan.length, j - i),
                        embed(spine_cone(j).child(2), cone),
                    )
                    params = f"n={n} ell={plan.length} i={i} j={j}"
                    report("isolation", "isolation", params, lhs, rhs)
    return out


def spinal_gens() -> GeneratorSet:
    """The generators of the ball-roundtrip workload: sigma, tau and s_alpha at n = 2."""
    a2 = Alphabet(2)
    plan = plan_alpha(default_base(a2, 1))
    return GeneratorSet.from_dict(
        {"sigma": sigma_dot(a2), "tau": make_tau(a2), "s": make_s_alpha(plan)}
    )


def tree_complete_oracle(word_list, n: int) -> bool:
    """Trie check: every internal node has all n children, leaves are the words."""
    leaves = {w.letters for w in word_list}
    children: dict[tuple, set[int]] = {}
    for w in word_list:
        for k in range(len(w)):
            children.setdefault(w.letters[:k], set()).add(w.letters[k])
    stack = [()]
    while stack:
        node = stack.pop()
        if node in leaves:
            if children.get(node):
                return False
            continue
        kids = children.get(node, set())
        if kids != set(range(1, n + 1)):
            return False
        stack.extend(node + (i,) for i in kids)
    return True


def parity_by_inversions(perm: list[int]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def tuple_closure(perms: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Closure of index permutations under composition, no group arithmetic."""
    size = len(next(iter(perms)))
    ident = tuple(range(size))
    out = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for p in frontier:
            for q in perms:
                r = tuple(p[x] for x in q)
                if r not in out:
                    out.add(r)
                    fresh.append(r)
        frontier = fresh
    return out


def random_volume_preserving(alphabet: Alphabet, rng: random.Random):
    """A random element acting as a leaf permutation at depth 1 or 2."""
    from vncalc.element import canonicalize

    depth = rng.choice([1, 2])
    leaves = list(level_partition(alphabet, depth).words)
    shuffled = list(leaves)
    rng.shuffle(shuffled)
    return canonicalize(zip(leaves, shuffled), alphabet)
