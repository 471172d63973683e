"""Exact arithmetic in the Higman-Thompson group V_n.

An element is a bijection between two partition sets, acting on the
Cantor set by prefix replacement: the domain word is swapped for its
image word and the infinite suffix is kept.  Elements are stored in
canonical (fully reduced) form, so structural equality coincides with
equality of homeomorphisms and dictionaries of elements deduplicate
correctly.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .errors import (
    AlphabetMismatchError,
    ArityError,
    FileFormatError,
    NotABijectionError,
    NotAPartitionError,
    ParameterRangeError,
    SignUndefinedError,
    VnError,
    WordTooShortError,
)
from .words import (
    EPS,
    Alphabet,
    PartitionSet,
    RationalPoint,
    Word,
    check_letters,
    point_normalize,
    random_partition,
)

Pair = tuple[Word, Word]


@dataclass(frozen=True)
class VnElement:
    """A canonical prefix-replacement bijection.

    ``domain.words[i]`` maps to ``images[i]``; both sides are partition
    sets over the same alphabet and no caret pair of the table is
    mergeable.  Do not build directly: use ``make_element`` or
    ``canonicalize`` (or the constructors in ``constructions``).
    """

    domain: PartitionSet
    images: tuple[Word, ...]

    @property
    def alphabet(self) -> Alphabet:
        return self.domain.alphabet

    def pairs(self) -> tuple[Pair, ...]:
        return tuple(zip(self.domain.words, self.images))

    def image_of(self, w: Word) -> Word:
        return self.images[self.domain.words.index(w)]

    def is_identity(self) -> bool:
        return self.domain.words == (EPS,)

    def max_depth(self) -> int:
        return max(self.domain.max_depth(), max(len(v) for v in self.images))

    def __mul__(self, other: VnElement) -> VnElement:
        return compose(self, other)

    def __pow__(self, k: int) -> VnElement:
        return power(self, k)

    def __str__(self) -> str:
        body = ", ".join(f"{w}->{v}" for w, v in self.pairs())
        return f"vn {self.alphabet.degree}: {body}"


def identity(alphabet: Alphabet) -> VnElement:
    return VnElement(PartitionSet(alphabet, (EPS,)), (EPS,))


def _reduce(table: dict[tuple, tuple], degree: int) -> dict[tuple, tuple]:
    """Merge caret pairs of a letter-tuple table in place, deepest first.

    A merge at u needs every child u.i to be a leaf, with u.1 -> v.1 and
    u.i -> v.i for the same v.  Only a merge at a child of u can create
    such a leaf, so the candidates are swept bucket by bucket from the
    deepest parent up, and a merge at u re-queues only its parent; one
    sweep then leaves no mergeable caret.  A parent is queued only when
    its child ending in letter 1 becomes a leaf, since no merge is
    possible without that child.
    """
    if not table:
        return table
    buckets: list[set[tuple]] = [set() for _ in range(max(map(len, table)))]
    for w in table:
        if w and w[-1] == 1:
            buckets[len(w) - 1].add(w[:-1])
    rest = range(2, degree + 1)
    for depth in range(len(buckets) - 1, -1, -1):
        for u in buckets[depth]:
            v1 = table.get(u + (1,))
            if not v1 or v1[-1] != 1:
                continue
            base = v1[:-1]
            if all(table.get(u + (i,)) == base + (i,) for i in rest):
                del table[u + (1,)]
                for i in rest:
                    del table[u + (i,)]
                table[u] = base
                if u and u[-1] == 1:
                    buckets[depth - 1].add(u[:-1])
    return table


def _element(
    table: dict[tuple, tuple], alphabet: Alphabet, known: dict[tuple, Word]
) -> VnElement:
    """Wrap a reduced table in Words, reusing ``known`` Words for unchanged letters."""

    def word(letters: tuple) -> Word:
        w = known.get(letters)
        return Word(letters) if w is None else w

    dom = sorted(table)
    return VnElement(
        PartitionSet(alphabet, tuple(word(w) for w in dom)),
        tuple(word(table[w]) for w in dom),
    )


def canonicalize(pairs, alphabet: Alphabet) -> VnElement:
    """Reduce a raw bijection table to canonical form.

    Merges caret pairs: whenever all n children u.1..u.n are domain words
    with images v.1..v.n for a common v, the n rows collapse to u -> v.
    The merges run in one deepest-first sweep (see ``_reduce``).  The
    rewriting is confluent, so the result does not depend on the merge
    order; ``test_canonicalize_ignores_merge_order`` checks this against
    a restart-after-every-merge oracle on shuffled, refined tables.
    """
    table: dict[tuple, tuple] = {}
    known: dict[tuple, Word] = {}
    for w, v in pairs:
        if w.letters in table:
            raise NotABijectionError(f"duplicate domain word {w}")
        table[w.letters] = v.letters
        known[w.letters] = w
        known[v.letters] = v
    return _element(_reduce(table, alphabet.degree), alphabet, known)


def make_element(domain: PartitionSet, images) -> VnElement:
    """Build the element sending each domain word to its listed image."""
    images = [w if isinstance(w, Word) else Word.parse(w) for w in images]
    if len(images) != len(domain):
        raise ArityError(f"{len(domain)} domain words but {len(images)} images")
    if len(set(images)) != len(images):
        raise NotABijectionError("image words are not distinct")
    for v in images:
        check_letters(v, domain.alphabet)
    try:
        PartitionSet.from_words(images, domain.alphabet)
    except NotAPartitionError as exc:
        raise NotABijectionError(f"images are not a partition set: {exc}") from exc
    return canonicalize(zip(domain.words, images), domain.alphabet)


def _require_same_alphabet(g: VnElement, h: VnElement) -> None:
    if g.alphabet != h.alphabet:
        raise AlphabetMismatchError(f"{g.alphabet} vs {h.alphabet}")


def compose(g: VnElement, h: VnElement) -> VnElement:
    """The element x -> g(h(x)); in the product g*h the right factor acts first.

    Each row w -> v of h meets g either at the one domain word of g that
    is a prefix of v (found by dict lookup of v's prefixes), or, when v
    stops short of g's domain, at the contiguous run of g's sorted domain
    words that extend v (found by bisection).
    """
    _require_same_alphabet(g, h)
    g_dom = [u.letters for u in g.domain.words]
    g_map = dict(zip(g_dom, [z.letters for z in g.images]))
    known = {z.letters: z for z in g.images}
    table: dict[tuple, tuple] = {}
    for w_word, v_word in h.pairs():
        w, v = w_word.letters, v_word.letters
        known[w] = w_word
        for k in range(len(v) + 1):
            z = g_map.get(v[:k])
            if z is not None:
                table[w] = z + v[k:]
                break
        else:
            cut = len(v)
            for i in range(bisect_left(g_dom, v), len(g_dom)):
                u = g_dom[i]
                if u[:cut] != v:
                    break
                table[w + u[cut:]] = g_map[u]
    return _element(_reduce(table, g.alphabet.degree), g.alphabet, known)


def invert(g: VnElement) -> VnElement:
    # Caret mergeability is symmetric in domain and range, so swapping
    # a canonical table stays canonical.
    flipped = sorted((v, w) for w, v in g.pairs())
    dom = tuple(v for v, _ in flipped)
    return VnElement(PartitionSet(g.alphabet, dom), tuple(w for _, w in flipped))


def power(g: VnElement, k: int) -> VnElement:
    """g^k by square-and-multiply; a negative k powers the inverse."""
    if k < 0:
        return power(invert(g), -k)
    acc = identity(g.alphabet)
    while k:
        if k & 1:
            acc = compose(acc, g)
        k >>= 1
        if k:
            g = compose(g, g)
    return acc


def conjugate(g: VnElement, h: VnElement) -> VnElement:
    """h^-1 * g * h."""
    return compose(compose(invert(h), g), h)


def commutator(g: VnElement, h: VnElement) -> VnElement:
    """g * h * g^-1 * h^-1."""
    return compose(compose(g, h), compose(invert(g), invert(h)))


def equals(g: VnElement, h: VnElement) -> bool:
    _require_same_alphabet(g, h)
    return g == h


def apply_word(g: VnElement, w: Word) -> Word:
    """Image of the cone named by w; w must reach into g's domain."""
    check_letters(w, g.alphabet)
    for u, z in g.pairs():
        if u.is_prefix_of(w):
            return z + w.drop(len(u))
    needed = max(len(u) for u in g.domain.words if w.is_prefix_of(u))
    raise WordTooShortError(
        f"word {w} is shorter than the acting table; extend it to length {needed}"
    )


def apply_point(g: VnElement, p: RationalPoint) -> RationalPoint:
    """Exact image of an eventually periodic point, in normal form."""
    depth = g.domain.max_depth()
    if depth == 0:
        return p
    head = p.prefix(depth)
    for u, z in g.pairs():
        if u.is_prefix_of(head):
            tail = p.drop(len(u))
            return point_normalize(z + tail.preperiod, tail.period)
    raise AssertionError("complete domain must contain a prefix of every point")


def order_bounded(g: VnElement, bound: int = 64) -> int | None:
    """Least k <= bound with g^k = identity, or None past the bound."""
    if bound < 1:
        raise ParameterRangeError("bound must be >= 1")
    acc = g
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = compose(acc, g)
    return None


def is_volume_preserving(g: VnElement) -> bool:
    """True iff every cone keeps its length, hence its uniform measure."""
    return all(len(w) == len(v) for w, v in g.pairs())


class ConeKind(Enum):
    FIXED = "Fixed"
    MOVED = "Moved"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class SupportCone:
    word: Word
    kind: ConeKind
    fixed_point: RationalPoint | None = None


@dataclass(frozen=True)
class SupportReport:
    """Per-cone classification of where an element moves points.

    Fixed cones are pointwise fixed, moved cones contain no fixed point,
    and boundary cones contain exactly one (the recorded eventually
    periodic point).
    """

    cones: tuple[SupportCone, ...]

    def of_kind(self, kind: ConeKind) -> tuple[SupportCone, ...]:
        return tuple(c for c in self.cones if c.kind is kind)


def support(g: VnElement) -> SupportReport:
    cones = []
    for w, v in g.pairs():
        if w == v:
            cones.append(SupportCone(w, ConeKind.FIXED))
        elif not w.comparable(v):
            cones.append(SupportCone(w, ConeKind.MOVED))
        else:
            # One word properly extends the other by u; the only fixed
            # point of the cone is then w.u^infinity.
            u = v.drop(len(w)) if len(v) > len(w) else w.drop(len(v))
            cones.append(SupportCone(w, ConeKind.BOUNDARY, point_normalize(w, u)))
    return SupportReport(tuple(cones))


def _parity(perm: list[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def table_parity(pairs) -> int:
    """Parity of the bijection between the sorted domain and sorted range."""
    rows = sorted(pairs)
    rank = {v: i for i, v in enumerate(sorted(v for _, v in rows))}
    return _parity([rank[v] for _, v in rows])


def sign(g: VnElement) -> int:
    """Parity of the canonical table, defined only for odd degree.

    Refining a caret inserts degree-1 fresh strands into both sorted
    lists, which changes parity when the degree is even; use
    ``sign_refinement_probe`` to exhibit such an inconsistency.
    """
    if g.alphabet.degree % 2 == 0:
        raise SignUndefinedError(
            f"sign undefined for even degree {g.alphabet.degree}"
        )
    return table_parity(g.pairs())


def _expand_at(pairs: list[Pair], w: Word, alphabet: Alphabet) -> list[Pair]:
    out = []
    for dw, iv in pairs:
        if dw == w:
            out.extend((dw.child(i), iv.child(i)) for i in alphabet.letters)
        else:
            out.append((dw, iv))
    return sorted(out)


@dataclass(frozen=True)
class RefinementWitness:
    """A refined table whose parity disagrees with the canonical one."""

    domain: tuple[Word, ...]
    images: tuple[Word, ...]
    parity: int
    base_parity: int


def sign_refinement_probe(
    g: VnElement, trials: int = 50, seed: int = 0
) -> RefinementWitness | None:
    """Search refinements of g's table for a parity flip.

    Every single-caret expansion of the canonical table is tried first,
    then ``trials`` random multi-caret refinements.  Returns None when
    all parities agree (guaranteed for odd degree); otherwise the first
    witness found.
    """
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
        hit = check(_expand_at(base_pairs, w, g.alphabet))
        if hit:
            return hit
    rng = random.Random(seed)
    for _ in range(trials):
        pairs = list(base_pairs)
        for _ in range(rng.randint(1, 3)):
            target = rng.choice(sorted(w for w, _ in pairs))
            pairs = _expand_at(pairs, target, g.alphabet)
        hit = check(pairs)
        if hit:
            return hit
    return None


def random_element(
    alphabet: Alphabet,
    rng: random.Random,
    expansions: int = 4,
    max_depth: int | None = 4,
) -> VnElement:
    """Seeded random element; canonical depth never exceeds max_depth."""
    dom = random_partition(alphabet, rng, expansions, max_depth)
    img = list(random_partition(alphabet, rng, expansions, max_depth).words)
    rng.shuffle(img)
    return canonicalize(zip(dom.words, img), alphabet)


def format_element(g: VnElement) -> str:
    """Bit-exact text form: header line then one sorted row per cone."""
    lines = [f"vn {g.alphabet.degree}"]
    lines.extend(f"{w} -> {v}" for w, v in g.pairs())
    return "\n".join(lines)


def parse_element(text: str) -> VnElement:
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
            w, v = Word.parse(left), Word.parse(right)
            check_letters(w, alphabet)
            check_letters(v, alphabet)
        except VnError as exc:
            raise FileFormatError(str(exc), lineno) from exc
        rows.append((w, v))
    try:
        dom = PartitionSet.from_words([w for w, _ in rows], alphabet)
    except NotAPartitionError as exc:
        raise FileFormatError(f"domain is not a partition set: {exc}") from exc
    if len(dom) != len(rows):
        raise FileFormatError("duplicate domain words")
    table = dict(rows)
    return make_element(dom, [table[w] for w in dom.words])
