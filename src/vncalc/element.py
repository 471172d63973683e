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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import takewhile

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
    Alphabet,
    PartitionSet,
    RationalPoint,
    Word,
    _check_antichain,
    _check_degree,
    _parse_letters,
    _random_leaves,
    _text,
    _word,
    check_letters,
    point_normalize,
)

Pair = tuple[Word, Word]
Letters = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class VnElement:
    """A canonical prefix-replacement bijection.

    Stored as two aligned tuples of letter tuples: ``dom`` holds the
    domain words in sorted order, and ``img[i]`` is the image of
    ``dom[i]``.  Both sides are partition sets over ``alphabet`` and no
    caret pair of the table is mergeable, so equality and hashing of
    these three fields are equality and hashing of the homeomorphism.
    ``domain``, ``images`` and ``pairs()`` build ``Word``s on demand, for
    printing and for callers outside the kernel.  Do not build directly:
    use ``make_element`` or ``canonicalize`` (or the constructors in
    ``constructions``).
    """

    alphabet: Alphabet
    dom: tuple[Letters, ...]
    img: tuple[Letters, ...]

    @property
    def domain(self) -> PartitionSet:
        return PartitionSet(self.alphabet, tuple(map(_word, self.dom)))

    @property
    def images(self) -> tuple[Word, ...]:
        return tuple(map(_word, self.img))

    def pairs(self) -> tuple[Pair, ...]:
        return tuple(zip(map(_word, self.dom), map(_word, self.img)))

    def image_of(self, w: Word) -> Word:
        i = bisect_left(self.dom, w.letters)
        if i == len(self.dom) or self.dom[i] != w.letters:
            raise ValueError(f"{w} is not a domain word")
        return _word(self.img[i])

    def is_identity(self) -> bool:
        return self.dom == ((),)

    def max_depth(self) -> int:
        return max(max(map(len, self.dom)), max(map(len, self.img)))

    def __mul__(self, other: VnElement) -> VnElement:
        return compose(self, other)

    def __pow__(self, k: int) -> VnElement:
        return power(self, k)

    def __str__(self) -> str:
        body = ", ".join(f"{_text(w)}->{_text(v)}" for w, v in zip(self.dom, self.img))
        return f"vn {self.alphabet.degree}: {body}"


def identity(alphabet: Alphabet) -> VnElement:
    return VnElement(alphabet, ((),), ((),))


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


def _element(table: dict[Letters, Letters], alphabet: Alphabet) -> VnElement:
    """The canonical element of an already validated table.

    The table is reduced in place, then its sorted keys and their values
    become the element's two tuples; no letter is checked again.
    """
    dom = sorted(_reduce(table, alphabet.degree))
    return VnElement(alphabet, tuple(dom), tuple([table[w] for w in dom]))


def canonicalize(pairs, alphabet: Alphabet) -> VnElement:
    """Reduce a raw bijection table to canonical form.

    Merges caret pairs: whenever all n children u.1..u.n are domain words
    with images v.1..v.n for a common v, the n rows collapse to u -> v.
    The merges run in one deepest-first sweep (see ``_reduce``).  The
    rewriting is confluent, so the result does not depend on the merge
    order; ``test_canonicalize_ignores_merge_order`` checks this against
    a restart-after-every-merge oracle on shuffled, refined tables.
    """
    table: dict[Letters, Letters] = {}
    for w, v in pairs:
        if w.letters in table:
            raise NotABijectionError(f"duplicate domain word {w}")
        table[w.letters] = v.letters
    return _element(table, alphabet)


def _check_image_partition(images: set[tuple], degree: int) -> None:
    try:
        _check_antichain(sorted(images), degree)
    except NotAPartitionError as exc:
        raise NotABijectionError(f"images are not a partition set: {exc}") from exc


def make_element(domain: PartitionSet, images) -> VnElement:
    """Build the element sending each domain word to its listed image.

    Images may be Words or word texts.  They are validated here: the count
    must match the domain (``ArityError``), letters must lie in the
    alphabet (``MalformedWordError``, first bad image in list order), and
    the images must be distinct and form a partition set
    (``NotABijectionError``).  The domain is trusted as a ``PartitionSet``.
    """
    images = [w if isinstance(w, Word) else Word.parse(w) for w in images]
    if len(images) != len(domain):
        raise ArityError(f"{len(domain)} domain words but {len(images)} images")
    letters = [v.letters for v in images]
    image_set = set(letters)
    if len(image_set) != len(letters):
        raise NotABijectionError("image words are not distinct")
    _check_degree(letters, domain.alphabet.degree)
    _check_image_partition(image_set, domain.alphabet.degree)
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
    g_dom, g_map = g.dom, dict(zip(g.dom, g.img))
    table: dict[Letters, Letters] = {}
    for w, v in zip(h.dom, h.img):
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
    return _element(table, g.alphabet)


def invert(g: VnElement) -> VnElement:
    # Caret mergeability is symmetric in domain and range, so swapping
    # a canonical table stays canonical.
    flipped = sorted(zip(g.img, g.dom))
    return VnElement(g.alphabet, tuple([v for v, _ in flipped]), tuple([w for _, w in flipped]))


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


def _image(g: VnElement, w: Letters) -> Letters | None:
    """Image letters of w, or None when w stops short of g's domain.

    The domain word that prefixes w, if any, is the last one not after w
    in sorted order: a later word up to w would extend it.
    """
    i = bisect_right(g.dom, w) - 1
    u = g.dom[i]
    if i < 0 or w[: len(u)] != u:
        return None
    return g.img[i] + w[len(u) :]


def apply_word(g: VnElement, w: Word) -> Word:
    """Image of the cone named by w; w must reach into g's domain.

    When w stops short, the domain words extending it sit together from
    w's insertion point, and the error names the longest of them.
    """
    check_letters(w, g.alphabet)
    image = _image(g, w.letters)
    if image is None:
        cut, rest = len(w), g.dom[bisect_left(g.dom, w.letters) :]
        needed = max(map(len, takewhile(lambda u: u[:cut] == w.letters, rest)))
        raise WordTooShortError(
            f"word {w} is shorter than the acting table; extend it to length {needed}"
        )
    return _word(image)


def apply_point(g: VnElement, p: RationalPoint) -> RationalPoint:
    """Exact image of an eventually periodic point, in normal form."""
    depth = max(map(len, g.dom))
    if depth == 0:
        return p
    tail = p.drop(depth)
    head = _word(_image(g, p.prefix(depth).letters))
    return point_normalize(head + tail.preperiod, tail.period)


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
    return all(len(w) == len(v) for w, v in zip(g.dom, g.img))


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
    for w, v in zip(g.dom, g.img):
        cone = _word(w)
        if w == v:
            cones.append(SupportCone(cone, ConeKind.FIXED))
        elif w[: len(v)] != v and v[: len(w)] != w:
            cones.append(SupportCone(cone, ConeKind.MOVED))
        else:
            # One word properly extends the other by u; the only fixed
            # point of the cone is then w.u^infinity.
            u = v[len(w) :] if len(v) > len(w) else w[len(v) :]
            cones.append(SupportCone(cone, ConeKind.BOUNDARY, point_normalize(cone, _word(u))))
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
    return table_parity(zip(g.dom, g.img))


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
    dom = _random_leaves(alphabet, rng, expansions, max_depth)
    img = _random_leaves(alphabet, rng, expansions, max_depth)
    rng.shuffle(img)
    return _element(dict(zip(dom, img)), alphabet)


def format_element(g: VnElement) -> str:
    """Bit-exact text form: header line then one sorted row per cone."""
    lines = [f"vn {g.alphabet.degree}"]
    lines.extend(f"{_text(w)} -> {_text(v)}" for w, v in zip(g.dom, g.img))
    return "\n".join(lines)


def parse_element(text: str) -> VnElement:
    """Parse the text form; non-canonical tables are accepted and reduced.

    Every row is parsed straight into letter tuples and checked against
    the alphabet (``FileFormatError`` with its line number).  The domain
    must then form a partition set without repeats (``FileFormatError``),
    and the images must be distinct and form a partition set
    (``NotABijectionError``).  The checked table is reduced and wrapped
    without validating its words again.
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
        # A row of plain letters in 1..degree is taken as it stands; "eps"
        # and every defect go through the word parser for its exact error.
        # The lists give exact-size tuples, as in ``_parse_letters``.
        try:
            w = tuple([*map(int, left.split("."))])
            v = tuple([*map(int, right.split("."))])
        except ValueError:
            w = v = None
        if w is None or not (in_alphabet.issuperset(w) and in_alphabet.issuperset(v)):
            try:
                w, v = _parse_letters(left), _parse_letters(right)
                _check_degree((w, v), degree)
            except VnError as exc:
                raise FileFormatError(str(exc), lineno) from exc
        rows.append((w, v))
    table = dict(rows)
    try:
        _check_antichain(sorted(table), degree)
    except NotAPartitionError as exc:
        raise FileFormatError(f"domain is not a partition set: {exc}") from exc
    if len(table) != len(rows):
        raise FileFormatError("duplicate domain words")
    image_set = set(table.values())
    if len(image_set) != len(table):
        raise NotABijectionError("image words are not distinct")
    _check_image_partition(image_set, degree)
    return _element(table, alphabet)
