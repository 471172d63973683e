"""Exact arithmetic in the Higman-Thompson group V_n.

An element is a bijection between two partition sets, acting on the
Cantor set by prefix replacement: the domain word is swapped for its
image word and the infinite suffix is kept.  Elements are stored in
canonical (fully reduced) form, so structural equality coincides with
equality of homeomorphisms and dictionaries of elements deduplicate
correctly.
"""

from __future__ import annotations

import contextlib
import functools
import os
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import takewhile

from .errors import (
    AlphabetMismatchError,
    ArityError,
    BudgetExceededError,
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
    _parse_int,
    _parse_letters,
    _random_leaves,
    _text,
    check_letters,
    point_normalize,
)

Pair = tuple[Word, Word]
Letters = tuple[int, ...]
Row = tuple[Letters, Letters]


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
        return PartitionSet(self.alphabet, tuple(map(Word, self.dom)))

    @property
    def images(self) -> tuple[Word, ...]:
        return tuple(map(Word, self.img))

    def pairs(self) -> tuple[Pair, ...]:
        return tuple(zip(map(Word, self.dom), map(Word, self.img)))

    def is_identity(self) -> bool:
        return self.dom == ((),)

    def __str__(self) -> str:
        body = ", ".join(f"{_text(w)}->{_text(v)}" for w, v in zip(self.dom, self.img))
        return f"vn {self.alphabet.degree}: {body}"


def identity(alphabet: Alphabet) -> VnElement:
    return VnElement(alphabet, ((),), ((),))


# The last letters of the first n - 1 children, built once per degree; the
# degree has no upper bound, so the cache keeps only a few.
@functools.lru_cache(maxsize=16)
def _tails(n: int) -> tuple[Letters, ...]:
    return tuple((i,) for i in range(1, n))


def _canonical(rows, alphabet: Alphabet) -> VnElement:
    """The canonical element of validated rows given in sorted domain order.

    The domain words must form a partition set.  One stack pass merges
    every caret pair: in sorted order the children u.1..u.n of a caret
    arrive one after another, each as a single row once its own subtree
    is reduced, so when u.n -> v.n arrives the caret is mergeable exactly
    when the n - 1 rows on top of the stack are u.i -> v.i for the same
    v.  A merge pops those rows, and u -> v is then checked in turn as
    the possible last child of its own parent.  No caret can become
    mergeable after its last child is pushed, so one pass leaves none,
    and the stack is already the sorted canonical table.  No letter is
    checked again.

    The domain side of that test is one length comparison.  The stack
    always holds a sorted antichain that covers exactly the cones of the
    rows read so far, since a merge replaces the rows of a caret by its
    root.  When u.n arrives, no prefix of u is on the stack (the domain
    is prefix-free), and the cones u.1..u.(n-1), which the domain covers
    and which sort just before u.n, are covered by the top rows of the
    stack, each of length at least len(u.n).  So the stack holds at
    least n - 1 rows, and the (n-1)-th row from the top, dom[k], lies in
    some cone u.j.  If it has the length of u.n it is u.j itself, and
    the n - 2 rows above it cover the n - 1 - j cones u.(j+1)..u.(n-1).
    A cone covered by more than one row is split into at least n of
    them, so if any were split those rows would number at least
    2n - 2 - j > n - 2; hence none is, and j = 1: the top rows are
    exactly u.1..u.(n-1).  Conversely, if they are, dom[k] is u.1.  At
    n = 2 the one row to compare is the top one, so the test of img[-1]
    is the whole image test.
    """
    n = alphabet.degree
    m = n - 1
    tails = _tails(n)
    last = tails[-1]
    dom: list[Letters] = []
    img: list[Letters] = []
    for w, v in rows:
        while w and w[-1] == n and v and v[-1] == n:
            k = len(dom) - m
            if len(dom[k]) != len(w):
                break
            base = v[:-1]
            # The image of the last sibling settles most candidates at once.
            if img[-1] != base + last or (m > 1 and img[k:] != [base + t for t in tails]):
                break
            del dom[k:], img[k:]
            w, v = w[:-1], base
        dom.append(w)
        img.append(v)
    return VnElement(alphabet, tuple(dom), tuple(img))


def canonicalize(pairs, alphabet: Alphabet) -> VnElement:
    """Reduce a raw bijection table to canonical form.

    Merges caret pairs: whenever all n children u.1..u.n are domain words
    with images v.1..v.n for a common v, the n rows collapse to u -> v.
    The table is checked first, as ``PartitionSet.from_words`` checks a
    domain and ``make_element`` checks images: a repeated domain word
    (``NotABijectionError``), letters above the degree
    (``MalformedWordError``, domain words in sorted order first), a
    domain that is no partition set (``NotAPartitionError``), and images
    that are not distinct or no partition set (``NotABijectionError``).
    The rows are then sorted by domain word and reduced in one stack
    pass (see ``_canonical``).  The rewriting is confluent, so the result
    does not depend on the merge order;
    ``test_canonicalize_ignores_merge_order`` checks this against a
    restart-after-every-merge oracle on shuffled, refined tables.
    """
    table: dict[Letters, Letters] = {}
    for w, v in pairs:
        if w.letters in table:
            raise NotABijectionError(f"duplicate domain word {w}")
        table[w.letters] = v.letters
    rows = sorted(table.items())
    dom = [w for w, _ in rows]
    _check_degree(dom, alphabet.degree)
    _check_antichain(dom, alphabet.degree)
    _check_images([v for _, v in rows], alphabet.degree)
    return _canonical(rows, alphabet)


def _check_images(letters: list[Letters], degree: int) -> None:
    """Raise unless the images, listed in domain order, are distinct, lie
    within the degree and form a partition set; the first failure in that
    order is reported, and a bad letter at its first image."""
    if len(set(letters)) != len(letters):
        raise NotABijectionError("image words are not distinct")
    _check_degree(letters, degree)
    _check_image_partition(tuple(sorted(letters)), degree)


def _check_image_partition(images: tuple[Letters, ...], degree: int) -> None:
    """Raise unless sorted images within the degree are distinct and form a
    partition set, reporting repeats first.  A repeat fails the partition
    check too, so only a failed set is tested for repeats."""
    try:
        _checked_partition(images, degree)
    except NotAPartitionError as exc:
        if len(set(images)) != len(images):
            raise NotABijectionError("image words are not distinct") from None
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
    _check_images(letters, domain.alphabet.degree)
    # The domain words are stored sorted, so the rows are in domain order.
    return _canonical(zip([w.letters for w in domain.words], letters), domain.alphabet)


def _require_same_alphabet(g: VnElement, h: VnElement) -> None:
    if g.alphabet is not h.alphabet and g.alphabet != h.alphabet:
        raise AlphabetMismatchError(f"{g.alphabet} vs {h.alphabet}")


def compose(g: VnElement, h: VnElement) -> VnElement:
    """The element x -> g(h(x)); in the product g*h the right factor acts first.

    g must be canonical, as every ``VnElement`` the package builds is; h
    need not be.  A product with the identity is the other factor, as it
    is.  One pass over h's rows reduces only the rows it makes: a row
    w -> v of h meets g at the last domain word u of g not after v.  If
    v = u.s, the row w -> g(u).s takes ``_canonical``'s stack step.  Else
    the rows w.s -> g(v.s), for g's domain words v.s, are pushed as they
    are; a row that h fixes takes g's words, and an exact hit v = u g's
    image, themselves.  The rows come sorted, at most |g| + |h| - 1.

    Such copied rows are final.  A merge of a caret c needs c.1..c.n to
    be single rows.  If some c.i is a copied word w.s, c extends w, so
    c's children lie in the cone w, whose rows are g's rows under v
    renamed, with their images; since g is canonical, c does not merge.
    The run has at least n rows, so the cone w is never one row, the
    child of a merge above it.  The stack is thus the one that pushing
    the run row by row gives, under ``_canonical``'s invariant.
    """
    _require_same_alphabet(g, h)
    if h.dom == ((),):
        return g
    if g.dom == ((),):
        return h
    n = g.alphabet.degree
    m = n - 1
    tails = _tails(n)
    last = tails[-1]
    g_dom, g_img = g.dom, g.img
    dom: list[Letters] = []
    img: list[Letters] = []
    for w, v in zip(h.dom, h.img):
        # When v sorts before g_dom[0], i is -1 and g_dom[-1] is no prefix
        # of v: a prefix of v would sort at or before v.
        i = bisect_right(g_dom, v) - 1
        u = g_dom[i]
        cut = len(u)
        if v[:cut] == u:
            x = g_img[i] if cut == len(v) else g_img[i] + v[cut:]
            while w and w[-1] == n and x and x[-1] == n:
                k = len(dom) - m
                if len(dom[k]) != len(w):
                    break
                base = x[:-1]
                if img[-1] != base + last or (m > 1 and img[k:] != [base + t for t in tails]):
                    break
                del dom[k:], img[k:]
                w, x = w[:-1], base
            dom.append(w)
            img.append(x)
            continue
        # The run of g's words that extend v starts at i + 1, and ends
        # before v with its last letter raised by one (perhaps to n + 1):
        # a later word that does not extend v is larger at its first
        # difference from v.  h is not the identity, so v is not empty.
        stop = bisect_left(g_dom, v[:-1] + (v[-1] + 1,), i + 1)
        cut, run = len(v), g_dom[i + 1 : stop]
        dom += run if w == v else [w + u[cut:] for u in run]
        img += g_img[i + 1 : stop]
    return VnElement(g.alphabet, tuple(dom), tuple(img))


def product(*factors: VnElement) -> VnElement:
    """The product f1 * f2 * ... * fm, in which the last factor acts first:
    a left fold of ``compose``.  Every factor's alphabet is checked against
    the first's, in order, before anything is built, so the error names
    the first mismatch as a chain of ``compose`` calls would.
    """
    first = factors[0]
    for f in factors[1:]:
        _require_same_alphabet(first, f)
    return functools.reduce(compose, factors)


def invert(g: VnElement) -> VnElement:
    # Caret mergeability is symmetric in domain and range, so swapping
    # a canonical table stays canonical.
    flipped = sorted(zip(g.img, g.dom))
    return VnElement(g.alphabet, tuple([v for v, _ in flipped]), tuple([w for _, w in flipped]))


# Letters (domain plus image words) that the tables built by one request
# may hold in total: the loop of one ``power`` or ``order_bounded`` call,
# or one expression evaluation.  t^k holds about k * k letters, so
# without a bound t^100000, the order of t up to 10^8, or a product of
# large powers runs for hours or fills memory.  The largest total that
# the tests and the benchmark workloads reach is 15,456 letters (2,000
# for one evaluation); t^3000 takes 15.8 M.  A table is counted once
# built, so the last one may pass the budget: t^100000 stops after
# building t^4096 (16.8 M letters, about 1 s).  An evaluation charges an
# ``embed`` before building it, from the size its table will have.
_WORK_BUDGET = 20_000_000


def _table_letters(g: VnElement) -> int:
    return sum(map(len, g.dom)) + sum(map(len, g.img))


def _spend(spent: int, letters: int, what: str) -> int:
    """The letters spent once ``letters`` more are built; raise once they pass the budget."""
    spent += letters
    if spent > _WORK_BUDGET:
        raise BudgetExceededError(
            f"{what} stopped: its tables passed the work budget of "
            f"{_WORK_BUDGET} letters"
        )
    return spent


def power(g: VnElement, k: int) -> VnElement:
    """g^k by square-and-multiply; a negative k powers the inverse."""
    if k < 0:
        return power(invert(g), -k)
    acc = identity(g.alphabet)
    spent = 0
    while k:
        if k & 1:
            acc = compose(acc, g)
            spent = _spend(spent, _table_letters(acc), "power")
        k >>= 1
        if k:
            g = compose(g, g)
            spent = _spend(spent, _table_letters(g), "power")
    return acc


def conjugate(g: VnElement, h: VnElement) -> VnElement:
    """h^-1 * g * h."""
    return product(invert(h), g, h)


def commutator(g: VnElement, h: VnElement) -> VnElement:
    """g * h * g^-1 * h^-1."""
    return product(g, h, invert(g), invert(h))


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
    return Word(image)


def apply_point(g: VnElement, p: RationalPoint) -> RationalPoint:
    """Exact image of an eventually periodic point, in normal form."""
    depth = max(map(len, g.dom))
    if depth == 0:
        return p
    tail = p.drop(depth)
    head = Word(_image(g, p.prefix(depth).letters))
    return point_normalize(head + tail.preperiod, tail.period)


def order_bounded(g: VnElement, bound: int = 64) -> int | None:
    """Least k <= bound with g^k = identity, or None past the bound."""
    if bound < 1:
        raise ParameterRangeError("bound must be >= 1")
    acc = g
    spent = 0
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = compose(acc, g)
        spent = _spend(spent, _table_letters(acc), "order")
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


def support(g: VnElement) -> tuple[SupportCone, ...]:
    """Per-cone classification of where an element moves points, one cone
    per row of its table.

    Fixed cones are pointwise fixed, moved cones contain no fixed point,
    and boundary cones contain exactly one (the recorded eventually
    periodic point).
    """
    cones = []
    for w, v in zip(g.dom, g.img):
        cone = Word(w)
        if w == v:
            cones.append(SupportCone(cone, ConeKind.FIXED))
        elif w[: len(v)] != v and v[: len(w)] != w:
            cones.append(SupportCone(cone, ConeKind.MOVED))
        else:
            # One word properly extends the other by u; the only fixed
            # point of the cone is then w.u^infinity.
            u = v[len(w) :] if len(v) > len(w) else w[len(v) :]
            cones.append(SupportCone(cone, ConeKind.BOUNDARY, point_normalize(cone, Word(u))))
    return tuple(cones)


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


def _expand_at(rows: list[Row], w: Letters, alphabet: Alphabet) -> list[Row]:
    """The rows with w's row refined by one caret.  Rows in sorted domain
    order stay sorted: the children of w sort where w stood."""
    out = []
    for dw, iv in rows:
        if dw == w:
            out.extend((dw + (i,), iv + (i,)) for i in alphabet.letters)
        else:
            out.append((dw, iv))
    return out


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
    witness found.  The refined tables are letter-tuple rows in sorted
    domain order; only the witness is built of ``Word``s.
    """
    base_rows = list(zip(g.dom, g.img))
    base = table_parity(base_rows)

    def check(rows: list[Row]) -> RefinementWitness | None:
        p = table_parity(rows)
        if p != base:
            return RefinementWitness(
                tuple(Word(w) for w, _ in rows), tuple(Word(v) for _, v in rows), p, base
            )
        return None

    for w in g.dom:
        hit = check(_expand_at(base_rows, w, g.alphabet))
        if hit:
            return hit
    rng = random.Random(seed)
    for _ in range(trials):
        rows = base_rows
        for _ in range(rng.randint(1, 3)):
            target = rng.choice([w for w, _ in rows])
            rows = _expand_at(rows, target, g.alphabet)
        hit = check(rows)
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
    # The leaves come sorted, so the rows are in domain order.
    return _canonical(zip(dom, img), alphabet)


def _row_text(w: Letters, v: Letters) -> str:
    return f"{_text(w)} -> {_text(v)}"


# Writing is memoized per row: a ball file repeats a few thousand distinct
# rows over a hundred thousand lines.  The memo keeps at most _MEMO_SIZE
# rows, and a table holding a word of more than _MEMO_LETTERS letters is
# written row by row without it, so a long power such as t^3000 leaves
# nothing large behind.  Keys compare as tuples, which is why ``Word``
# admits only exact ``int`` letters.
_MEMO_SIZE = 4096
_MEMO_LETTERS = 32
_memo_row_text = functools.lru_cache(maxsize=_MEMO_SIZE)(_row_text)


def format_element(g: VnElement) -> str:
    """Bit-exact text form: header line then one sorted row per cone."""
    dom, img = g.dom, g.img
    short = max(map(len, dom)) <= _MEMO_LETTERS and max(map(len, img)) <= _MEMO_LETTERS
    rows = map(_memo_row_text if short else _row_text, dom, img)
    return "\n".join([f"vn {g.alphabet.degree}", *rows])


# parse_element checks each distinct row text and each distinct partition
# set once per process: a ball file repeats a few thousand distinct rows
# over a hundred thousand lines, and a few thousand distinct domains, which
# recur as its image sets.  Each memo keeps at most _MEMO_SIZE entries.  A
# row text of more than 2 * _MEMO_LETTERS characters, and a partition set
# of more than _MEMO_WORDS words, are checked directly, so the memos keep
# no large table.  A partition set holding a word of L letters has at
# least L + 1 words, so no memoized set holds a word past _MEMO_LETTERS.
_MEMO_WORDS = _MEMO_LETTERS

# Every file header read at one degree shares one Alphabet: a ball file
# holds thousands of elements, and an Alphabet of their own kept the 5,714
# elements of the radius-12 ball 0.46 MB larger.  A failed header raises,
# so this memo holds only alphabets.
_memo_alphabet = functools.lru_cache(maxsize=64)(Alphabet)


def _header(lineno: int, line: str, form: str) -> list:
    """``[alphabet, *numbers]`` of a file's header line, which must have the
    fields of ``form``, such as ``vn <degree>``: its keyword, then a degree
    and the form's further numbers.  A defect raises ``FileFormatError`` at
    ``lineno``: a wrong keyword or field count first, then the degree's
    error, then the first bad later number's."""
    parts, fields = line.split(), form.split()
    if len(parts) != len(fields) or parts[0] != fields[0]:
        raise FileFormatError(f"expected '{form}', got {line!r}", lineno)
    try:
        return [_memo_alphabet(_parse_int(parts[1])), *map(_parse_int, parts[2:])]
    except ValueError as exc:
        raise FileFormatError(str(exc), lineno) from exc


def _row(text: str) -> tuple[Letters, Letters, int]:
    """(domain letters, image letters, largest letter or 0) of
    ``<word> -> <word>``; the word parser's error for a bad word."""
    left, arrow, right = text.partition("->")
    if not arrow:
        raise FileFormatError(f"expected '<word> -> <word>', got {text!r}")
    w, v = _parse_letters(left), _parse_letters(right)
    return w, v, max(w + v, default=0)


_memo_row = functools.lru_cache(maxsize=_MEMO_SIZE)(_row)


def _partition(
    words: tuple[Letters, ...], degree: int
) -> tuple[tuple[Letters, ...], tuple[int, ...]]:
    """``words`` once they pass as a partition set, and the index of u.1 for
    every caret u whose n children all lie in it.

    In a sorted partition set with u.1 at index k and u.n at index
    k + n - 1, the n - 2 words between them cover the cones u.2..u.(n-1),
    and a split cone would need n words, so they are those children.
    """
    _check_antichain(words, degree)
    last = degree - 1
    carets = tuple(
        k
        for k, w in enumerate(words[: len(words) - last])
        if w[-1:] == (1,) and words[k + last] == w[:-1] + (degree,)
    )
    return words, carets


_memo_partition = functools.lru_cache(maxsize=_MEMO_SIZE)(_partition)


def _checked_partition(
    words: tuple[Letters, ...], degree: int
) -> tuple[tuple[Letters, ...], tuple[int, ...]]:
    """``_partition`` of sorted, distinct letter tuples within the degree;
    ``NotAPartitionError`` if they form no partition set.  A memo hit
    returns the equal tuple the memo stored, so callers can share it; a
    failure is not memoized."""
    if len(words) > _MEMO_WORDS:
        return _partition(words, degree)
    return _memo_partition(words, degree)


def parse_element(text: str) -> VnElement:
    """Parse the text form; non-canonical tables are accepted and reduced.

    Each distinct row text is parsed once per process into letter tuples
    and its largest letter, so checking a row against the alphabet is one
    comparison; a defect raises ``FileFormatError`` with its line number.
    The domain must then form a partition set without repeats
    (``FileFormatError``), and the images must be distinct and form a
    partition set (``NotABijectionError``); each distinct partition set is
    checked once per process, and images found in that memo need no test
    for repeats.  The checked table is reduced and wrapped without
    validating its words again: the domain memo keeps the carets whose
    children are all domain words, so a canonical table, such as every
    table a ball file holds, is recognised without the reducer and keeps
    the memo's domain tuple; elements with equal domains share one.
    """
    lines = [(i, ln) for i, raw in enumerate(text.splitlines(), 1) if (ln := raw.strip())]
    if not lines:
        raise FileFormatError("empty element text")
    [alphabet] = _header(*lines[0], "vn <degree>")
    degree = alphabet.degree
    table: dict[Letters, Letters] = {}
    for lineno, ln in lines[1:]:
        try:
            w, v, top = _row(ln) if len(ln) > 2 * _MEMO_LETTERS else _memo_row(ln)
            if top > degree:
                _check_degree((w, v), degree)
        except VnError as exc:
            raise FileFormatError(str(exc), lineno) from exc
        table[w] = v
    try:
        dom, carets = _checked_partition(tuple(sorted(table)), degree)
    except NotAPartitionError as exc:
        raise FileFormatError(f"domain is not a partition set: {exc}") from exc
    if len(table) != len(lines) - 1:
        raise FileFormatError("duplicate domain words")
    _check_image_partition(tuple(sorted(table.values())), degree)
    img = [table[w] for w in dom]
    # The table is canonical, and keeps the memo's domain tuple, unless a
    # caret whose children are all domain words has images v.1..v.n.
    for k in carets:
        v = img[k]
        if v[-1:] == (1,) and img[k : k + degree] == [v[:-1] + (i,) for i in alphabet.letters]:
            return _canonical(zip(dom, img), alphabet)
    return VnElement(alphabet, dom, tuple(img))


def _read_element(
    path: str, listed_in: str | None = None, lineno: int | None = None
) -> VnElement:
    """Parse an element file.  A path listed at line ``lineno`` of another
    file, such as a manifest or a plan, is relative to that file's
    directory (an absolute path is kept as it is), and a defect of the
    element it names raises ``FileFormatError`` at that line, naming the
    path as listed."""
    full = path
    if listed_in is not None:
        full = os.path.join(os.path.dirname(os.path.abspath(listed_in)), path)
    with _open_text(full) as fh:
        text = fh.read()
    try:
        return parse_element(text)
    except VnError as exc:
        if listed_in is None:
            raise
        raise FileFormatError(f"{path}: {exc}", lineno) from exc


@contextlib.contextmanager
def _open_text(path: str):
    """Open a file for reading as UTF-8 text.  A read in the ``with`` body
    that meets bytes which are not UTF-8 raises FileFormatError, not
    UnicodeDecodeError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FileFormatError(
                f"not UTF-8 text: {path}: byte {exc.object[exc.start]:#04x} ({exc.reason})"
            ) from exc
