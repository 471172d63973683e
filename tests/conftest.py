"""Shared helpers and independent oracles used across the test modules.

The oracles here deliberately avoid the code paths they check: tree
walking instead of measure sums, brute-force enumeration instead of the
pairwise refinement rule, inversion counting instead of cycle parity, and
plain leaf-index permutation tuples instead of element arithmetic.
``naive_compose``/``naive_canonicalize`` are the original quadratic
prefix-scan product and restart-after-every-merge reduction, kept as the
reference for the bisect-and-stack kernel in ``vncalc.element``.
``naive_embed`` is the original embedding, which hands the cone rows and
the fixed sibling rows to ``naive_canonicalize`` in no particular order,
kept as the reference for ``embed`` in ``vncalc.constructions``, which
builds its canonical table directly.  ``naive_random_leaves`` is the original
random partition loop, which re-sorts the leaves on every expansion.
``naive_apply_word`` is the original linear scan over an element's rows,
kept as the reference for the bisect lookup of ``apply_word`` and
``VnElement.image_of`` on the letter-tuple storage.
``naive_parse_word``, ``naive_check_letters``, ``naive_from_words``,
``naive_make_element`` and ``naive_parse_element`` are the original
validate-every-Word parsers and checks, kept as the reference for the
tuple-level validation in ``vncalc.words`` and ``vncalc.element``: they
must accept the same tables and raise the same errors, byte for byte.
``naive_format_element`` and ``naive_tuple_parse_element`` are the
element text writer and tuple parser as they were before the word memos
of ``vncalc.words``: they convert every word text on every row, and are
kept as the reference for the memoized ``format_element`` and
``parse_element``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from vncalc.element import (
    VnElement,
    _canonical,
    _check_image_partition,
    _require_same_alphabet,
)
from vncalc.errors import (
    ArityError,
    FileFormatError,
    MalformedWordError,
    NotABijectionError,
    NotAPartitionError,
    ParameterRangeError,
    VnError,
    WordTooShortError,
)
from vncalc.words import (
    Alphabet,
    PartitionSet,
    Word,
    _check_antichain,
    _check_degree,
    check_letters,
)

Pair = tuple[Word, Word]


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
                groups.setdefault(w.parent(), {})[w.last()] = table[w]
        for u in sorted(groups):
            kids = groups[u]
            if len(kids) != n or 1 not in kids:
                continue
            v1 = kids[1]
            if len(v1) == 0 or v1.last() != 1:
                continue
            base = v1.parent()
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


def naive_compose(g: VnElement, h: VnElement) -> VnElement:
    """The element x -> g(h(x)); in the product g*h the right factor acts first."""
    _require_same_alphabet(g, h)
    g_pairs = g.pairs()
    out: list[Pair] = []
    for w, v in h.pairs():
        for u, z in g_pairs:
            if u.is_prefix_of(v):
                out.append((w, z + v.drop(len(u))))
            elif v.is_proper_prefix_of(u):
                s = u.drop(len(v))
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
                s = w.take(k).child(b)
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
        if u.is_prefix_of(w):
            return z + w.drop(len(u))
    needed = max(len(u) for u in g.domain.words if w.is_prefix_of(u))
    raise WordTooShortError(
        f"word {w} is shorter than the acting table; extend it to length {needed}"
    )


def naive_parse_word(text: str) -> Word:
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
            if w.take(k) in wordset:
                raise NotAPartitionError(f"{w.take(k)} is a proper prefix of {w}")
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
    errors of the package's word parser without its memo.
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
            w = tuple([*map(int, left.split("."))])
            v = tuple([*map(int, right.split("."))])
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
    _check_image_partition(image_set, degree)
    return _canonical([(w, table[w]) for w in dom], alphabet)


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


def refine_oracle(a: PartitionSet, b: PartitionSet) -> set[Word]:
    """Minimal-depth words covered by both antichains, by brute force."""
    n = a.alphabet.degree
    top = max(a.max_depth(), b.max_depth())

    def covered(w: Word) -> bool:
        return any(u.is_prefix_of(w) for u in a.words) and any(
            u.is_prefix_of(w) for u in b.words
        )

    out = set()
    for depth in range(top + 1):
        for tup in product(range(1, n + 1), repeat=depth):
            w = Word(tup)
            if covered(w) and (depth == 0 or not covered(Word(tup[:-1]))):
                out.add(w)
    return out


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
    leaves = list(PartitionSet.level(alphabet, depth).words)
    shuffled = list(leaves)
    rng.shuffle(shuffled)
    return canonicalize(zip(leaves, shuffled), alphabet)
