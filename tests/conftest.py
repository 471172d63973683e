"""Shared helpers and independent oracles used across the test modules.

The oracles here deliberately avoid the code paths they check: tree
walking instead of measure sums, brute-force enumeration instead of the
pairwise refinement rule, inversion counting instead of cycle parity, and
plain leaf-index permutation tuples instead of element arithmetic.
``naive_compose``/``naive_canonicalize`` are the original quadratic
prefix-scan product and restart-after-every-merge reduction, kept as the
reference for the dict-and-bisect kernel in ``vncalc.element``.
"""

from __future__ import annotations

import random
from itertools import product

from vncalc.element import VnElement, _require_same_alphabet
from vncalc.errors import NotABijectionError
from vncalc.words import Alphabet, PartitionSet, Word

Pair = tuple[Word, Word]


def W(text: str) -> Word:
    return Word.parse(text)


def words(*texts: str) -> list[Word]:
    return [Word.parse(t) for t in texts]


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
    return VnElement(PartitionSet(alphabet, dom), tuple(table[w] for w in dom))


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
