"""Named elements and generating data for V_n.

Provides the level-1 permutation lifts, the involution tau, the spine
translation t = sigma_dot * tau, cone embeddings, spinal elements built
from a sequence of cone contents, Sidon sets, and the planner that pads a
list of involutions into a spinal sequence whose support has the unique
difference property.
"""

from __future__ import annotations

import functools

from .errors import (
    AlphabetMismatchError,
    FileFormatError,
    InvolutionRequiredError,
    ParameterRangeError,
    PlanInvariantError,
)
from .element import (
    VnElement,
    _canonical,
    _header,
    _open_text,
    _read_element,
    _table_letters,
    compose,
    conjugate,
    identity,
    order_bounded,
)
from .search import GeneratorSet, _walk
from .words import Alphabet, Word, _parse_int, _Record, check_letters


class Permutation(_Record):
    """A bijection of {1..n}; images[i-1] is the image of i."""

    __slots__ = __match_args__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ParameterRangeError(f"not a permutation of 1..{n}: {images}")
        self._set_fields(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @classmethod
    def from_cycles(cls, cycles, n: int) -> Permutation:
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for x in cycle:
                if not 1 <= x <= n:
                    raise ParameterRangeError(f"cycle entry {x} outside 1..{n}")
                if x in seen:
                    raise ParameterRangeError(f"cycles are not disjoint at {x}")
                seen.add(x)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(tuple(images))


def dot(p: Permutation, alphabet: Alphabet) -> VnElement:
    """Lift a permutation of the alphabet to the level-1 cones."""
    if p.degree != alphabet.degree:
        raise AlphabetMismatchError(
            f"permutation degree {p.degree} vs alphabet degree {alphabet.degree}"
        )
    return _canonical([((i,), (p(i),)) for i in alphabet.letters], alphabet)


def sigma_dot(alphabet: Alphabet) -> VnElement:
    """The lift of the transposition (1 2), fixed throughout as sigma.

    Built once per alphabet; every call returns the same element.
    """
    return _sigma_dot(alphabet)


def make_tau(alphabet: Alphabet) -> VnElement:
    """The involution swapping the cone at 1.i with the cone at i+1.

    Runs over 1 <= i < n; the leftover cone at 1.n is fixed pointwise.
    Built once per alphabet; every call returns the same element.
    """
    return _make_tau(alphabet)


def make_t(alphabet: Alphabet) -> VnElement:
    """sigma * tau: translates one step along the spine 1.1.1...

    Built once per alphabet; every call returns the same element.
    """
    return _make_t(alphabet)


# The named generators depend only on the degree.  The caches sit behind
# the public functions, which stay plain functions, so that callers and
# the benchmark's tracer still see every call by its public name.


@functools.cache
def _sigma_dot(alphabet: Alphabet) -> VnElement:
    return dot(Permutation.from_cycles([(1, 2)], alphabet.degree), alphabet)


@functools.cache
def _make_tau(alphabet: Alphabet) -> VnElement:
    n = alphabet.degree
    table = {(1, n): (1, n)}
    for i in range(1, n):
        table[(1, i)] = (i + 1,)
        table[(i + 1,)] = (1, i)
    return _canonical(sorted(table.items()), alphabet)


@functools.cache
def _make_t(alphabet: Alphabet) -> VnElement:
    return compose(sigma_dot(alphabet), make_tau(alphabet))


def embed(w: Word, g: VnElement) -> VnElement:
    """The element acting as g inside the cone at w and trivially elsewhere.

    Every sibling cone off the path to w is fixed.  In sorted order the
    siblings left of the path come first, shallowest first, then g's rows
    moved under w, then the siblings right of the path, deepest first.
    That table is already canonical, so no reducer runs: g's own rows
    have no mergeable caret, and a g other than the identity splits the
    cone at w into at least n rows, so every caret on the path has a
    child that is no single row.  The identity g embeds as the identity.
    """
    check_letters(w, g.alphabet)
    if g.is_identity():
        return identity(g.alphabet)
    cone = w.letters
    n = g.alphabet.degree
    siblings = _memo_siblings if (n - 1) * len(cone) <= _SIBLING_ROWS else _siblings
    left, right = siblings(cone, n)
    return VnElement(
        g.alphabet,
        (*left, *[cone + u for u in g.dom], *right),
        (*left, *[cone + v for v in g.img], *right),
    )


def _siblings(cone: tuple[int, ...], degree: int) -> tuple[tuple, tuple]:
    """The fixed sibling words left and right of the path to ``cone``, in
    the order ``embed`` lists them: (n - 1) * len(cone) words in all."""
    letters = range(1, degree + 1)
    path = list(enumerate(cone))
    left = tuple(cone[:k] + (b,) for k, a in path for b in letters if b < a)
    right = tuple(cone[:k] + (b,) for k, a in reversed(path) for b in letters if b > a)
    return left, right


# The sibling words depend only on the cone word and the degree, and a few
# pairs recur: eq2's 3,636 embeddings on the default grid use 18.  Neither
# the word nor the degree has a cap, so only cones with at most
# _SIBLING_ROWS siblings are kept, each holding at most 64 * 65 / 2
# letters, and the memo keeps at most 128 of them.
_SIBLING_ROWS = 64
_memo_siblings = functools.lru_cache(maxsize=128)(_siblings)


def _embed_letters(w: Word, g: VnElement) -> int:
    """The letters of ``embed(w, g)``'s table, known before it is built.

    Each side holds, for the k-th letter of w, n - 1 fixed siblings of
    k letters, so (n - 1) * L * (L + 1) / 2 letters for a word of L
    letters, plus g's rows with w put in front.
    """
    if g.is_identity():
        return 0
    n, cone = g.alphabet.degree, len(w)
    return (n - 1) * cone * (cone + 1) + 2 * cone * len(g.dom) + _table_letters(g)


def spine_cone(k: int) -> Word:
    """The word 1^k."""
    return Word((1,) * k)


def _entries_of(
    alpha, alphabet: Alphabet | None = None
) -> tuple[tuple[VnElement, ...], Alphabet]:
    """The entries and alphabet of a plan or of a sequence of elements.

    A sequence takes the alphabet of its first entry; an empty one takes
    ``alphabet``, which it then requires.
    """
    if isinstance(alpha, AlphaPlan):
        return alpha.entries, alpha.alphabet
    entries = tuple(alpha)
    if entries:
        return entries, entries[0].alphabet
    if alphabet is None:
        raise ParameterRangeError("an alphabet is required for the empty sequence")
    return entries, alphabet


def make_s_alpha(alpha, alphabet: Alphabet | None = None) -> VnElement:
    """Spinal element for a sequence of cone contents.

    Entry k acts inside the cone at 1^k.2; the swap of the two deepest
    spine children caps the construction at depth len(alpha)+1.  Built
    from its case-by-case table: every cone off the spine and off the
    1^k.2 cones is fixed.  The product of cone embeddings is kept once,
    as the reference form, in ``verify``; the eq3 suite compares the two
    at k=0.
    """
    entries, alphabet = _entries_of(alpha, alphabet)
    for g in entries:
        if g.alphabet != alphabet:
            raise AlphabetMismatchError("sequence entries use mixed alphabets")
    n = alphabet.degree
    table = {(i,): (i,) for i in range(2, n + 1)}
    for k, g in enumerate(entries, start=1):
        cone = (1,) * k + (2,)
        table.update((cone + u, cone + v) for u, v in zip(g.dom, g.img))
        sides = [(1,) * k + (i,) for i in range(3, n + 1)]
        table.update(zip(sides, sides))
    deep = (1,) * (len(entries) + 1)
    swap = {1: 2, 2: 1}
    for i in alphabet.letters:
        table[deep + (i,)] = deep + (swap.get(i, i),)
    return _canonical(sorted(table.items()), alphabet)


def is_sidon(members) -> bool:
    """True iff all pairwise differences are distinct."""
    xs = sorted(set(members))
    diffs = [b - a for i, a in enumerate(xs) for b in xs[i + 1 :]]
    return len(diffs) == len(set(diffs))


class SidonSet(_Record):
    """A finite set of positive integers with all pairwise differences distinct."""

    __slots__ = __match_args__ = ("members",)

    def __init__(self, members: frozenset[int]):
        for x in members:
            if not isinstance(x, int) or x < 1:
                raise ParameterRangeError(f"members must be positive integers, got {x!r}")
        if not is_sidon(members):
            raise ParameterRangeError(f"pairwise differences collide in {sorted(members)}")
        self._set_fields(members)

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def max_difference(self) -> int:
        xs = self.sorted_members
        return xs[-1] - xs[0] if len(xs) > 1 else 0

    def shift(self, offset: int) -> SidonSet:
        return SidonSet(frozenset(x + offset for x in self.members))


# The largest Sidon set that ``sidon_generate`` builds.  Greedy tries
# every integer up to its last member, which grows faster than count**2:
# at this cap it tries 514,644 candidates in 0.6-0.7 s (Python
# 3.11, one core), and at 500 it took 3.2 s.  Powers of two take 0.03 s
# here; the differences that ``SidonSet`` checks are 300-bit integers.
MAX_SIDON_COUNT = 300


def sidon_generate(count: int, strategy: str = "greedy") -> SidonSet:
    """A Sidon set of the requested size, at most ``MAX_SIDON_COUNT``.

    ``powers-of-two`` returns {2, 4, .., 2^count}; ``greedy`` extends
    from 1 by always taking the least integer that keeps all pairwise
    differences distinct (the Mian-Chowla rule: 1, 2, 4, 8, 13, ...).
    """
    if count < 0:
        raise ParameterRangeError("count must be >= 0")
    if count > MAX_SIDON_COUNT:
        raise ParameterRangeError(f"count must be <= {MAX_SIDON_COUNT}")
    if strategy == "powers-of-two":
        return SidonSet(frozenset(2**i for i in range(1, count + 1)))
    if strategy != "greedy":
        raise ParameterRangeError(f"unknown strategy {strategy!r}")
    members: list[int] = []
    differences: set[int] = set()
    candidate = 1
    while len(members) < count:
        # The members are distinct and smaller than the candidate, so its
        # differences to them are distinct from each other.  The smallest
        # ones, to the latest members, are the likeliest to be taken.
        if differences.isdisjoint(map(candidate.__sub__, reversed(members))):
            differences.update(map(candidate.__sub__, members))
            members.append(candidate)
        candidate += 1
    return SidonSet(frozenset(members))


class AlphaPlan(_Record):
    """A spinal sequence whose nontrivial positions form a Sidon set.

    Checked on construction: every entry has order at most 2, the support
    has the unique difference property, all positions up to the padding
    width are trivial, and so are the last padding-width+1 positions.
    Whether the entries generate anything in particular is deliberately
    not (and cannot be) checked here.
    """

    __slots__ = __match_args__ = ("alphabet", "entries", "support", "padding")

    def __init__(
        self, alphabet: Alphabet, entries: tuple[VnElement, ...], support: SidonSet, padding: int
    ):
        self._set_fields(alphabet, entries, support, padding)

    @classmethod
    def from_entries(cls, entries, alphabet: Alphabet | None = None) -> AlphaPlan:
        entries, alphabet = _entries_of(entries, alphabet)
        ell = len(entries)
        for k, g in enumerate(entries, start=1):
            if g.alphabet != alphabet:
                raise AlphabetMismatchError("entries use mixed alphabets")
            if order_bounded(g, 2) is None:
                raise InvolutionRequiredError(f"entry {k} has order > 2")
        idx = [k for k, g in enumerate(entries, start=1) if not g.is_identity()]
        try:
            support = SidonSet(frozenset(idx))
        except ParameterRangeError as exc:
            raise PlanInvariantError(str(exc)) from exc
        padding = support.max_difference()
        for k in range(1, min(padding, ell) + 1):
            if not entries[k - 1].is_identity():
                raise PlanInvariantError(
                    f"entry {k} must be trivial below the padding width {padding}"
                )
        for i in range(0, padding + 1):
            k = ell - i
            if 1 <= k <= ell and not entries[k - 1].is_identity():
                raise PlanInvariantError(
                    f"entry {k} must be trivial within the top padding"
                )
        return cls(alphabet, entries, support, padding)

    @property
    def length(self) -> int:
        return len(self.entries)

    def entry(self, k: int) -> VnElement:
        return self.entries[k - 1]


def plan_alpha(base, strategy: str = "greedy") -> AlphaPlan:
    """Pad a list of involutions into a valid spinal sequence.

    A Sidon set of size len(base) is generated, then shifted up until its
    minimum exceeds its own largest pairwise difference (shifting keeps
    the differences, so one pass settles it).  The sequence length is
    max(support) + padding + 1, placing base elements on the support in
    order and identities elsewhere.
    """
    base = list(base)
    if not base:
        raise ParameterRangeError("base must be nonempty")
    alphabet = base[0].alphabet
    for k, g in enumerate(base, start=1):
        if g.alphabet != alphabet:
            raise AlphabetMismatchError("base elements use mixed alphabets")
        if order_bounded(g, 2) is None:
            raise InvolutionRequiredError(f"base element {k} has order > 2")
    support = sidon_generate(len(base), strategy)
    while support.members and min(support.members) <= support.max_difference():
        support = support.shift(support.max_difference() - min(support.members) + 1)
    padding = support.max_difference()
    top = max(support.members)
    ell = top + padding + 1
    entries = [identity(alphabet)] * ell
    for g, k in zip(base, support.sorted_members):
        entries[k - 1] = g
    return AlphaPlan.from_entries(entries, alphabet)


def base_involutions(alphabet: Alphabet) -> list[VnElement]:
    """Involutions obtained by conjugating a seed around the group.

    The seed is the product of the level-1 and level-2 cone copies of the
    basic swap, an involution of trivial parity.  The result collects the
    conjugates of the seed by every product of up to two factors from
    {sigma, tau}, with and without the twist tau, deduplicated in
    first-seen order.

    The twist is an element whose conjugate of the seed does not commute
    with the seed, and tau is one at every degree n >= 2.  The seed swaps
    1.1 with 1.2 and 2.1 with 2.2.  Its conjugate by tau swaps tau's
    images of those cones: 1.1.1 with 1.1.2, and 2 with 3 (with 1.2 at
    n = 2, where tau fixes 1.2).  On a point 2.1.x, the seed then its
    conjugate give 3.2.x (1.2.2.x at n = 2), and the conjugate then the
    seed give 3.1.x (1.1.1.x), so the two do not commute.  Of the
    candidates that come before tau in the {sigma, tau} walk, the
    identity and sigma, neither would do: sigma swaps the seed's two
    factors, so both conjugate the seed to itself.
    """
    sig, tau = sigma_dot(alphabet), make_tau(alphabet)
    seed = compose(embed(Word((1,)), sig), embed(Word((2,)), sig))
    out: dict[VnElement, None] = {}
    for g in _generator_words(alphabet, max_length=2):
        for h in (g, compose(tau, g)):
            out.setdefault(conjugate(seed, h))
    return list(out)


def _generator_words(alphabet: Alphabet, max_length: int) -> list[VnElement]:
    """Products of up to max_length factors from {sigma, tau}, deduplicated."""
    gens = GeneratorSet.from_dict({"sigma": sigma_dot(alphabet), "tau": make_tau(alphabet)})
    return [g for _, g in _walk(gens, max_length)]


def default_base(alphabet: Alphabet, size: int) -> list[VnElement]:
    """The first ``size`` of ``base_involutions``: distinct nontrivial involutions."""
    pool = base_involutions(alphabet)
    if not 0 <= size <= len(pool):
        raise ParameterRangeError(
            f"base size must lie in 0..{len(pool)} at degree {alphabet.degree}, got {size}"
        )
    return pool[:size]


def format_alpha_plan(plan: AlphaPlan, entry_paths: dict[int, str]) -> str:
    """The text of a plan file: header, then one line per supported index.

    ``entry_paths`` maps each supported index to the element file recorded
    for it; unlisted indices are identity by convention.
    """
    missing = set(plan.support.members) - set(entry_paths)
    if missing:
        raise FileFormatError(f"no element file given for indices {sorted(missing)}")
    lines = [f"alpha {plan.alphabet.degree} {plan.length}"]
    for k in plan.support.sorted_members:
        lines.append(f"{k} @ {entry_paths[k]}")
    return "\n".join(lines) + "\n"


def save_alpha_plan(plan: AlphaPlan, path: str, entry_paths: dict[int, str]) -> None:
    """Write the plan file that ``format_alpha_plan`` describes."""
    text = format_alpha_plan(plan, entry_paths)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_alpha_plan(path: str) -> AlphaPlan:
    """Read a plan file; element paths resolve relative to the file."""
    with _open_text(path) as fh:
        text = fh.read()
    lines = [(i, ln) for i, raw in enumerate(text.splitlines(), 1) if (ln := raw.strip())]
    if not lines:
        raise FileFormatError("empty plan file")
    alphabet, ell = _header(*lines[0], "alpha <degree> <length>")
    if ell < 0:
        raise FileFormatError("sequence length must be >= 0", lines[0][0])
    entries = [identity(alphabet)] * ell
    filled: set[int] = set()
    for lineno, ln in lines[1:]:
        if " @ " not in ln:
            raise FileFormatError(f"expected '<index> @ <element-file>', got {ln!r}", lineno)
        left, right = ln.split(" @ ", 1)
        try:
            k = _parse_int(left.strip())
        except ValueError:
            raise FileFormatError(f"bad index {left!r}", lineno) from None
        if not 1 <= k <= ell:
            raise FileFormatError(f"index {k} outside 1..{ell}", lineno)
        if k in filled:
            raise FileFormatError(f"index {k} listed twice", lineno)
        filled.add(k)
        g = _read_element(right, path, lineno)
        if g.alphabet != alphabet:
            raise FileFormatError(
                f"element at index {k} has degree {g.alphabet.degree}, plan has "
                f"{alphabet.degree}",
                lineno,
            )
        entries[k - 1] = g
    return AlphaPlan.from_entries(entries, alphabet)
