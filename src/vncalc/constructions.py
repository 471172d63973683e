"""Named elements and generating data for V_n.

Provides the level-1 permutation lifts, the involution tau, the spine
translation t = sigma_dot * tau, cone embeddings, spinal elements built
from a sequence of cone contents, Sidon sets, and the planner that pads a
list of involutions into a spinal sequence whose support has the unique
difference property.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    AlphabetMismatchError,
    ConstructionFailedError,
    FileFormatError,
    InvolutionRequiredError,
    ParameterRangeError,
    PlanInvariantError,
)
from .element import (
    VnElement,
    _canonical,
    _read_element,
    _table_letters,
    commutator,
    compose,
    conjugate,
    identity,
    order_bounded,
    power,
    table_parity,
)
from .search import GeneratorSet, _walk
from .words import Alphabet, Word, _parse_int, check_letters, repeat_letter


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ParameterRangeError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

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

    def parity(self) -> int:
        return table_parity((i, self(i)) for i in range(1, self.degree + 1))


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
    letters = g.alphabet.letters
    path = list(enumerate(cone))
    left = [cone[:k] + (b,) for k, a in path for b in letters if b < a]
    right = [cone[:k] + (b,) for k, a in reversed(path) for b in letters if b > a]
    return VnElement(
        g.alphabet,
        (*left, *[cone + u for u in g.dom], *right),
        (*left, *[cone + v for v in g.img], *right),
    )


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
    return repeat_letter(1, k)


def make_s_alpha(alpha, alphabet: Alphabet | None = None) -> VnElement:
    """Spinal element for a sequence of cone contents.

    Entry k acts inside the cone at 1^k.2; the swap of the two deepest
    spine children caps the construction at depth len(alpha)+1.  Built
    from its case-by-case table: every cone off the spine and off the
    1^k.2 cones is fixed.  The product of cone embeddings is kept once,
    as the reference form, in ``verify``; the eq3 suite compares the two
    at k=0.
    """
    if isinstance(alpha, AlphaPlan):
        entries, alphabet = alpha.entries, alpha.alphabet
    else:
        entries = tuple(alpha)
        if entries:
            alphabet = entries[0].alphabet
        elif alphabet is None:
            raise ParameterRangeError("an alphabet is required for the empty sequence")
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


@dataclass(frozen=True)
class SidonSet:
    """A finite set of positive integers with all pairwise differences distinct."""

    members: frozenset[int]

    def __post_init__(self):
        for x in self.members:
            if not isinstance(x, int) or x < 1:
                raise ParameterRangeError(f"members must be positive integers, got {x!r}")
        if not is_sidon(self.members):
            raise ParameterRangeError(
                f"pairwise differences collide in {sorted(self.members)}"
            )

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


@dataclass(frozen=True)
class AlphaPlan:
    """A spinal sequence whose nontrivial positions form a Sidon set.

    Checked on construction: every entry has order at most 2, the support
    has the unique difference property, all positions up to the padding
    width are trivial, and so are the last padding-width+1 positions.
    Whether the entries generate anything in particular is deliberately
    not (and cannot be) checked here.
    """

    alphabet: Alphabet
    entries: tuple[VnElement, ...]
    support: SidonSet
    padding: int
    top: int

    @classmethod
    def from_entries(cls, entries, alphabet: Alphabet | None = None) -> AlphaPlan:
        entries = tuple(entries)
        if entries:
            alphabet = entries[0].alphabet
        elif alphabet is None:
            raise ParameterRangeError("an alphabet is required for the empty sequence")
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
        top = max(idx) if idx else 0
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
        return cls(alphabet, entries, support, padding, top)

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


def base_involutions(
    alphabet: Alphabet, conjugators: list[VnElement] | None = None
) -> list[VnElement]:
    """Involutions obtained by conjugating a seed around the group.

    The seed is the product of the level-1 and level-2 cone copies of the
    basic swap, an involution of trivial parity.  A twisting element is
    picked as the first candidate whose conjugate of the seed fails to
    commute with it; the result collects the conjugates of the seed by
    every supplied conjugator, with and without the twist, deduplicated
    in first-seen order.
    """
    sig, tau = sigma_dot(alphabet), make_tau(alphabet)
    seed = compose(embed(Word((1,)), sig), embed(Word((2,)), sig))
    if conjugators is None:
        conjugators = _generator_words(alphabet, max_length=2)
    twist_candidates = _generator_words(alphabet, max_length=3)
    twist = None
    for c in twist_candidates:
        if not commutator(seed, conjugate(seed, c)).is_identity():
            twist = c
            break
    if twist is None:
        raise ConstructionFailedError(
            f"no twisting element among {len(twist_candidates)} candidates "
            "makes the seed conjugate noncommuting"
        )
    out: dict[VnElement, None] = {}
    for g in conjugators:
        for h in (g, compose(twist, g)):
            out.setdefault(conjugate(seed, h))
    return list(out)


def _generator_words(alphabet: Alphabet, max_length: int) -> list[VnElement]:
    """Products of up to max_length factors from {sigma, tau}, deduplicated."""
    gens = GeneratorSet.from_dict({"sigma": sigma_dot(alphabet), "tau": make_tau(alphabet)})
    return [g for _, g in _walk(gens, max_length)]


def default_base(alphabet: Alphabet, size: int) -> list[VnElement]:
    """A deterministic list of distinct nontrivial involutions."""
    pool = base_involutions(alphabet)
    if len(pool) < size:
        t = make_t(alphabet)
        seen = dict.fromkeys(pool)
        k = 1
        while len(seen) < size:
            seen.setdefault(conjugate(pool[0], power(t, k)))
            k += 1
        pool = list(seen)
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
    with open(path, "w") as fh:
        fh.write(text)


def load_alpha_plan(path: str) -> AlphaPlan:
    """Read a plan file; element paths resolve relative to the file."""
    with open(path) as fh:
        raw = fh.read()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw.splitlines())]
    lines = [(i, ln) for i, ln in lines if ln]
    if not lines:
        raise FileFormatError("empty plan file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "alpha":
        raise FileFormatError(f"expected 'alpha <degree> <length>', got {header!r}", lineno)
    try:
        alphabet, ell = Alphabet(_parse_int(parts[1])), _parse_int(parts[2])
    except ValueError as exc:
        raise FileFormatError(str(exc), lineno) from exc
    if ell < 0:
        raise FileFormatError("sequence length must be >= 0", lineno)
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
        g = _read_element(right, path)
        if g.alphabet != alphabet:
            raise FileFormatError(
                f"element at index {k} has degree {g.alphabet.degree}, plan has "
                f"{alphabet.degree}",
                lineno,
            )
        entries[k - 1] = g
    return AlphaPlan.from_entries(entries, alphabet)
