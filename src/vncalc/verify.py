"""Machine checks of the algebraic identities used by the constructions.

Every check compares canonical forms exactly; there is no tolerance and
no sampling inside a single check.  Failing reports carry both sides'
canonical tables for diffing.
"""

from __future__ import annotations

import functools
import math
import random
from enum import Enum

from .constructions import (
    AlphaPlan,
    _entries_of,
    default_base,
    embed,
    make_s_alpha,
    make_t,
    make_tau,
    plan_alpha,
    sigma_dot,
    spine_cone,
)
from .element import (
    VnElement,
    commutator,
    compose,
    identity,
    invert,
    is_volume_preserving,
    power,
    product,
    random_element,
    sign,
)
from .errors import (
    AlphabetMismatchError,
    LevelTooSmallError,
    NotVolumePreservingError,
    ParameterRangeError,
)
from .search import GeneratorSet, _walk
from .words import Alphabet, Word, _Record

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


class VerificationReport(_Record):
    __slots__ = __match_args__ = ("name", "params", "verdict", "lhs", "rhs", "reason")

    def __init__(
        self,
        name: str,
        params: str,
        verdict: str,
        lhs: VnElement | None = None,
        rhs: VnElement | None = None,
        reason: str | None = None,
    ):
        self._set_fields(name, params, verdict, lhs, rhs, reason)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def verdict_text(self) -> str:
        if self.verdict == SKIP and self.reason:
            return f"SKIP({self.reason})"
        return self.verdict

    def line(self) -> str:
        return f"{self.name} {self.params} {self.verdict_text()}"


def _compare(name: str, params: str, lhs: VnElement, rhs: VnElement) -> VerificationReport:
    if lhs == rhs:
        return VerificationReport(name, params, PASS)
    return VerificationReport(name, params, FAIL, lhs=lhs, rhs=rhs)


# The checks of a suite share their operands: eq2's check k builds the
# spine embedding that check k + 1 conjugates, and the other suites
# conjugate by the same few powers of t for every k.  The powers are
# keyed by t itself, never by the alphabet alone, so a rebound ``make_t``
# gets powers of its own, and every construction is looked up by module
# name when it builds, so a rebound or traced one sees each call.  The
# memos keep a few small entries: the degree and k have no cap, and t^k
# holds about k * k * (degree - 1) letters, so powers for k past
# _SHARED_POWER are built for each check.
_SHARED_POWER = 16


def _carried_embedding():
    """eq2's spine embedding ``embed(spine_cone(k), gamma)``, kept from one
    check to the next, with a ``cache_clear`` as the powers' memo has.
    The one entry ``(gamma, k, embedding)`` is matched by the identity of
    gamma, so no call hashes a table; the entry holds gamma itself, so its
    id cannot pass to another element while kept."""
    entry = (None, 0, None)

    def spine_embedding(k: int, gamma: VnElement) -> VnElement:
        nonlocal entry
        held, held_k, embedding = entry
        if held is gamma and held_k == k:
            return embedding
        embedding = embed(spine_cone(k), gamma)
        entry = (gamma, k, embedding)
        return embedding

    def cache_clear() -> None:
        nonlocal entry
        entry = (None, 0, None)

    spine_embedding.cache_clear = cache_clear
    return spine_embedding


_spine_embedding = _carried_embedding()


def _build_powers(t: VnElement, k: int) -> tuple[VnElement, VnElement]:
    t_k = power(t, k)
    return invert(t_k), t_k


_memo_powers = functools.lru_cache(maxsize=32)(_build_powers)


def _shift(g: VnElement, k: int) -> VnElement:
    """g conjugated by t^k: t^-k * g * t^k, for the t that ``make_t``
    gives now."""
    t = make_t(g.alphabet)
    t_inv, t_k = _memo_powers(t, k) if k <= _SHARED_POWER else _build_powers(t, k)
    return product(t_inv, g, t_k)


def _spine_factor(sig: VnElement, k: int) -> VnElement:
    """The deep spine factor [sig, sig embedded at 1^k] of trick and
    isolation."""
    return commutator(sig, embed(spine_cone(k), sig))


def verify_translation(
    gamma: VnElement, k: int, *, label: str | None = None
) -> VerificationReport:
    """Conjugating a spine-embedded element by t pushes it one level deeper.

    ``label``, if given, ends the report's params.
    """
    params = f"n={gamma.alphabet.degree} k={k}"
    if label is not None:
        params = f"{params} {label}"
    if k < 1:
        return VerificationReport("translation", params, SKIP, reason="k must be >= 1")
    lhs = _shift(_spine_embedding(k, gamma), 1)
    rhs = _spine_embedding(k + 1, gamma)
    return _compare("translation", params, lhs, rhs)


def _shifted_product_form(entries, alphabet: Alphabet, k: int) -> VnElement:
    """The product form of a spinal element with every cone pushed k deeper.

    At k=0 this is the reference form for make_s_alpha's case table.
    """
    ell = len(entries)
    return product(
        embed(spine_cone(ell + k + 1), sigma_dot(alphabet)),
        *[embed(spine_cone(i + k).child(2), g) for i, g in enumerate(entries, start=1)],
    )


def verify_s_alpha_conjugation(alpha, k: int) -> VerificationReport:
    """Conjugating a spinal element by t^k shifts all its cones k deeper."""
    entries, alphabet = _entries_of(alpha)
    params = f"n={alphabet.degree} ell={len(entries)} k={k}"
    if k < 0:
        return VerificationReport("shift-conjugation", params, SKIP, reason="k must be >= 0")
    lhs = _shift(make_s_alpha(entries, alphabet), k)
    rhs = _shifted_product_form(entries, alphabet, k)
    return _compare("shift-conjugation", params, lhs, rhs)


def verify_commutator_trick(alpha, k: int) -> VerificationReport:
    """Commutator of a spinal element with its t^k-conjugate, in product form.

    Requires the top k entries of the sequence to be trivial; otherwise
    the per-cone factorization below does not hold and the check reports
    a precondition violation instead of attempting it.
    """
    entries, alphabet = _entries_of(alpha)
    ell = len(entries)
    params = f"n={alphabet.degree} ell={ell} k={k}"
    if k < 0:
        return VerificationReport("commutator-product", params, SKIP, reason="k must be >= 0")
    bad = [i for i in range(max(ell - k + 1, 1), ell + 1) if not entries[i - 1].is_identity()]
    if bad:
        return VerificationReport(
            "commutator-product",
            params,
            SKIP,
            reason=f"entries {bad} in the top k positions are nontrivial",
        )
    s = make_s_alpha(entries, alphabet)
    lhs = commutator(s, _shift(s, k))
    rhs = product(
        embed(spine_cone(ell + 1), _spine_factor(sigma_dot(alphabet), k)),
        *[
            embed(spine_cone(i).child(2), commutator(entries[i - 1], entries[i - k - 1]))
            for i in range(k + 1, ell + 1)
        ],
    )
    return _compare("commutator-product", params, lhs, rhs)


def verify_isolation(plan: AlphaPlan, i: int, j: int) -> VerificationReport:
    """A single pair of supported positions isolates in the commutator.

    For supported positions i < j the commutator of the spinal element
    with its t^(j-i)-conjugate splits into a volume-preserving factor deep
    on the spine times the single cone factor at position j; the unique
    difference property of the support kills every other cone term.  Also
    asserts the two right-hand factors commute (their cones are disjoint).
    """
    params = f"n={plan.alphabet.degree} ell={plan.length} i={i} j={j}"
    name = "isolation"
    members = plan.support.members
    if i not in members or j not in members:
        return VerificationReport(name, params, SKIP, reason="positions must be supported")
    if i >= j:
        return VerificationReport(name, params, SKIP, reason="need i < j")
    k = j - i
    sig = sigma_dot(plan.alphabet)
    s = make_s_alpha(plan.entries, plan.alphabet)
    lhs = commutator(s, _shift(s, k))
    gamma = _spine_factor(sig, k)
    deep = embed(spine_cone(plan.length + 1), gamma)
    cone = embed(spine_cone(j).child(2), commutator(plan.entry(j), plan.entry(i)))
    rhs = compose(deep, cone)
    if not is_volume_preserving(gamma):
        return VerificationReport(
            name, params, FAIL, lhs=lhs, rhs=rhs, reason="spine factor is not volume preserving"
        )
    flipped = compose(cone, deep)
    if rhs != flipped:
        return VerificationReport(
            name, params, FAIL, lhs=rhs, rhs=flipped, reason="right-hand factors do not commute"
        )
    return _compare(name, params, lhs, rhs)


def in_maximal_subgroup(g: VnElement) -> bool:
    """Whether g permutes the level-1 cones.

    Equivalent to membership in the subgroup generated by the level-1
    permutation lifts together with all elements supported in single
    level-1 cones.  Holds iff the first letters of the canonical table
    realize a well-defined permutation of the alphabet.
    """
    if g.is_identity():
        return True
    first: dict[int, int] = {}
    for w, v in zip(g.dom, g.img):
        if first.setdefault(w[0], v[0]) != v[0]:
            return False
    return sorted(first.values()) == list(g.alphabet.letters)


class FiniteClosure(_Record):
    __slots__ = __match_args__ = ("order", "level", "elements")

    def __init__(self, order: int, level: int, elements: frozenset[VnElement]):
        self._set_fields(order, level, elements)


def enumerate_en_group(gens, level: int | None = None) -> FiniteClosure:
    """Exact closure of volume-preserving generators.

    The closure is what the breadth-first walk of ``vncalc.search`` reaches
    from generators named by their index.  Volume-preserving generators
    permute the leaf words of a common level, so the group is finite and
    its order divides (n^level)!; no element needs a longer word than that,
    and the walk ends at its first level that adds nothing.
    """
    gens = list(gens)
    for idx, g in enumerate(gens):
        if not is_volume_preserving(g):
            raise NotVolumePreservingError(f"generator {idx} is not volume preserving: {g}")
    # Checked in index order here: from_dict checks names in string order,
    # where "10" comes before "2".
    for idx, g in enumerate(gens):
        if g.alphabet != gens[0].alphabet:
            raise AlphabetMismatchError(f"generator {idx} uses a different alphabet")
    group = GeneratorSet.from_dict({str(idx): g for idx, g in enumerate(gens)})
    depth = max(len(w) for g in gens for w in g.dom)
    if level is not None:
        if level < depth:
            raise LevelTooSmallError(f"level {level} is below the deepest generator table {depth}")
        depth = level
    bound = math.factorial(group.alphabet.degree ** depth)
    elements = frozenset(g for _, g in _walk(group, bound))
    assert bound % len(elements) == 0
    return FiniteClosure(len(elements), depth, elements)


class AbelianImage(Enum):
    TRIVIAL = "Trivial"
    NONTRIVIAL = "NonTrivial"


def abelianization_image(g: VnElement) -> AbelianImage:
    """Image of g in the abelianized group.

    For even degree the group is simple, so the image is always trivial;
    for odd degree the abelianization is detected by the parity map.
    """
    if g.alphabet.degree % 2 == 0:
        return AbelianImage.TRIVIAL
    return AbelianImage.NONTRIVIAL if sign(g) == -1 else AbelianImage.TRIVIAL


def verify_involution_suite(alphabet: Alphabet, alpha=None) -> VerificationReport:
    """The three generators square to the identity.

    With no explicit sequence, spinal elements are built from planned
    sequences over deterministic involutive bases of sizes 1, 2 and 3.
    Passing a sequence with a higher-order entry makes the spinal square
    nontrivial, which this reports as a failure.
    """
    params = f"n={alphabet.degree}"
    ident = identity(alphabet)
    checks = [sigma_dot(alphabet), make_tau(alphabet)]
    if alpha is not None:
        checks.append(make_s_alpha(alpha, alphabet))
    else:
        checks.extend(make_s_alpha(plan) for plan in _planned(alphabet))
    for g in checks:
        square = compose(g, g)
        if square != ident:
            return VerificationReport(
                "involutions", params, FAIL, lhs=square, rhs=ident
            )
    return VerificationReport("involutions", params, PASS)


# ---------------------------------------------------------------------------
# Parameter-grid suites; each returns one report per grid point.


def translation_suite(degrees, k_values, count: int, seed: int) -> list[VerificationReport]:
    reports = []
    for n in degrees:
        alphabet = Alphabet(n)
        rng = random.Random(seed)
        gammas = [sigma_dot(alphabet), identity(alphabet)]
        gammas += [random_element(alphabet, rng) for _ in range(count)]
        for idx, gamma in enumerate(gammas):
            for k in k_values:
                reports.append(verify_translation(gamma, k, label=f"gamma#{idx}"))
    return reports


def _planned(alphabet: Alphabet, sizes=(1, 2, 3)) -> list[AlphaPlan]:
    """Plans over the default bases of the given sizes; the last 16 are kept."""
    return [_plan(alphabet, size) for size in sizes]


@functools.lru_cache(maxsize=16)
def _plan(alphabet: Alphabet, size: int) -> AlphaPlan:
    return plan_alpha(default_base(alphabet, size))


def plan_suite(check, degrees, k_values) -> list[VerificationReport]:
    """``check(plan, k)`` for each planned sequence at each degree and each k."""
    reports = []
    for n in degrees:
        for plan in _planned(Alphabet(n)):
            for k in k_values:
                reports.append(check(plan, k))
    return reports


def isolation_suite(degrees) -> list[VerificationReport]:
    reports = []
    for n in degrees:
        for plan in _planned(Alphabet(n), sizes=(2, 3)):
            members = plan.support.sorted_members
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    reports.append(verify_isolation(plan, members[a], members[b]))
    return reports


def involution_suite(degrees) -> list[VerificationReport]:
    return [verify_involution_suite(Alphabet(n)) for n in degrees]


def maximal_suite(degrees) -> list[VerificationReport]:
    reports = []
    for n in degrees:
        alphabet = Alphabet(n)
        sig, tau = sigma_dot(alphabet), make_tau(alphabet)
        cases = [
            ("sigma", sig, True),
            ("embed", embed(Word((1,)), tau), True),
            ("tau", tau, False),
            ("t", make_t(alphabet), False),
        ]
        for label, g, expected in cases:
            ok = in_maximal_subgroup(g) == expected
            reports.append(
                VerificationReport(
                    "maximal-membership", f"n={n} {label}", PASS if ok else FAIL
                )
            )
    return reports


def en_suite(degrees) -> list[VerificationReport]:
    reports = []
    for n in degrees:
        alphabet = Alphabet(n)
        sig = sigma_dot(alphabet)
        ok = enumerate_en_group([sig]).order == 2
        reports.append(
            VerificationReport("finite-closure", f"n={n} swap-only", PASS if ok else FAIL)
        )
    alphabet = Alphabet(2)
    sig = sigma_dot(alphabet)
    pair = [sig, embed(Word((1,)), sig)]
    base = enumerate_en_group(pair)
    deeper = enumerate_en_group(pair, level=3)
    ok = base.order == 8 and deeper.order == 8
    reports.append(
        VerificationReport("finite-closure", "n=2 dihedral-pair", PASS if ok else FAIL)
    )
    return reports


def abelianization_suite(degrees, count: int, seed: int) -> list[VerificationReport]:
    reports = []
    for n in degrees:
        alphabet = Alphabet(n)
        expected = AbelianImage.TRIVIAL if n % 2 == 0 else AbelianImage.NONTRIVIAL
        ok = abelianization_image(sigma_dot(alphabet)) == expected
        reports.append(
            VerificationReport("abelianization", f"n={n} swap", PASS if ok else FAIL)
        )
        params = f"n={n} commutators x{count}"
        if count < 1:
            reports.append(
                VerificationReport("abelianization", params, SKIP, reason="count must be >= 1")
            )
            continue
        rng = random.Random(seed)
        ok = True
        # At even n every image is trivial, so no commutator is built.
        for _ in range(count if n % 2 else 0):
            a, b = random_element(alphabet, rng), random_element(alphabet, rng)
            if abelianization_image(commutator(a, b)) != AbelianImage.TRIVIAL:
                ok = False
                break
        reports.append(VerificationReport("abelianization", params, PASS if ok else FAIL))
    return reports


SUITE_BUILDERS = {
    "eq2": lambda opts: translation_suite(
        opts["degrees"], range(1, opts["kmax"] + 1), opts["count"], opts["seed"]
    ),
    # The checks are looked up when a suite runs, so a caller that rebinds
    # the module attribute (the benchmark's step clock) sees every call.
    "eq3": lambda opts: plan_suite(
        verify_s_alpha_conjugation, opts["degrees"], range(0, opts["kmax"] + 1)
    ),
    "trick": lambda opts: plan_suite(
        verify_commutator_trick, opts["degrees"], range(0, opts["kmax"] + 1)
    ),
    "isolation": lambda opts: isolation_suite(opts["degrees"]),
    "involutions": lambda opts: involution_suite(opts["degrees"]),
    "maximal": lambda opts: maximal_suite(opts["degrees"]),
    "en": lambda opts: en_suite(opts["degrees"]),
    "abelianization": lambda opts: abelianization_suite(
        opts["degrees"], opts["count"], opts["seed"]
    ),
}

SUITE_ALIASES = {"translation": "eq2", "shift": "eq3", "commutator": "trick"}


def run_suites(which: str, degrees, kmax: int = 5, count: int = 200, seed: int = 0):
    """All reports for one named suite, or for every suite with 'all'."""
    if count < 0:
        raise ParameterRangeError("count must be >= 0")
    opts = {"degrees": tuple(degrees), "kmax": kmax, "count": count, "seed": seed}
    which = SUITE_ALIASES.get(which, which)
    if which == "all":
        out = []
        for name in SUITE_BUILDERS:
            out.extend(SUITE_BUILDERS[name](opts))
        return out
    if which not in SUITE_BUILDERS:
        raise ParameterRangeError(f"unknown suite {which!r}")
    return SUITE_BUILDERS[which](opts)
