"""Identity checks, finite-closure enumeration, and membership tests."""

import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    W,
    is_prefix,
    level_partition,
    naive_embed,
    naive_enumerate_en_group,
    naive_verify_grid,
    tuple_closure,
)
from vncalc.constructions import (
    base_involutions,
    default_base,
    dot,
    embed,
    make_s_alpha,
    make_t,
    make_tau,
    plan_alpha,
    sigma_dot,
    spine_cone,
    Permutation,
)
from vncalc.element import (
    apply_word,
    canonicalize,
    commutator,
    compose,
    conjugate,
    identity,
    invert,
    is_volume_preserving,
    power,
    product,
    random_element,
)
from vncalc import constructions as constructions_module
from vncalc import verify as verify_module
from vncalc.errors import AlphabetMismatchError, NotVolumePreservingError
from vncalc.verify import (
    AbelianImage,
    abelianization_image,
    abelianization_suite,
    enumerate_en_group,
    in_maximal_subgroup,
    run_suites,
    verify_commutator_trick,
    verify_involution_suite,
    verify_isolation,
    verify_s_alpha_conjugation,
    verify_translation,
)
from vncalc.words import Alphabet, Word

A2 = Alphabet(2)
A3 = Alphabet(3)
A5 = Alphabet(5)


# --- conjugation by t ---------------------------------------------------------


def test_translation_named_and_trivial_cases():
    for n in (2, 3, 5):
        alphabet = Alphabet(n)
        for k in range(1, 6):
            assert verify_translation(sigma_dot(alphabet), k).passed
            assert verify_translation(identity(alphabet), k).passed


def test_translation_randomized():
    rng = random.Random(0)
    for n in (2, 3, 5):
        alphabet = Alphabet(n)
        for _ in range(40):
            gamma = random_element(alphabet, rng)
            for k in (1, 3, 5):
                assert verify_translation(gamma, k).passed


def test_translation_skips_k_zero():
    rep = verify_translation(sigma_dot(A2), 0)
    assert rep.verdict == "SKIP"


# --- spinal shift and commutator product -----------------------------------------


def test_shift_conjugation_k_zero_trivial():
    plan = plan_alpha(default_base(A2, 1))
    assert verify_s_alpha_conjugation(plan, 0).passed


def test_shift_conjugation_planned_grid():
    for n in (2, 3):
        alphabet = Alphabet(n)
        for size in (1, 2):
            plan = plan_alpha(default_base(alphabet, size))
            for k in range(0, 6):
                assert verify_s_alpha_conjugation(plan, k).passed


def test_shift_conjugation_random_sequences():
    rng = random.Random(1)
    for n in (2, 3):
        alphabet = Alphabet(n)
        pool = default_base(alphabet, 3) + [identity(alphabet)]
        for _ in range(10):
            alpha = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            for k in (0, 1, 2):
                assert verify_s_alpha_conjugation(alpha, k).passed


def test_commutator_trick_reduces_to_deep_commutator():
    sig = sigma_dot(A2)
    beta = compose(embed(W("1"), sig), embed(W("2"), sig))
    alpha = [identity(A2), beta, identity(A2), identity(A2)]
    rep = verify_commutator_trick(alpha, 2)
    assert rep.passed
    # The right-hand side collapses to a single deep factor.
    s = make_s_alpha(alpha, A2)
    lhs = commutator(s, conjugate(s, power(make_t(A2), 2)))
    assert lhs == embed(W("1.1.1.1.1"), commutator(sig, embed(W("1.1"), sig)))


def test_commutator_trick_k_zero_both_sides_trivial():
    alpha = [sigma_dot(A2)]
    rep = verify_commutator_trick(alpha, 0)
    assert rep.passed
    s = make_s_alpha(alpha, A2)
    assert commutator(s, s).is_identity()


def test_commutator_trick_precondition_violated():
    sig = sigma_dot(A2)
    beta = compose(embed(W("1"), sig), embed(W("2"), sig))
    alpha = [identity(A2), beta]  # nontrivial last entry
    rep = verify_commutator_trick(alpha, 1)
    assert rep.verdict == "SKIP"
    assert "2" in rep.reason


def trick_sides(entries, k):
    """Both sides of the commutator trick, built from the public
    constructions without its precondition."""
    alphabet = entries[0].alphabet
    ell = len(entries)
    sig = sigma_dot(alphabet)
    s = make_s_alpha(entries, alphabet)
    lhs = commutator(s, conjugate(s, power(make_t(alphabet), k)))
    deep = embed(spine_cone(ell + 1), commutator(sig, embed(spine_cone(k), sig)))
    cones = [
        embed(spine_cone(i).child(2), commutator(entries[i - 1], entries[i - k - 1]))
        for i in range(k + 1, ell + 1)
    ]
    return lhs, product(deep, *cones)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_commutator_trick_needs_trivial_top_entries(n):
    """A nontrivial entry in the top k positions breaks the identity that
    the trick checks, which is why the check SKIPs there; the same entry
    below them keeps it."""
    alphabet = Alphabet(n)
    ell = 5
    for g in default_base(alphabet, 2):
        for k in range(1, ell + 1):
            for top in range(1, ell + 1):
                entries = [identity(alphabet)] * ell
                entries[top - 1] = g
                lhs, rhs = trick_sides(entries, k)
                rep = verify_commutator_trick(entries, k)
                if top > ell - k:
                    assert lhs != rhs and rep.verdict == "SKIP"
                else:
                    assert lhs == rhs and rep.passed


def test_commutator_trick_full_grid_never_fails():
    for n in (2, 3):
        alphabet = Alphabet(n)
        for size in (1, 2, 3):
            plan = plan_alpha(default_base(alphabet, size))
            for k in range(0, 6):
                rep = verify_commutator_trick(plan, k)
                assert not rep.failed


# --- pair isolation --------------------------------------------------------------


def test_isolation_small_plan():
    plan = plan_alpha(default_base(A2, 2))
    assert plan.support.sorted_members == (2, 3)
    assert verify_isolation(plan, 2, 3).passed


def test_isolation_all_pairs_and_distances_distinct():
    for n in (2, 3):
        plan = plan_alpha(default_base(Alphabet(n), 3))
        members = plan.support.sorted_members
        assert members == (4, 5, 7)
        distances = []
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                assert verify_isolation(plan, i, j).passed
                distances.append(j - i)
        assert len(distances) == len(set(distances))


def test_isolation_gamma_factor_properties():
    from vncalc.element import support

    plan = plan_alpha(default_base(A2, 2))
    sig = sigma_dot(A2)
    gamma = commutator(sig, embed(W("1"), sig))
    assert is_volume_preserving(gamma)
    deep = embed(Word((1,) * (plan.length + 1)), gamma)
    for cone in support(deep):
        if cone.kind.value != "Fixed":
            assert is_prefix(Word((1,) * (plan.length + 1)), cone.word)


def test_isolation_rejects_bad_pairs():
    plan = plan_alpha(default_base(A2, 2))
    assert verify_isolation(plan, 2, 2).verdict == "SKIP"
    assert verify_isolation(plan, 3, 2).verdict == "SKIP"
    assert verify_isolation(plan, 1, 3).verdict == "SKIP"


@pytest.mark.parametrize(
    "check, name",
    [
        (verify_s_alpha_conjugation, "shift-conjugation"),
        (verify_commutator_trick, "commutator-product"),
    ],
)
def test_plan_checks_skip_a_negative_k(check, name):
    plan = plan_alpha(default_base(A2, 2))
    rep = check(plan, -1)
    assert rep.line() == f"{name} n=2 ell={plan.length} k=-1 SKIP(k must be >= 0)"
    assert rep.lhs is None and rep.rhs is None


def isolation_sides(plan, i, j, sig, deep_at):
    """The commutator that the isolation check for the pair (i, j) splits,
    and its two factors, with ``sig`` in place of sigma and the spine
    factor embedded at ``deep_at``: (lhs, deep, cone)."""
    k = j - i
    s = make_s_alpha(plan)
    lhs = commutator(s, conjugate(s, power(make_t(plan.alphabet), k)))
    deep = embed(deep_at, commutator(sig, embed(spine_cone(k), sig)))
    cone = embed(spine_cone(j).child(2), commutator(plan.entry(j), plan.entry(i)))
    return lhs, deep, cone


@pytest.mark.parametrize("n", [2, 3])
def test_isolation_fails_a_spine_factor_that_is_not_volume_preserving(monkeypatch, n):
    # With t in place of sigma the spine factor [t, t at 1^k] changes lengths.
    alphabet = Alphabet(n)
    monkeypatch.setattr(verify_module, "sigma_dot", make_t)
    plan = plan_alpha(default_base(alphabet, 2))
    rep = verify_isolation(plan, 2, 3)
    lhs, deep, cone = isolation_sides(
        plan, 2, 3, make_t(alphabet), spine_cone(plan.length + 1)
    )
    assert rep.failed
    assert rep.reason == "spine factor is not volume preserving"
    assert (rep.lhs, rep.rhs) == (lhs, compose(deep, cone))


@pytest.mark.parametrize("n", [2, 3])
def test_isolation_fails_factors_that_do_not_commute(monkeypatch, n):
    # The spine factor moved from 1^(ell+1) to the root overlaps the cone
    # at 1^j.2, and the two factors no longer commute.
    alphabet = Alphabet(n)
    plan = plan_alpha(default_base(alphabet, 3))
    ell = plan.length
    monkeypatch.setattr(
        verify_module, "spine_cone", lambda k: Word(()) if k == ell + 1 else spine_cone(k)
    )
    rep = verify_isolation(plan, 4, 7)
    _, deep, cone = isolation_sides(plan, 4, 7, sigma_dot(alphabet), Word(()))
    assert rep.failed
    assert rep.reason == "right-hand factors do not commute"
    assert (rep.lhs, rep.rhs) == (compose(deep, cone), compose(cone, deep))


# --- the hypotheses of the construction --------------------------------------------


class LoosePlan:
    """The involutions of ``base`` at the given positions of a sequence of
    ``length`` entries, with only what ``verify_isolation`` reads of a plan.
    ``AlphaPlan`` would refuse most of these: the support need not be a
    Sidon set, nor the sequence padded."""

    def __init__(self, base, positions, length):
        self.alphabet = base[0].alphabet
        entries = [identity(self.alphabet)] * length
        for g, k in zip(base, sorted(positions)):
            entries[k - 1] = g
        self.entries = tuple(entries)
        self.length = length
        self.support = SimpleNamespace(members=frozenset(positions))

    def entry(self, k):
        return self.entries[k - 1]


def isolation_verdicts(plan):
    members = sorted(plan.support.members)
    return {
        (i, j): verify_isolation(plan, i, j).verdict
        for a, i in enumerate(members)
        for j in members[a + 1 :]
    }


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize(
    "positions", [(1, 2, 3), (1, 3, 5), (2, 4, 6), (1, 4, 7), (1, 2, 4), (2, 3, 5)]
)
def test_isolation_needs_a_sidon_support(n, positions):
    """Isolation fails exactly at the pairs whose difference another
    supported pair repeats, and passes on a Sidon support.  Every pair's
    commutator is nontrivial here, so a repeated difference leaves a second
    cone factor beside the pair's own."""
    base = default_base(Alphabet(n), 3)
    low, top = min(positions), max(positions)
    plan = LoosePlan(base, positions, top + (top - low) + 1)
    verdicts = isolation_verdicts(plan)
    differences = Counter(j - i for i, j in verdicts)
    for i, j in verdicts:
        assert not commutator(plan.entry(j), plan.entry(i)).is_identity()
    assert verdicts == {
        (i, j): "FAIL" if differences[j - i] > 1 else "PASS" for i, j in verdicts
    }


@settings(max_examples=60)
@given(st.data())
def test_isolation_fails_where_another_pair_repeats_a_nontrivial_commutator(data):
    """The rule behind the Sidon test, over random supports and entries
    that may repeat: the pair (i, j) fails isolation exactly when another
    supported pair with the same difference has a nontrivial commutator,
    whatever the pair's own commutator is."""
    pool = base_involutions(Alphabet(data.draw(st.sampled_from([2, 3, 5]))))
    positions = data.draw(st.lists(st.integers(1, 8), min_size=2, max_size=4, unique=True))
    positions.sort()
    base = [data.draw(st.sampled_from(pool)) for _ in positions]
    low, top = positions[0], positions[-1]
    plan = LoosePlan(base, positions, top + (top - low) + 1)
    verdicts = isolation_verdicts(plan)
    nontrivial = {
        (i, j): not commutator(plan.entry(j), plan.entry(i)).is_identity() for i, j in verdicts
    }
    assert verdicts == {
        (i, j): "FAIL"
        if any(b - a == j - i and nontrivial[a, b] for a, b in verdicts if (a, b) != (i, j))
        else "PASS"
        for i, j in verdicts
    }


def probe_bases(n):
    """The planned base and a second one: the last three base involutions."""
    alphabet = Alphabet(n)
    return [default_base(alphabet, 3), base_involutions(alphabet)[-3:]]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_isolation_needs_j_minus_i_trivial_positions_above_the_support(n):
    """The planned support {4, 5, 7} has padding 3 and length 11, so 4
    trivial positions above it.  With m of them, the pair (i, j) fails
    isolation exactly when m < j - i: the top padding that isolation needs
    is the support's largest difference, one position less than the plan's."""
    for base in probe_bases(n):
        plan = plan_alpha(base)
        members = plan.support.sorted_members
        assert (members, plan.padding, plan.length) == ((4, 5, 7), 3, 11)
        for m in range(plan.length - members[-1] + 1):
            verdicts = isolation_verdicts(LoosePlan(base, members, members[-1] + m))
            assert verdicts == {
                (i, j): "FAIL" if m < j - i else "PASS" for i, j in verdicts
            }


@pytest.mark.parametrize("n", [2, 3, 5])
def test_the_identities_do_not_need_the_bottom_padding(n):
    """Lowering the planned support by 1 to 3, down to {1, 2, 4}, keeps
    the top padding and breaks the bottom one, and changes no verdict of
    eq3, the commutator trick or isolation."""
    for base in probe_bases(n):
        plan = plan_alpha(base)

        def verdicts(p):
            eq3 = [verify_s_alpha_conjugation(p.entries, k).verdict for k in range(6)]
            trick = [verify_commutator_trick(p.entries, k).verdict for k in range(6)]
            return eq3, trick, sorted(isolation_verdicts(p).values())

        expected = verdicts(plan)
        assert expected[2] == ["PASS"] * 3
        for shift in (1, 2, 3):
            lowered = [k - shift for k in plan.support.sorted_members]
            assert verdicts(LoosePlan(base, lowered, plan.length - shift)) == expected


# --- maximal subgroup membership ----------------------------------------------------


def test_maximal_membership_examples():
    rng = random.Random(2)
    for n in (2, 3, 5):
        alphabet = Alphabet(n)
        sig, tau = sigma_dot(alphabet), make_tau(alphabet)
        assert in_maximal_subgroup(sig)
        assert in_maximal_subgroup(identity(alphabet))
        assert in_maximal_subgroup(embed(W("1"), random_element(alphabet, rng)))
        assert not in_maximal_subgroup(tau)
        assert not in_maximal_subgroup(make_t(alphabet))


def test_maximal_membership_t_first_letter_clash():
    t = make_t(A2)
    table = {str(w): str(v) for w, v in t.pairs()}
    assert table == {"1.1": "1", "1.2": "2.2", "2": "2.1"}
    # The 1-cones map to both 1 and 2, so no level-1 permutation fits.


def test_maximal_membership_closed_under_group_ops():
    rng = random.Random(3)
    perms = [Permutation.from_cycles([(1, 2)], 3), Permutation.from_cycles([(1, 2, 3)], 3)]
    members = []
    for _ in range(12):
        g = dot(rng.choice(perms), A3)
        h = embed(Word((rng.randint(1, 3),)), random_element(A3, rng, expansions=2))
        members.append(compose(g, h))
    for g in members:
        assert in_maximal_subgroup(g)
        assert in_maximal_subgroup(invert(g))
    for _ in range(20):
        g, h = rng.choice(members), rng.choice(members)
        assert in_maximal_subgroup(compose(g, h))


# --- finite closures -------------------------------------------------------------------


def test_en_closure_single_swap():
    assert enumerate_en_group([sigma_dot(A2)]).order == 2


def test_en_closure_dihedral_pair_against_tuple_oracle():
    sig = sigma_dot(A2)
    nested = embed(W("1"), sig)
    result = enumerate_en_group([sig, nested])
    assert result.order == 8
    assert result.level == 2
    assert len(result.elements) == 8
    # Independent oracle over leaf indices [1.1, 1.2, 2.1, 2.2] = [0, 1, 2, 3]:
    # the swap acts as (0 2)(1 3), the nested swap as (0 1).
    oracle = tuple_closure({(2, 3, 0, 1), (1, 0, 2, 3)})
    assert len(oracle) == 8
    leaves = level_partition(A2, 2).words
    element_perms = {
        tuple(leaves.index(apply_word(g, w)) for w in leaves) for g in result.elements
    }
    assert element_perms == oracle


def test_en_closure_invariant_under_deeper_levels():
    sig = sigma_dot(A2)
    pair = [sig, embed(W("1"), sig)]
    assert enumerate_en_group(pair, level=3).order == 8
    assert enumerate_en_group(pair, level=4).order == 8


def test_en_closure_identity_only():
    assert enumerate_en_group([identity(A2)]).order == 1


def test_en_closure_rejects_non_volume_preserving():
    with pytest.raises(NotVolumePreservingError):
        enumerate_en_group([sigma_dot(A2), make_tau(A2)])


def test_en_closure_order_divides_leaf_factorial():
    rng = random.Random(4)
    from conftest import random_volume_preserving
    import math

    for _ in range(10):
        gens = [random_volume_preserving(A2, rng) for _ in range(2)]
        result = enumerate_en_group(gens)
        assert math.factorial(2 ** result.level) % result.order == 0



@pytest.mark.parametrize(
    "gens, first",
    [
        ([sigma_dot(A2), sigma_dot(A3)], 1),
        ([sigma_dot(A3), embed(W("1"), sigma_dot(A2))], 1),
        ([sigma_dot(A3) if i in (2, 10) else sigma_dot(A2) for i in range(12)], 2),
    ],
    ids=["A2-then-A3", "A3-then-A2-cone", "twelve-with-A3-at-2-and-10"],
)
def test_en_closure_refuses_mixed_alphabets(gens, first):
    """Generators over two alphabets are refused by index, in the numbering of
    the volume-preservation error: the first mismatch in index order, also
    where the names sort otherwise ("10" before "2")."""
    with pytest.raises(
        AlphabetMismatchError, match=f"^generator {first} uses a different alphabet$"
    ):
        enumerate_en_group(gens)


@st.composite
def en_cases(draw):
    """Volume-preserving generators as random leaf permutations at one depth
    (the identity among them possible), and a closure level: None or one deeper."""
    n, depth = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (5, 1)]))
    alphabet = Alphabet(n)
    leaves = level_partition(alphabet, depth).words
    images = draw(st.lists(st.permutations(leaves), min_size=1, max_size=3))
    gens = [canonicalize(zip(leaves, p), alphabet) for p in images]
    return gens, draw(st.sampled_from([None, depth + 1]))


@settings(max_examples=300)
@given(en_cases())
def test_en_closure_matches_the_leaf_permutation_oracle(case):
    """The closure from the breadth-first walk has the order, level and
    elements of the leaf-permutation closure it replaced."""
    gens, level = case
    assert enumerate_en_group(gens, level) == naive_enumerate_en_group(gens, level)

# --- abelianization -----------------------------------------------------------------------


def test_abelianization_swap_detects_odd_degrees():
    assert abelianization_image(dot(Permutation.from_cycles([(1, 2)], 3), A3)) is AbelianImage.NONTRIVIAL
    assert abelianization_image(identity(A3)) is AbelianImage.TRIVIAL


def test_abelianization_commutators_trivial():
    rng = random.Random(5)
    for _ in range(50):
        a, b = random_element(A5, rng), random_element(A5, rng)
        assert abelianization_image(commutator(a, b)) is AbelianImage.TRIVIAL


def test_abelianization_suite_builds_commutators_only_at_odd_degree(monkeypatch):
    """At even n every image is trivial, so the suite builds no commutator
    there; its verdict lines stay the same."""
    built = []

    def counting_commutator(g, h):
        built.append(g.alphabet.degree)
        return commutator(g, h)

    monkeypatch.setattr(verify_module, "commutator", counting_commutator)
    reports = abelianization_suite((2, 3, 4), count=5, seed=0)
    assert [r.line() for r in reports] == [
        f"abelianization n={n} {what} PASS"
        for n in (2, 3, 4)
        for what in ("swap", "commutators x5")
    ]
    assert built == [3] * 5


def test_abelianization_even_degree_always_trivial():
    rng = random.Random(6)
    for n in (2, 4):
        alphabet = Alphabet(n)
        assert abelianization_image(sigma_dot(alphabet)) is AbelianImage.TRIVIAL
        for _ in range(20):
            g = random_element(alphabet, rng)
            assert abelianization_image(g) is AbelianImage.TRIVIAL


# --- involution suite ------------------------------------------------------------------------


def test_involution_suite_passes_for_small_degrees():
    for n in range(2, 7):
        assert verify_involution_suite(Alphabet(n)).passed


def test_involution_suite_fails_with_order3_entry():
    from test_constructions import order3_element

    bad = order3_element(A2)
    rep = verify_involution_suite(A2, alpha=[bad, identity(A2)])
    assert rep.failed
    assert rep.lhs is not None and rep.rhs is not None
    assert not rep.lhs.is_identity()


def test_involution_suite_empty_sequence():
    rep = verify_involution_suite(A2, alpha=[])
    assert rep.passed


# --- planted faults ----------------------------------------------------------------------------
# Every verdict the default grid expects is PASS, so a check that passed
# without comparing would pass the tests above.  With ``verify.make_t``
# rebound to t^2, each identity that conjugates by t is false: every check
# must report FAIL and carry both sides.


def t_squared(alphabet):
    return power(make_t(alphabet), 2)


PLANTED = {
    "eq2": lambda n: [
        verify_translation(g, k)
        for g in (sigma_dot(Alphabet(n)), random_element(Alphabet(n), random.Random(n)))
        for k in (1, 2, 3)
    ],
    "eq3": lambda n: verify_module.plan_suite(verify_s_alpha_conjugation, (n,), (1, 2, 3)),
    "trick": lambda n: [
        r
        for r in verify_module.plan_suite(verify_commutator_trick, (n,), (1, 2, 3))
        if r.verdict != "SKIP"
    ],
    "isolation": lambda n: verify_module.isolation_suite((n,)),
}


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("suite", PLANTED)
def test_a_wrong_t_fails_every_check_that_conjugates_by_it(monkeypatch, suite, n):
    monkeypatch.setattr(verify_module, "make_t", t_squared)
    reports = PLANTED[suite](n)
    assert reports
    for rep in reports:
        assert rep.failed, rep.line()
        assert rep.lhs is not None and rep.rhs is not None
        assert rep.lhs != rep.rhs


# The maximal, en and abelianization suites compute their verdicts from
# membership tests, closure orders and parities, not from two sides, so a
# fault planted through a seam each reads by module name must turn a line
# of each into FAIL.


@pytest.mark.parametrize("n", [2, 3, 5])
def test_a_tau_in_the_maximal_subgroup_fails_the_maximal_suite(monkeypatch, n):
    monkeypatch.setattr(verify_module, "make_tau", sigma_dot)
    lines = [r.line() for r in verify_module.maximal_suite((n,))]
    assert f"maximal-membership n={n} tau FAIL" in lines
    assert sum(line.endswith(" FAIL") for line in lines) == 1


def test_a_closure_with_a_deeper_copy_fails_the_en_suite(monkeypatch):
    def with_a_deeper_copy(gens, level=None):
        gens = list(gens)
        return enumerate_en_group(gens + [embed(Word((1,)), gens[0])], level)

    monkeypatch.setattr(verify_module, "enumerate_en_group", with_a_deeper_copy)
    lines = [r.line() for r in verify_module.en_suite((2, 3, 5))]
    for n in (2, 3, 5):
        assert f"finite-closure n={n} swap-only FAIL" in lines
    assert "finite-closure n=2 dihedral-pair PASS" in lines


@pytest.mark.parametrize("n", [3, 5])
def test_a_commutator_that_returns_its_first_argument_fails_abelianization(monkeypatch, n):
    monkeypatch.setattr(verify_module, "commutator", lambda g, h: g)
    lines = [r.line() for r in abelianization_suite((n,), 20, 0)]
    assert lines == [
        f"abelianization n={n} swap PASS",
        f"abelianization n={n} commutators x20 FAIL",
    ]


# --- shared operands ---------------------------------------------------------------------------
# The suites build each operand that their checks share once: a spine
# embedding, and a power of t with its inverse.


SHARED = ("eq2", "eq3", "trick", "isolation")


def shared_suite_rows(**grid):
    return {
        name: [(r.line(), r.lhs, r.rhs) for r in run_suites(name, **grid)] for name in SHARED
    }


def test_shared_operands_match_the_from_scratch_suites(monkeypatch):
    """Lines and both sides agree with suites that build every operand per
    check, before, while and after ``make_t`` is rebound to t^2: no memo
    serves an operand built from another t."""
    grid = {"degrees": (2, 3, 5), "kmax": 5, "count": 5, "seed": 0}
    clean = shared_suite_rows(**grid)
    assert clean == naive_verify_grid(**grid)
    with monkeypatch.context() as patch:
        patch.setattr(verify_module, "make_t", t_squared)
        planted = shared_suite_rows(**grid)
        assert planted == naive_verify_grid(**grid)
    assert any(lhs is not None for rows in planted.values() for _, lhs, _ in rows)
    assert shared_suite_rows(**grid) == clean


def clear_verify_memos():
    for value in vars(verify_module).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_the_grid_builds_each_shared_operand_once(monkeypatch):
    """On the default grid (n = 2, 3, 5, kmax 5, count 200) eq2 embeds
    each of its 606 elements at the six spine depths once, 3,636 embeds in
    place of two per check (6,060), and eq3, trick and isolation build
    each of their 18 powers t^k once in place of once per check (96)."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("embed", "power"):
        monkeypatch.setattr(verify_module, name, counted(name, getattr(verify_module, name)))
    clear_verify_memos()
    assert len(run_suites("eq2", (2, 3, 5))) == 3030
    assert calls["embed"] == 3636
    clear_verify_memos()
    calls.clear()
    for name in ("eq3", "trick", "isolation"):
        run_suites(name, (2, 3, 5))
    assert calls["power"] == 18


def test_the_memos_keep_no_operand_past_their_bounds():
    """Powers of t are kept only for k <= _SHARED_POWER, and embed's
    sibling words only for cones with at most _SIBLING_ROWS of them; the
    checks past the bounds still pass."""
    powers = verify_module._memo_powers
    entries = [identity(A2)] * 3
    clear_verify_memos()
    for k in (verify_module._SHARED_POWER + 1, verify_module._SHARED_POWER + 3):
        assert verify_commutator_trick(entries, k).passed
        assert verify_s_alpha_conjugation(entries, k).passed
    assert powers.cache_info().currsize == 0
    assert verify_commutator_trick(entries, verify_module._SHARED_POWER).passed
    assert powers.cache_info().currsize == 1

    siblings = constructions_module._memo_siblings
    siblings.cache_clear()
    assert embed(spine_cone(300), sigma_dot(A2)) == naive_embed(spine_cone(300), sigma_dot(A2))
    assert siblings.cache_info().currsize == 0
    bound = constructions_module._SIBLING_ROWS
    for n, length in [(2, bound), (5, bound // 4), (5, bound // 4 + 1), (2, bound + 1)]:
        g = sigma_dot(Alphabet(n))
        assert embed(spine_cone(length), g) == naive_embed(spine_cone(length), g)
    assert siblings.cache_info().currsize == 2


PER_DEGREE_CACHES = (
    constructions_module._sigma_dot,
    constructions_module._make_tau,
    constructions_module._make_t,
    verify_module._plan,
)


def test_the_per_degree_caches_keep_at_most_their_bounds():
    """The degree has no upper bound, so the named generators and the
    planned sequences are kept for only a few: after 40 degrees each cache
    holds at most its bound, and the default grid, whose 9 plans fit in
    the bound, still builds each generator and each plan once per degree."""
    for n in range(2, 42):
        make_t(Alphabet(n))
        verify_module._planned(Alphabet(n))
    for cache in PER_DEGREE_CACHES:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    for cache in PER_DEGREE_CACHES:
        cache.cache_clear()
    clear_verify_memos()
    run_suites("all", (2, 3, 5))
    assert [cache.cache_info().misses for cache in PER_DEGREE_CACHES] == [3, 3, 3, 9]


# --- suite driver ------------------------------------------------------------------------------


def test_run_suites_all_green():
    reports = run_suites("all", degrees=(2, 3), kmax=2, count=5)
    assert reports
    assert not any(r.failed for r in reports)
    assert any(r.verdict == "SKIP" for r in reports)


def test_run_suites_aliases_and_unknown():
    assert run_suites("translation", degrees=(2,), kmax=1, count=1)
    with pytest.raises(ValueError):
        run_suites("bogus", degrees=(2,))


def test_report_line_format():
    rep = verify_translation(sigma_dot(A2), 1)
    assert rep.line() == "translation n=2 k=1 PASS"
    skip = verify_translation(sigma_dot(A2), 0)
    assert skip.line().startswith("translation n=2 k=0 SKIP(")
