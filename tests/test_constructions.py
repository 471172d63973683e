"""Named generators, embeddings, spinal elements, Sidon sets, planning."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import W, is_prefix, naive_base_involutions, naive_embed, naive_generator_words
from vncalc.constructions import (
    _embed_letters,
    _generator_words,
    MAX_SIDON_COUNT,
    AlphaPlan,
    Permutation,
    SidonSet,
    base_involutions,
    default_base,
    dot,
    embed,
    is_sidon,
    load_alpha_plan,
    make_s_alpha,
    make_t,
    make_tau,
    plan_alpha,
    save_alpha_plan,
    sidon_generate,
    sigma_dot,
)
from vncalc.element import (
    _canonical,
    _table_letters,
    apply_point,
    apply_word,
    canonicalize,
    commutator,
    compose,
    conjugate,
    format_element,
    identity,
    make_element,
    order_bounded,
    random_element,
    sign,
    support,
)
from vncalc.element import ConeKind
from vncalc.errors import InvolutionRequiredError, ParameterRangeError, PlanInvariantError
from vncalc.verify import _shifted_product_form
from vncalc.words import Alphabet, PartitionSet, Word, point_normalize

A2 = Alphabet(2)
A3 = Alphabet(3)
A5 = Alphabet(5)


def order3_element(alphabet):
    """Cycles the cones 1.1 -> 1.2 -> 2 -> 1.1, fixing everything else."""
    table = {W("1.1"): W("1.2"), W("1.2"): W("2"), W("2"): W("1.1")}
    for i in range(3, alphabet.degree + 1):
        table[Word((1, i))] = Word((1, i))
        table[Word((i,))] = Word((i,))
    dom = PartitionSet.from_words(table, alphabet)
    return make_element(dom, [table[w] for w in dom.words])


# --- permutations and level-1 lifts ------------------------------------------


def inversion_parity(p: Permutation) -> int:
    """(-1) to the number of inverted pairs of p's images."""
    images = p.images
    return (-1) ** sum(a > b for i, a in enumerate(images) for b in images[i + 1 :])


def test_permutation_from_cycles():
    p = Permutation.from_cycles([(1, 2)], 5)
    assert p.images == (2, 1, 3, 4, 5)
    assert inversion_parity(p) == -1
    assert inversion_parity(Permutation.from_cycles([(1, 2, 3)], 3)) == 1


def test_permutation_rejects_bad_cycles():
    with pytest.raises(ValueError):
        Permutation.from_cycles([(1, 2), (2, 3)], 3)
    with pytest.raises(ValueError):
        Permutation.from_cycles([(0, 1)], 2)


def test_dot_of_swap_in_v5():
    g = dot(Permutation.from_cycles([(1, 2)], 5), A5)
    expected = {W("1"): W("2"), W("2"): W("1")}
    expected.update({Word((i,)): Word((i,)) for i in range(3, 6)})
    assert dict(g.pairs()) == expected


def test_dot_of_identity_is_identity():
    assert dot(Permutation((1, 2, 3, 4)), Alphabet(4)) == identity(Alphabet(4))


def test_dot_sign_matches_permutation_parity():
    rng = random.Random(0)
    for _ in range(20):
        images = list(range(1, 6))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert sign(dot(p, A5)) == inversion_parity(p)


# --- tau and t -----------------------------------------------------------------


def test_tau_table_v5():
    expected = {
        "1.1": "2", "1.2": "3", "1.3": "4", "1.4": "5", "1.5": "1.5",
        "2": "1.1", "3": "1.2", "4": "1.3", "5": "1.4",
    }
    assert {str(w): str(v) for w, v in make_tau(A5).pairs()} == expected


def test_tau_table_v2():
    expected = {"1.1": "2", "1.2": "1.2", "2": "1.1"}
    assert {str(w): str(v) for w, v in make_tau(A2).pairs()} == expected


def test_tau_is_involution_across_degrees():
    for n in range(2, 7):
        alphabet = Alphabet(n)
        assert order_bounded(make_tau(alphabet), 4) == 2
        assert order_bounded(sigma_dot(alphabet), 4) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_named_generators_are_built_once_and_match_their_definitions(n):
    alphabet = Alphabet(n)
    fresh_sigma = dot(Permutation.from_cycles([(1, 2)], n), alphabet)
    rows = [(Word((1, i)), Word((i + 1,))) for i in range(1, n)]
    rows += [(v, w) for w, v in rows] + [(Word((1, n)), Word((1, n)))]
    fresh_tau = canonicalize(rows, alphabet)
    assert sigma_dot(alphabet) == fresh_sigma
    assert make_tau(alphabet) == fresh_tau
    assert make_t(alphabet) == compose(fresh_sigma, fresh_tau)
    for build in (sigma_dot, make_tau, make_t):
        assert build(Alphabet(n)) is build(alphabet)


def test_t_moves_spine_words_up():
    rng = random.Random(1)
    for n in (2, 3, 5):
        alphabet = Alphabet(n)
        t = make_t(alphabet)
        for _ in range(20):
            tail = Word(tuple(rng.randint(1, n) for _ in range(rng.randint(1, 4))))
            assert apply_word(t, W("1.1") + tail) == W("1") + tail


def test_t_fixes_the_spine_point():
    for n in (2, 3):
        t = make_t(Alphabet(n))
        p = point_normalize(W("eps"), W("1"))
        assert apply_point(t, p) == p


def test_t_conjugation_pushes_embeddings_deeper():
    rng = random.Random(2)
    t = make_t(A2)
    for _ in range(10):
        gamma = random_element(A2, rng)
        assert conjugate(embed(W("1"), gamma), t) == embed(W("1.1"), gamma)


# --- embedding -------------------------------------------------------------------


def test_embed_swap_at_cone():
    g = embed(W("1"), sigma_dot(A2))
    assert {str(w): str(v) for w, v in g.pairs()} == {
        "1.1": "1.2", "1.2": "1.1", "2": "2",
    }


def test_embed_identity_is_identity():
    assert embed(W("1.2.1"), identity(A2)) == identity(A2)


def test_embed_at_empty_word_is_the_element():
    rng = random.Random(3)
    for _ in range(10):
        g = random_element(A2, rng)
        assert embed(W("eps"), g) == g


def test_embed_composes_cones():
    rng = random.Random(4)
    for _ in range(20):
        g = random_element(A2, rng, expansions=2)
        u = Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3))))
        v = Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3))))
        assert embed(u, embed(v, g)) == embed(u + v, g)


def test_embed_is_homomorphism_in_the_element():
    rng = random.Random(5)
    for _ in range(20):
        g, h = random_element(A3, rng), random_element(A3, rng)
        w = Word(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2))))
        assert embed(w, compose(g, h)) == compose(embed(w, g), embed(w, h))


@st.composite
def embeddings(draw):
    """(w, g) over n in {2, 3, 5}: g canonical with up to 60 carets, or the
    identity; w of length 0 to 6, so eps is among the cone words."""
    alphabet = Alphabet(draw(st.sampled_from((2, 3, 5))))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 3)) == 0:
        g = identity(alphabet)
    else:
        g = random_element(alphabet, rng, draw(st.integers(1, 60)), max_depth=None)
    length = draw(st.integers(0, 6))
    w = Word(tuple(rng.randint(1, alphabet.degree) for _ in range(length)))
    return w, g


@settings(max_examples=80)
@given(embeddings())
def test_embed_matches_naive_oracle(case):
    w, g = case
    e, expected = embed(w, g), naive_embed(w, g)
    assert e == expected
    assert format_element(e) == format_element(expected)
    # embed builds its table without the reducer: it must be reduced already.
    assert _canonical(zip(e.dom, e.img), e.alphabet) == e


@settings(max_examples=80)
@given(embeddings())
def test_embed_letters_are_the_built_table_size(case):
    """An evaluation charges ``_embed_letters`` before it builds the table."""
    w, g = case
    assert _embed_letters(w, g) == _table_letters(embed(w, g))


def test_embed_support_stays_in_cone():
    rng = random.Random(6)
    for _ in range(20):
        g = random_element(A2, rng)
        w = W("1.2")
        for cone in support(embed(w, g)):
            if not is_prefix(w, cone.word):
                assert cone.kind is ConeKind.FIXED


# --- spinal elements ---------------------------------------------------------------


def test_spinal_single_identity_entry():
    s = make_s_alpha([identity(A3)])
    assert s == embed(W("1.1"), sigma_dot(A3))
    expected = {
        "1.1.1": "1.1.2", "1.1.2": "1.1.1", "1.1.3": "1.1.3",
        "1.2": "1.2", "1.3": "1.3", "2": "2", "3": "3",
    }
    assert {str(w): str(v) for w, v in s.pairs()} == expected


def test_spinal_empty_sequence():
    s = make_s_alpha([], A2)
    assert s == embed(W("1"), sigma_dot(A2))


def test_spinal_involution_with_involutive_entries():
    for n in (2, 3):
        alphabet = Alphabet(n)
        plan = plan_alpha(default_base(alphabet, 2))
        assert order_bounded(make_s_alpha(plan), 4) == 2


def test_spinal_not_involution_with_order3_entry():
    for n in (2, 3):
        alphabet = Alphabet(n)
        bad = order3_element(alphabet)
        assert order_bounded(bad, 4) == 3
        s = make_s_alpha([bad, identity(alphabet)])
        assert order_bounded(s, 2) is None
        assert order_bounded(s, 8) == 6


def test_spinal_constructors_agree_on_random_sequences():
    # The case table built by make_s_alpha against the product of cone
    # embeddings that verify keeps as the reference form.
    rng = random.Random(7)
    for n in (2, 3, 5):
        alphabet = Alphabet(n)
        pool = default_base(alphabet, 3) + [identity(alphabet)]
        for _ in range(17):
            ell = rng.randint(0, 6)
            alpha = [rng.choice(pool) for _ in range(ell)]
            s = make_s_alpha(alpha, alphabet)
            assert s == _shifted_product_form(alpha, alphabet, 0)
            assert apply_word(s, Word((1,) * (ell + 1) + (1,))) == Word(
                (1,) * (ell + 1) + (2,)
            )


@st.composite
def spinal_sequences(draw):
    """An alphabet and up to 8 entries, each trivial or a deep random element."""
    alphabet = Alphabet(draw(st.sampled_from((2, 3, 5))))
    alpha = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            alpha.append(identity(alphabet))
        else:
            rng = random.Random(draw(st.integers(0, 2**32 - 1)))
            expansions = draw(st.integers(1, 10))
            alpha.append(random_element(alphabet, rng, expansions, max_depth=None))
    return alphabet, alpha


@settings(max_examples=100)
@given(spinal_sequences())
def test_spinal_case_table_matches_product_form(case):
    # Entries need not be involutions: the two forms agree for any contents.
    alphabet, alpha = case
    assert make_s_alpha(alpha, alphabet) == _shifted_product_form(alpha, alphabet, 0)


# --- Sidon sets ----------------------------------------------------------------------


def test_is_sidon_examples():
    assert is_sidon({2, 4, 8, 16})
    assert not is_sidon({1, 2, 3})
    assert is_sidon(set())
    assert is_sidon({5})


def test_sidon_powers_of_two():
    assert sidon_generate(3, "powers-of-two").sorted_members == (2, 4, 8)


def sidon_by_sums(count: int) -> list[int]:
    """Independent oracle: distinct differences is the same as distinct
    pairwise sums with repetition; grow greedily under the sum rule."""
    chosen: list[int] = []
    sums: set[int] = set()
    candidate = 1
    while len(chosen) < count:
        new_sums = {candidate + x for x in chosen} | {2 * candidate}
        if len(new_sums) == len(chosen) + 1 and not (new_sums & sums):
            chosen.append(candidate)
            sums |= new_sums
        candidate += 1
    return chosen


def test_sidon_greedy_matches_sum_oracle():
    chosen = sidon_by_sums(6)
    assert tuple(chosen) == (1, 2, 4, 8, 13, 21)
    assert sidon_generate(4, "greedy").sorted_members == (1, 2, 4, 8)
    assert sidon_generate(6, "greedy").sorted_members == tuple(chosen)


def test_sidon_greedy_first_30_members():
    # The Mian-Chowla sequence, OEIS A005282.
    first_30 = (
        1, 2, 4, 8, 13, 21, 31, 45, 66, 81, 97, 123, 148, 182, 204,
        252, 290, 361, 401, 475, 565, 593, 662, 775, 822, 916, 970, 1016, 1159, 1312,
    )
    assert tuple(sidon_by_sums(30)) == first_30
    assert sidon_generate(30, "greedy").sorted_members == first_30


@pytest.mark.parametrize("strategy", ["greedy", "powers-of-two"])
def test_sidon_count_is_capped(strategy):
    assert len(sidon_generate(MAX_SIDON_COUNT, strategy).members) == MAX_SIDON_COUNT
    with pytest.raises(ParameterRangeError, match=f"count must be <= {MAX_SIDON_COUNT}"):
        sidon_generate(MAX_SIDON_COUNT + 1, strategy)


def test_sidon_empty():
    assert sidon_generate(0).sorted_members == ()


def test_sidon_set_validates():
    with pytest.raises(ValueError):
        SidonSet(frozenset({1, 2, 3}))
    with pytest.raises(ValueError):
        SidonSet(frozenset({0, 3}))


# --- planning -------------------------------------------------------------------------


def test_plan_sizes_and_parameters():
    base = default_base(A2, 2)
    plan = plan_alpha(base)
    assert plan.support.sorted_members == (2, 3)
    assert plan.padding == 1
    assert plan.length == 5
    assert [g.is_identity() for g in plan.entries] == [True, False, False, True, True]


def test_plan_three_elements():
    plan = plan_alpha(default_base(A3, 3))
    assert plan.support.sorted_members == (4, 5, 7)
    assert plan.padding == 3
    assert plan.length == 11


def test_plan_single_element():
    plan = plan_alpha(default_base(A2, 1))
    assert plan.support.sorted_members == (1,)
    assert plan.padding == 0
    assert plan.length == 2
    assert plan.entries[1].is_identity()


def test_plan_rejects_higher_order_base():
    with pytest.raises(InvolutionRequiredError):
        plan_alpha([order3_element(A2)])


def test_plan_invariants_checked_on_raw_sequences():
    sig = sigma_dot(A2)
    seed = compose(embed(W("1"), sig), embed(W("2"), sig))
    with pytest.raises(PlanInvariantError):
        # Nontrivial entry in the top padding.
        AlphaPlan.from_entries([identity(A2), seed, seed])
    with pytest.raises(InvolutionRequiredError):
        AlphaPlan.from_entries([order3_element(A2), identity(A2)])


def test_plan_powers_of_two_strategy():
    plan = plan_alpha(default_base(A2, 2), strategy="powers-of-two")
    assert plan.support.sorted_members == (3, 5)
    assert plan.padding == 2
    assert plan.length == 8


# --- base involutions --------------------------------------------------------------------


def test_base_involutions_are_involutions():
    for n in (2, 3, 5):
        for g in base_involutions(Alphabet(n)):
            assert order_bounded(g, 2) == 2


def test_base_involutions_trivial_parity_for_odd_degree():
    for n in (3, 5):
        alphabet = Alphabet(n)
        sig = sigma_dot(alphabet)
        assert sign(embed(W("1"), sig)) == -1
        assert sign(embed(W("2"), sig)) == -1
        for g in base_involutions(alphabet):
            assert sign(g) == 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_generator_words_match_the_naive_loop(n):
    """The {sigma, tau} products base_involutions draws on come in the same
    order from the ball search's walk as from the loop it replaced."""
    for max_length in range(5):
        assert _generator_words(Alphabet(n), max_length) == naive_generator_words(
            Alphabet(n), max_length
        )


def test_base_involutions_match_the_twist_search():
    """tau is the twist that the candidate search took, at every degree
    tried, so the involutions and their order are unchanged."""
    for n in range(2, 13):
        assert base_involutions(Alphabet(n)) == naive_base_involutions(Alphabet(n))


def test_base_involutions_with_identity_conjugator_only():
    """The {sigma, tau} walk yields the identity first, so the first two
    involutions are the identity conjugator's: the seed and its twist."""
    out = base_involutions(A2)[:2]
    assert len(out) == 2
    seed, twisted = out
    assert not commutator(seed, twisted).is_identity()


def test_default_base_distinct():
    for n in (2, 3, 4, 5, 6):
        base = default_base(Alphabet(n), 3)
        assert len(set(base)) == 3
        assert all(not g.is_identity() for g in base)


def test_default_base_returns_a_new_list_each_call():
    base = default_base(A2, 3)
    expected = list(base)
    base[0] = identity(A2)
    base.append(make_t(A2))
    assert default_base(A2, 3) == expected


# --- plan files ------------------------------------------------------------------------------


def test_plan_file_round_trip(tmp_path):
    base = default_base(A2, 2)
    plan = plan_alpha(base)
    paths = {}
    for k, g in zip(plan.support.sorted_members, base):
        p = tmp_path / f"base{k}.elt"
        p.write_text(format_element(g) + "\n")
        paths[k] = p.name
    plan_path = tmp_path / "plan.alpha"
    save_alpha_plan(plan, str(plan_path), paths)
    loaded = load_alpha_plan(str(plan_path))
    assert loaded == plan
    text = plan_path.read_text()
    assert text.splitlines()[0] == "alpha 2 5"


def test_plan_file_spells_out_support_lines(tmp_path):
    base = default_base(A2, 1)
    plan = plan_alpha(base)
    elt_path = tmp_path / "b.elt"
    elt_path.write_text(format_element(base[0]) + "\n")
    plan_path = tmp_path / "p.alpha"
    save_alpha_plan(plan, str(plan_path), {1: "b.elt"})
    assert plan_path.read_text() == "alpha 2 2\n1 @ b.elt\n"


def test_plan_file_rejects_duplicate_index(tmp_path):
    from vncalc.errors import FileFormatError

    base = default_base(A2, 1)
    (tmp_path / "b.elt").write_text(format_element(base[0]) + "\n")
    plan_path = tmp_path / "p.alpha"
    plan_path.write_text("alpha 2 3\n1 @ b.elt\n1 @ b.elt\n")
    with pytest.raises(FileFormatError) as info:
        load_alpha_plan(str(plan_path))
    assert "twice" in str(info.value)
