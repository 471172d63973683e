"""Group arithmetic: canonical forms, evaluation, support, and parity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    W,
    naive_apply_word,
    naive_canonicalize,
    naive_compose,
    parity_by_inversions,
    random_volume_preserving,
    words,
)
from vncalc.element import (
    ConeKind,
    apply_point,
    apply_word,
    canonicalize,
    commutator,
    compose,
    conjugate,
    equals,
    format_element,
    identity,
    invert,
    is_volume_preserving,
    make_element,
    order_bounded,
    parse_element,
    power,
    random_element,
    sign,
    sign_refinement_probe,
    support,
    table_parity,
)
from vncalc.errors import (
    AlphabetMismatchError,
    ArityError,
    FileFormatError,
    NotABijectionError,
    SignUndefinedError,
    WordTooShortError,
)
from vncalc.constructions import embed, make_t, make_tau, sigma_dot
from vncalc.words import Alphabet, PartitionSet, Word, expand_to_level, point_normalize

A2 = Alphabet(2)
A3 = Alphabet(3)
A5 = Alphabet(5)


def elt(alphabet, table):
    dom = PartitionSet.from_words([W(k) for k in table], alphabet)
    return make_element(dom, [W(table[str(w)]) for w in dom.words])


def action_table(g, depth):
    """Evaluation oracle: the element as a map on all words of a depth."""
    return {
        w: apply_word(g, w) for w in PartitionSet.level(g.alphabet, depth).words
    }


def refine_pairs(pairs, word, alphabet):
    """Independent single-caret expansion used to build non-canonical tables."""
    out = []
    for w, v in pairs:
        if w == word:
            out.extend((Word(w.letters + (i,)), Word(v.letters + (i,))) for i in alphabet.letters)
        else:
            out.append((w, v))
    return out


# --- construction and canonical form ---------------------------------------


def test_make_element_full_reduction_to_identity():
    g = elt(A2, {"1.1": "1.1", "1.2": "1.2", "2": "2"})
    assert g == identity(A2)
    assert g.domain.words == (W("eps"),)


def test_make_element_swap_stays():
    g = elt(A2, {"1": "2", "2": "1"})
    assert g.pairs() == ((W("1"), W("2")), (W("2"), W("1")))


def test_make_element_tau_table():
    g = elt(A2, {"1.1": "2", "1.2": "1.2", "2": "1.1"})
    assert g == make_tau(A2)


def test_make_element_size_mismatch():
    dom = PartitionSet.from_words(words("1", "2"), A2)
    with pytest.raises(ArityError):
        make_element(dom, [W("1")])


def test_make_element_bad_images():
    dom = PartitionSet.from_words(words("1", "2"), A2)
    with pytest.raises(NotABijectionError):
        make_element(dom, words("1", "1"))
    with pytest.raises(NotABijectionError):
        make_element(dom, words("1.1", "2"))


def test_canonicalize_merges_coherent_children():
    g = canonicalize([(W("1.1"), W("2.1")), (W("1.2"), W("2.2")), (W("2"), W("1"))], A2)
    assert g == elt(A2, {"1": "2", "2": "1"})


def test_canonicalize_idempotent_on_canonical():
    rng = random.Random(0)
    for _ in range(30):
        g = random_element(A2, rng)
        assert canonicalize(g.pairs(), A2) == g


def test_canonicalize_round_trip_through_refinement():
    rng = random.Random(1)
    for n in (2, 3):
        alphabet = Alphabet(n)
        for _ in range(50):
            g = random_element(alphabet, rng)
            pairs = list(g.pairs())
            for _ in range(rng.randint(1, 4)):
                target = rng.choice(sorted(w for w, _ in pairs))
                pairs = refine_pairs(pairs, target, alphabet)
            assert canonicalize(pairs, alphabet) == g


def test_canonicalize_of_level_expansion_recovers_element():
    rng = random.Random(2)
    for _ in range(50):
        g = random_element(A2, rng)
        depth = g.domain.max_depth() + 1
        dom = expand_to_level(g.domain, depth)
        pairs = [(w, apply_word(g, w)) for w in dom.words]
        assert canonicalize(pairs, A2) == g


# --- group operations --------------------------------------------------------


def test_compose_involution_squares():
    sig = sigma_dot(A2)
    assert compose(sig, sig) == identity(A2)


def test_compose_right_factor_first():
    # sigma * tau sends the 1.1 cone to the 1 cone.
    t = compose(sigma_dot(A2), make_tau(A2))
    assert apply_word(t, W("1.1")) == W("1")
    assert t == make_t(A2)


def test_compose_identity_neutral():
    rng = random.Random(3)
    for _ in range(50):
        g = random_element(A2, rng)
        assert compose(g, identity(A2)) == g
        assert compose(identity(A2), g) == g


def test_compose_matches_evaluation_oracle():
    rng = random.Random(4)
    for n in (2, 3):
        alphabet = Alphabet(n)
        for _ in range(30):
            g = random_element(alphabet, rng, expansions=2, max_depth=3)
            h = random_element(alphabet, rng, expansions=2, max_depth=3)
            gh = compose(g, h)
            # Deep enough for the composite table and for feeding g with
            # whatever h leaves of the word.
            depth = h.domain.max_depth() + g.domain.max_depth()
            for w in PartitionSet.level(alphabet, depth).words:
                assert apply_word(gh, w) == apply_word(g, apply_word(h, w))


def test_associativity_on_random_triples():
    rng = random.Random(5)
    for _ in range(100):
        g, h, k = (random_element(A2, rng) for _ in range(3))
        assert compose(compose(g, h), k) == compose(g, compose(h, k))


def test_inverse_and_conjugation_axioms():
    rng = random.Random(6)
    for _ in range(50):
        g, h = random_element(A3, rng), random_element(A3, rng)
        assert compose(g, invert(g)) == identity(A3)
        assert conjugate(conjugate(g, h), invert(h)) == g
        assert commutator(g, g) == identity(A3)


def test_power_agrees_with_iterated_product():
    rng = random.Random(7)
    for n in (2, 3):
        alphabet = Alphabet(n)
        g = random_element(alphabet, rng)
        g_inv = invert(g)
        acc = back = identity(alphabet)
        for k in range(21):
            assert power(g, k) == acc
            assert power(g, -k) == back
            acc = compose(acc, g)
            back = compose(back, g_inv)
        assert power(g, -2) == invert(compose(g, g))


def test_conjugating_embedded_by_t_translates():
    rng = random.Random(8)
    for n in (2, 3):
        alphabet = Alphabet(n)
        t = make_t(alphabet)
        for _ in range(10):
            gamma = random_element(alphabet, rng)
            for k in range(1, 6):
                lhs = conjugate(embed(Word((1,) * k), gamma), t)
                assert lhs == embed(Word((1,) * (k + 1)), gamma)


def test_alphabet_mismatch_raises():
    with pytest.raises(AlphabetMismatchError):
        compose(sigma_dot(A2), sigma_dot(A3))
    with pytest.raises(AlphabetMismatchError):
        equals(sigma_dot(A2), sigma_dot(A3))


# --- the kernel against the naive oracle --------------------------------------


@st.composite
def deep_products(draw):
    """(g, h) over n in {2, 3, 5}: one factor has 40-100 carets, the other 1-100.

    Either factor may be the identity, and the large factor may stand on
    either side.
    """
    alphabet = Alphabet(draw(st.sampled_from((2, 3, 5))))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    big = random_element(alphabet, rng, draw(st.integers(40, 100)), max_depth=None)
    small = random_element(alphabet, rng, draw(st.integers(1, 100)), max_depth=None)
    trivial = draw(st.sampled_from(("none",) * 4 + ("big", "small")))
    if trivial == "big":
        big = identity(alphabet)
    elif trivial == "small":
        small = identity(alphabet)
    return (big, small) if draw(st.booleans()) else (small, big)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(deep_products())
def test_compose_matches_naive_oracle(factors):
    g, h = factors
    assert format_element(compose(g, h)) == format_element(naive_compose(g, h))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(deep_products(), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_canonicalize_ignores_merge_order(factors, refinements, seed):
    # Refine random rows of a product table (children of refined rows
    # too), shuffle the rows, and reduce: every merge order must give
    # back the same element.
    g, h = factors
    gh = compose(g, h)
    rng = random.Random(seed)
    pairs = list(gh.pairs())
    for _ in range(refinements):
        target = rng.choice(pairs)[0]
        pairs = refine_pairs(pairs, target, gh.alphabet)
    rng.shuffle(pairs)
    reduced = canonicalize(pairs, gh.alphabet)
    assert reduced == gh
    assert format_element(reduced) == format_element(naive_canonicalize(pairs, gh.alphabet))


# --- the letter-tuple storage against Word-built references --------------------


def outcome(fn, *args):
    """(exception class, message) of a call, or ("ok", result)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # any exception: its class is part of the comparison
        return type(exc), str(exc)


@st.composite
def stored_elements(draw):
    """(g, h, rng): two elements of 40-100 carets over one n in {2, 3, 5}."""
    alphabet = Alphabet(draw(st.sampled_from((2, 3, 5))))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g, h = (
        random_element(alphabet, rng, draw(st.integers(40, 100)), max_depth=None)
        for _ in range(2)
    )
    return g, h, rng


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(stored_elements())
def test_stored_rows_match_word_built_reference(case):
    g, h, _ = case
    for p in (g, compose(g, h)):
        alphabet = p.alphabet
        # Built by the validating constructors, independently of the
        # on-demand wrapping: the domain must be a sorted partition set,
        # and the images a partition set aligned with it.
        dom = [Word(w) for w in p.dom]
        img = [Word(v) for v in p.img]
        assert p.domain == PartitionSet.from_words(dom, alphabet)
        assert p.domain.words == tuple(dom)
        assert p.images == tuple(img)
        assert PartitionSet.from_words(img, alphabet).words == tuple(sorted(img))
        assert p.pairs() == tuple(zip(dom, img))
        assert p.max_depth() == max(len(w) for w in dom + img)
        assert p.is_identity() == (dom == [Word()])
        body = ", ".join(f"{w}->{v}" for w, v in zip(dom, img))
        assert str(p) == f"vn {alphabet.degree}: {body}"


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(stored_elements(), st.integers(1, 20))
def test_equal_elements_hash_equal_whatever_their_origin(case, refinements):
    g, h, rng = case
    p = compose(g, h)
    pairs = list(p.pairs())
    for _ in range(refinements):
        pairs = refine_pairs(pairs, rng.choice(pairs)[0], p.alphabet)
    rng.shuffle(pairs)
    same = [
        p,
        naive_compose(g, h),
        canonicalize(pairs, p.alphabet),
        parse_element(format_element(p)),
        make_element(p.domain, p.images),
        invert(invert(p)),
    ]
    for q in same:
        assert q == p
        assert hash(q) == hash(p)
    assert len(set(same)) == 1
    # Swapping two images gives another bijection, which must differ.
    img = list(p.images)
    i, j = rng.sample(range(len(img)), 2)
    img[i], img[j] = img[j], img[i]
    assert make_element(p.domain, img) != p


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(stored_elements())
def test_word_lookups_match_linear_scan_oracle(case):
    g, h, rng = case
    p = compose(g, h)
    n, depth = p.alphabet.degree, p.max_depth()
    for w in rng.sample(p.domain.words, 20):
        assert p.image_of(w) == naive_apply_word(p, w)
    # Words short of, inside and past the domain; the short ones raise
    # WordTooShortError with the oracle's text.
    for _ in range(40):
        w = Word(tuple(rng.randint(1, n) for _ in range(rng.randint(0, depth + 2))))
        assert outcome(apply_word, p, w) == outcome(naive_apply_word, p, w)
    assert outcome(apply_word, p, Word((n + 1,))) == outcome(naive_apply_word, p, Word((n + 1,)))


# --- evaluation ---------------------------------------------------------------


def test_apply_word_tau_in_v5():
    assert apply_word(make_tau(A5), W("1.2.4")) == W("3.4")


def test_apply_word_t_in_v2():
    assert apply_word(make_t(A2), W("1.1.2")) == W("1.2")


def test_apply_word_identity():
    for text in ["eps", "1", "2.1.2"]:
        assert apply_word(identity(A2), W(text)) == W(text)


def test_apply_word_too_short():
    with pytest.raises(WordTooShortError):
        apply_word(make_tau(A2), W("1"))


def test_apply_point_fixed_spine():
    t = make_t(A2)
    p = point_normalize(W("eps"), W("1"))
    assert apply_point(t, p) == p


def test_apply_point_swap_reenters():
    p = point_normalize(W("eps"), W("1"))
    q = apply_point(sigma_dot(A2), p)
    assert (str(q.preperiod), str(q.period)) == ("2", "1")


def test_apply_point_identity():
    p = point_normalize(W("1.2"), W("2.1"))
    assert apply_point(identity(A2), p) == p


def test_apply_point_prefix_consistency():
    rng = random.Random(9)
    for _ in range(100):
        g = random_element(A2, rng)
        pre = Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3))))
        per = Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))))
        p = point_normalize(pre, per)
        q = apply_point(g, p)
        k = 20
        image_prefix = apply_word(g, p.prefix(k + g.domain.max_depth()))
        assert q.prefix(k) == image_prefix.take(k)


def test_equals_matches_evaluation_oracle():
    rng = random.Random(10)
    for _ in range(100):
        g, h = random_element(A2, rng, expansions=2), random_element(A2, rng, expansions=2)
        depth = max(g.domain.max_depth(), h.domain.max_depth())
        same_action = action_table(g, depth) == action_table(h, depth)
        assert equals(g, h) == same_action


# --- order, support, volume ---------------------------------------------------


def test_order_bounded_basic():
    assert order_bounded(sigma_dot(A2), 10) == 2
    assert order_bounded(identity(A2), 10) == 1


def test_order_bounded_t_exceeds():
    t = make_t(A2)
    assert order_bounded(t, 32) is None
    # Each power moves the deep spine cone up, so none can be trivial.
    for k in range(1, 33):
        assert apply_word(power(t, k), Word((1,) * (k + 1))) == W("1")


def test_support_identity():
    rep = support(identity(A2))
    assert rep.cones == (type(rep.cones[0])(W("eps"), ConeKind.FIXED, None),)


def test_support_of_t():
    rep = {str(c.word): c for c in support(make_t(A2)).cones}
    assert rep["1.1"].kind is ConeKind.BOUNDARY
    assert rep["1.1"].fixed_point == point_normalize(W("eps"), W("1"))
    assert rep["1.2"].kind is ConeKind.MOVED
    assert rep["2"].kind is ConeKind.BOUNDARY
    assert rep["2"].fixed_point == point_normalize(W("2"), W("1"))


def test_support_of_swap_all_moved():
    rep = support(sigma_dot(A2))
    assert all(c.kind is ConeKind.MOVED for c in rep.cones)


def test_support_boundary_points_are_fixed():
    rng = random.Random(11)
    for _ in range(100):
        g = random_element(A2, rng)
        for cone in support(g).cones:
            if cone.kind is ConeKind.BOUNDARY:
                assert apply_point(g, cone.fixed_point) == cone.fixed_point


def test_support_fixed_cones_fixed_pointwise():
    rng = random.Random(12)
    for _ in range(50):
        g = random_element(A2, rng)
        for cone in support(g).cones:
            if cone.kind is ConeKind.FIXED:
                probe = cone.word + W("1.2.1")
                assert apply_word(g, probe) == probe


def test_volume_preserving():
    assert is_volume_preserving(sigma_dot(A2))
    assert not is_volume_preserving(make_tau(A2))
    sig = sigma_dot(A2)
    for k in range(1, 5):
        c = commutator(sig, embed(Word((1,) * k), sig))
        assert is_volume_preserving(c)


def test_volume_preserving_closed_under_product_and_inverse():
    rng = random.Random(13)
    for _ in range(40):
        g = random_volume_preserving(A2, rng)
        h = random_volume_preserving(A2, rng)
        assert is_volume_preserving(compose(g, h))
        assert is_volume_preserving(invert(g))


# --- parity -------------------------------------------------------------------


def test_sign_identity_and_swap():
    assert sign(identity(A3)) == 1
    assert sign(sigma_dot(A3)) == -1


def test_sign_rejects_even_degree():
    with pytest.raises(SignUndefinedError):
        sign(sigma_dot(A2))


def test_sign_matches_inversion_oracle():
    rng = random.Random(14)
    for n in (3, 5):
        alphabet = Alphabet(n)
        for _ in range(50):
            g = random_element(alphabet, rng)
            rows = sorted(g.pairs())
            rank = {v: i for i, v in enumerate(sorted(v for _, v in rows))}
            assert sign(g) == parity_by_inversions([rank[v] for _, v in rows])


def test_sign_multiplicative():
    rng = random.Random(15)
    for n in (3, 5):
        alphabet = Alphabet(n)
        for _ in range(100):
            g, h = random_element(alphabet, rng), random_element(alphabet, rng)
            assert sign(compose(g, h)) == sign(g) * sign(h)


def test_sign_refinement_invariant_for_odd_degree():
    rng = random.Random(16)
    for _ in range(30):
        g = random_element(A3, rng)
        assert sign_refinement_probe(g, trials=20, seed=17) is None


def test_probe_finds_even_degree_witness():
    witness = sign_refinement_probe(sigma_dot(A2))
    assert witness is not None
    assert witness.base_parity == -1 and witness.parity == 1
    assert witness.domain == (W("1.1"), W("1.2"), W("2"))
    assert witness.images == (W("2.1"), W("2.2"), W("1"))
    # Independent parity computations of both tables.
    assert parity_by_inversions([1, 0]) == -1
    assert parity_by_inversions([1, 2, 0]) == 1


def test_probe_identity_well_defined():
    assert sign_refinement_probe(identity(A2), trials=10) is None


def test_table_parity_handles_unsorted_pairs():
    pairs = [(W("2"), W("1")), (W("1"), W("2"))]
    assert table_parity(pairs) == -1


# --- text format ----------------------------------------------------------------


def test_format_parse_round_trip():
    rng = random.Random(18)
    for _ in range(30):
        g = random_element(A3, rng)
        assert parse_element(format_element(g)) == g


def test_parse_element_canonicalizes():
    text = "vn 2\n1.1 -> 2.1\n1.2 -> 2.2\n2 -> 1\n"
    assert parse_element(text) == elt(A2, {"1": "2", "2": "1"})


def test_parse_element_reports_line_numbers():
    with pytest.raises(FileFormatError) as info:
        parse_element("vn 2\n1 -> 2\nbogus\n")
    assert "line 3" in str(info.value)


def test_parse_element_rejects_bad_header():
    with pytest.raises(FileFormatError):
        parse_element("vnn 2\n1 -> 2\n2 -> 1\n")
