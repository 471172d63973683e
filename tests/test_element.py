"""Group arithmetic: canonical forms, evaluation, support, and parity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    W,
    level_partition,
    naive_apply_word,
    naive_canonicalize,
    naive_compose,
    naive_sign_refinement_probe,
    outcome,
    parity_by_inversions,
    random_volume_preserving,
    words,
)
from vncalc import element
from vncalc.element import (
    ConeKind,
    VnElement,
    _canonical,
    _expand_at,
    apply_point,
    apply_word,
    canonicalize,
    commutator,
    compose,
    conjugate,
    format_element,
    identity,
    invert,
    is_volume_preserving,
    make_element,
    order_bounded,
    parse_element,
    power,
    product,
    random_element,
    sign,
    sign_refinement_probe,
    support,
    table_parity,
)
from vncalc.errors import (
    AlphabetMismatchError,
    ArityError,
    BudgetExceededError,
    FileFormatError,
    MalformedWordError,
    NotABijectionError,
    NotAPartitionError,
    SignUndefinedError,
    WordTooShortError,
)
from vncalc.constructions import Permutation, dot, embed, make_t, make_tau, sigma_dot
from vncalc.words import (
    Alphabet,
    PartitionSet,
    Word,
    _random_leaves,
    point_normalize,
)

A2 = Alphabet(2)
A3 = Alphabet(3)
A5 = Alphabet(5)


def elt(alphabet, table):
    dom = PartitionSet.from_words([W(k) for k in table], alphabet)
    return make_element(dom, [W(table[str(w)]) for w in dom.words])


def action_table(g, depth):
    """Evaluation oracle: the element as a map on all words of a depth."""
    return {
        w: apply_word(g, w) for w in level_partition(g.alphabet, depth).words
    }


def dot_swap_1_3(alphabet):
    """The lift of the transposition (1 3): its row 1 -> 3 meets the cone at 3."""
    return dot(Permutation.from_cycles([(1, 3)], alphabet.degree), alphabet)


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


@pytest.mark.parametrize(
    "table, error, message",
    [
        ({"1": "2"}, NotAPartitionError, "cone measures sum to 1/2, expected 1"),
        ({}, NotAPartitionError, "cone measures sum to 0, expected 1"),
        ({"1": "1", "1.2": "2"}, NotAPartitionError, "1 is a proper prefix of 1.2"),
        ({"1": "1", "3": "2"}, MalformedWordError, "letter 3 of word 3 exceeds"),
        ({"1": "1", "2": "1"}, NotABijectionError, "image words are not distinct"),
        ({"1": "1", "2": "3"}, MalformedWordError, "letter 3 of word 3 exceeds"),
        ({"1": "1.1", "2": "2"}, NotABijectionError, "images are not a partition set"),
    ],
    ids=["domain-short", "domain-empty", "domain-prefix", "domain-letter", "image-repeat",
         "image-letter", "image-short"],
)
def test_canonicalize_checks_its_table(table, error, message):
    # The reducer relies on a partition-set domain; an unchecked table
    # such as 1 -> 2 came back as an element that composed to no rows.
    with pytest.raises(error, match=message):
        canonicalize([(W(w), W(v)) for w, v in table.items()], A2)


@pytest.mark.parametrize(
    "table",
    [
        # The last two children of the caret at 2 map coherently, the
        # first does not.
        {"1": "1.1", "2.1": "2", "2.2": "1.2", "2.3": "1.3", "3": "3"},
        # The images below the caret at 2 would merge to 1, but 2.1 is no
        # leaf: the row before 2.2 is 2.1.3.
        {
            "1": "3",
            "2.1.1": "2.1",
            "2.1.2": "2.2",
            "2.1.3": "1.1",
            "2.2": "1.2",
            "2.3": "1.3",
            "3": "2.3",
        },
    ],
    ids=["first-image", "deeper-sibling"],
)
def test_canonicalize_needs_every_child_of_a_caret(table):
    pairs = [(W(w), W(v)) for w, v in table.items()]
    g = canonicalize(pairs, A3)
    assert len(g.dom) == len(table)
    assert g == naive_canonicalize(pairs, A3)


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
        dom = level_partition(A2, depth)
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
    # compose returns the other factor itself; the oracle agrees that the
    # product is that factor.
    rng = random.Random(3)
    for alphabet in (A2, A3, A5):
        ident = identity(alphabet)
        factors = [ident, sigma_dot(alphabet), make_t(alphabet)]
        factors += [random_element(alphabet, rng) for _ in range(20)]
        factors += [random_element(alphabet, rng, 12, max_depth=None) for _ in range(10)]
        for g in factors:
            assert compose(g, ident) is g and compose(ident, g) is g
            assert format_element(naive_compose(g, ident)) == format_element(g)
            assert format_element(naive_compose(ident, g)) == format_element(g)


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
            for w in level_partition(alphabet, depth).words:
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


def test_power_and_order_stop_at_the_work_budget(monkeypatch):
    """t^k holds about k * k letters: past the budget a loop step raises."""
    t = make_t(A2)
    with pytest.raises(BudgetExceededError, match="order stopped"):
        order_bounded(t, 10**8)
    monkeypatch.setattr(element, "_WORK_BUDGET", 10_000)
    assert power(t, 40) == compose(power(t, 39), t)
    for k in (10**5, -(10**5)):
        with pytest.raises(BudgetExceededError, match="power stopped"):
            power(t, k)


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
    # An identity factor is checked too, before compose returns the other.
    for g, h in [
        (sigma_dot(A2), sigma_dot(A3)),
        (identity(A2), sigma_dot(A3)),
        (sigma_dot(A2), identity(A3)),
        (identity(A2), identity(A3)),
    ]:
        with pytest.raises(AlphabetMismatchError):
            compose(g, h)


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


@settings(max_examples=60)
@given(deep_products())
def test_compose_matches_naive_oracle(factors):
    g, h = factors
    assert format_element(compose(g, h)) == format_element(naive_compose(g, h))


@settings(max_examples=40)
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


@st.composite
def sorted_tables(draw):
    """Sorted, refined letter-tuple tables over n in {2, 3, 5}.

    Either a canonical element of 40-100 carets with 1-30 rows refined
    (children of refined rows too), or a table that reduces all the way
    to the identity: the identity on a random partition of 40-100 carets,
    or on a full level of at least 40 carets.
    """
    n = draw(st.sampled_from((2, 3, 5)))
    alphabet = Alphabet(n)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("refined", "identity", "level")))
    if kind == "level":
        depth = next(d for d in range(1, 9) if (n**d - 1) // (n - 1) >= 40)
        leaves = level_partition(alphabet, depth).words
        pairs = list(zip(leaves, leaves))
    elif kind == "identity":
        leaves = list(map(Word, _random_leaves(alphabet, rng, draw(st.integers(40, 100)), None)))
        pairs = list(zip(leaves, leaves))
    else:
        g = random_element(alphabet, rng, draw(st.integers(40, 100)), max_depth=None)
        pairs = list(g.pairs())
        for _ in range(draw(st.integers(1, 30))):
            pairs = refine_pairs(pairs, rng.choice(pairs)[0], alphabet)
    return alphabet, sorted(pairs)


@settings(max_examples=60)
@given(sorted_tables())
def test_canonical_matches_naive_oracle(case):
    alphabet, pairs = case
    rows = [(w.letters, v.letters) for w, v in pairs]
    assert format_element(_canonical(rows, alphabet)) == format_element(
        naive_canonicalize(pairs, alphabet)
    )


@st.composite
def split_sibling_tables(draw):
    """Sorted tables where a caret's image test passes but a sibling is split.

    Under the cone at u, sibling u.j (j < n) is split into its n children.
    The n - 1 rows just before u.n map to b.1..b.(n-1) and u.n maps to
    b.n, so the n - 1 images on top of the reducer's stack are those of a
    mergeable caret while the domain rows under them are not u.1..u.(n-1).
    The other n - 1 rows map onto the siblings of b, so the images form a
    partition set; the table sits at a random cone u with every sibling
    off the path fixed, and random rows are then refined, which the
    reducer must undo first.
    """
    n = draw(st.sampled_from((2, 3, 5)))
    alphabet = Alphabet(n)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    j = draw(st.integers(1, n - 1))
    b = draw(st.integers(1, n))
    core = [(i,) for i in range(1, j)] + [(j, c) for c in range(1, n + 1)]
    core += [(i,) for i in range(j + 1, n)]
    others = [(c,) for c in alphabet.letters if c != b]
    rng.shuffle(others)
    images = others + [(b, i) for i in range(1, n)]
    rows = list(zip(core, images)) + [((n,), (b, n))]
    u = tuple(rng.randint(1, n) for _ in range(draw(st.integers(0, 4))))
    pairs = [(Word(u + w), Word(u + v)) for w, v in rows]
    for k, a in enumerate(u):
        pairs += [(Word(u[:k] + (c,)),) * 2 for c in alphabet.letters if c != a]
    for _ in range(draw(st.integers(0, 6))):
        pairs = refine_pairs(pairs, rng.choice(pairs)[0], alphabet)
    return alphabet, sorted(pairs)


@settings(max_examples=60)
@given(split_sibling_tables())
def test_canonical_needs_unsplit_siblings(case):
    alphabet, pairs = case
    rows = [(w.letters, v.letters) for w, v in pairs]
    expected = naive_canonicalize(pairs, alphabet)
    assert format_element(_canonical(rows, alphabet)) == format_element(expected)
    assert canonicalize(pairs, alphabet) == expected


@pytest.mark.parametrize(
    "g, h",
    [
        # sigma's row 2 -> 1 meets tau's domain before its first word 1.1.
        (make_tau(A2), sigma_dot(A2)),
        # The image eps stops short of every domain word of g.
        (make_tau(A3), identity(A3)),
        (make_t(A2), identity(A2)),
        # The image 2 prefixes the run 2.1, 2.2 that ends g's domain.
        (embed(W("2"), sigma_dot(A2)), sigma_dot(A2)),
        (embed(W("3.3"), make_tau(A3)), dot_swap_1_3(A3)),
    ],
    ids=["before-first", "eps-v3", "eps-v2", "last-run", "last-run-deep"],
)
def test_compose_at_the_bisection_edges(g, h):
    assert format_element(compose(g, h)) == format_element(naive_compose(g, h))


# --- products folded through compose ----------------------------------------
# ``product`` folds its factors through ``compose``; the reference is a
# left fold of the naive product.


def naive_product(factors):
    out = factors[0]
    for f in factors[1:]:
        out = naive_compose(out, f)
    return out


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_product_matches_a_fold_of_naive_compose(n, m):
    """m 40-expansion factors, then the identity in each position in turn,
    then every factor the identity."""
    alphabet = Alphabet(n)
    rng = random.Random(100 * n + m)
    factors = [random_element(alphabet, rng, 40, max_depth=None) for _ in range(m)]
    cases = [factors]
    cases += [factors[:p] + [identity(alphabet)] + factors[p + 1 :] for p in range(m)]
    cases.append([identity(alphabet)] * m)
    for case in cases:
        expected = naive_product(case)
        assert format_element(product(*case)) == format_element(expected)


def test_product_of_one_moving_factor_is_that_factor():
    g = make_t(A3)
    assert product(identity(A3), g, identity(A3)) is g
    assert product(g) is g


@pytest.mark.parametrize("n", [2, 3, 5])
def test_conjugate_and_commutator_match_their_compose_forms(n):
    alphabet = Alphabet(n)
    rng = random.Random(n)
    pool = [random_element(alphabet, rng, 40, max_depth=None) for _ in range(4)]
    pool += [identity(alphabet), make_t(alphabet)]
    for g in pool:
        for h in pool:
            assert conjugate(g, h) == compose(compose(invert(h), g), h)
            assert commutator(g, h) == compose(compose(g, h), compose(invert(g), invert(h)))


@pytest.mark.parametrize(
    "g, h",
    [
        (sigma_dot(A2), sigma_dot(A3)),
        (identity(A2), make_t(A3)),
        (make_t(A5), identity(A2)),
        (identity(A3), identity(A5)),
    ],
)
def test_conjugate_and_commutator_keep_the_alphabet_error_of_their_compose_forms(g, h):
    for fast, slow in [
        (lambda: conjugate(g, h), lambda: compose(compose(invert(h), g), h)),
        (
            lambda: commutator(g, h),
            lambda: compose(compose(g, h), compose(invert(g), invert(h))),
        ),
    ]:
        with pytest.raises(AlphabetMismatchError) as got:
            fast()
        with pytest.raises(AlphabetMismatchError) as want:
            slow()
        assert str(got.value) == str(want.value)


# --- one-pass compose: copied runs skip the reducer -------------------------


def copied_rows(g, h):
    """The rows w.s -> g(v.s) of every row w -> v of h whose image stops
    short of g's domain, found by a scan of g's whole table."""
    rows = []
    for w, v in zip(h.dom, h.img):
        if any(v[: len(u)] == u for u in g.dom):
            continue
        rows += [(w + u[len(v) :], z) for u, z in zip(g.dom, g.img) if u[: len(v)] == v]
    return rows


@settings(max_examples=40)
@given(deep_products(), st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_compose_keeps_every_copied_run_verbatim(factors, refinements, seed):
    """Every copied row is final, also when h's table is refined at random
    rows and so is not canonical (unless g is the identity, whose product
    is h as it is); the product is the naive one, with at most
    |g| + |h| - 1 rows."""
    g, h = factors
    rng = random.Random(seed)
    right = list(zip(h.dom, h.img))
    for _ in range(refinements if g.dom != ((),) else 0):
        right = _expand_at(right, rng.choice(right)[0], h.alphabet)
    refined = VnElement(h.alphabet, tuple(w for w, _ in right), tuple(v for _, v in right))
    expected = format_element(naive_compose(g, h))
    for right_factor in (h, refined):
        p = compose(g, right_factor)
        table = dict(zip(p.dom, p.img))
        for w, z in copied_rows(g, right_factor):
            assert table.get(w) == z
        assert format_element(p) == expected
        assert len(p.dom) <= len(g.dom) + len(right_factor.dom) - 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_compose_reaches_every_run_end(n):
    """Each h has images that end in the letter n and stop short of g's
    domain, so the run bound holds the letter n + 1, at depth 1 and 2;
    their runs end at g's last domain word."""
    alphabet = Alphabet(n)
    g = embed(Word((n,) * 3), make_tau(alphabet))
    swap = dot(Permutation.from_cycles([(1, n)], n), alphabet)
    for h in (swap, make_tau(alphabet), embed(Word((n,)), swap)):
        short = [v for v in h.img if not any(v[: len(u)] == u for u in g.dom)]
        assert any(v[-1] == n and g.dom[-1][: len(v)] == v for v in short)
        assert format_element(compose(g, h)) == format_element(naive_compose(g, h))
    assert compose(g, identity(alphabet)) is g


@pytest.mark.parametrize("n", [2, 3, 5])
def test_compose_shares_the_left_factors_words(n):
    """A row that h fixes takes g's own domain words, and an exact hit
    takes g's own image tuple."""
    alphabet = Alphabet(n)
    g = embed(Word((1, n)), make_t(alphabet))
    h = make_tau(alphabet)
    p = compose(g, h)
    [fixed] = [v for w, v in zip(h.dom, h.img) if w == v]
    run = [u for u in g.dom if u[: len(fixed)] == fixed]
    assert len(run) > 1
    assert all(any(x is u for x in p.dom) for u in run)
    rows = dict(zip(p.dom, p.img))
    hits = [(w, g.img[g.dom.index(v)]) for w, v in zip(h.dom, h.img) if v in g.dom]
    assert any(w in rows for w, _ in hits)
    assert all(rows[w] is z for w, z in hits if w in rows)


# --- the letter-tuple storage against Word-built references --------------------


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


@settings(max_examples=40)
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
        assert p.is_identity() == (dom == [Word()])
        body = ", ".join(f"{w}->{v}" for w, v in zip(dom, img))
        assert str(p) == f"vn {alphabet.degree}: {body}"


@settings(max_examples=40)
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


@settings(max_examples=40)
@given(stored_elements())
def test_word_lookups_match_linear_scan_oracle(case):
    g, h, rng = case
    p = compose(g, h)
    n, depth = p.alphabet.degree, max(map(len, p.dom + p.img))
    for w in rng.sample(p.domain.words, 20):
        assert apply_word(p, w) == naive_apply_word(p, w)
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
        assert q.prefix(k) == Word(image_prefix.letters[:k])


def test_equals_matches_evaluation_oracle():
    rng = random.Random(10)
    for _ in range(100):
        g, h = random_element(A2, rng, expansions=2), random_element(A2, rng, expansions=2)
        depth = max(g.domain.max_depth(), h.domain.max_depth())
        same_action = action_table(g, depth) == action_table(h, depth)
        assert (g == h) == same_action


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
    assert rep == (type(rep[0])(W("eps"), ConeKind.FIXED, None),)


def test_support_of_t():
    rep = {str(c.word): c for c in support(make_t(A2))}
    assert rep["1.1"].kind is ConeKind.BOUNDARY
    assert rep["1.1"].fixed_point == point_normalize(W("eps"), W("1"))
    assert rep["1.2"].kind is ConeKind.MOVED
    assert rep["2"].kind is ConeKind.BOUNDARY
    assert rep["2"].fixed_point == point_normalize(W("2"), W("1"))


def test_support_of_swap_all_moved():
    rep = support(sigma_dot(A2))
    assert all(c.kind is ConeKind.MOVED for c in rep)


def test_support_boundary_points_are_fixed():
    rng = random.Random(11)
    for _ in range(100):
        g = random_element(A2, rng)
        for cone in support(g):
            if cone.kind is ConeKind.BOUNDARY:
                assert apply_point(g, cone.fixed_point) == cone.fixed_point


def test_support_fixed_cones_fixed_pointwise():
    rng = random.Random(12)
    for _ in range(50):
        g = random_element(A2, rng)
        for cone in support(g):
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_probe_matches_the_word_based_probe(n):
    """Witnesses found by the single-caret pass and by the random
    refinements, and no witness at all, come out the same."""
    alphabet = Alphabet(n)
    rng = random.Random(n)
    elements = [identity(alphabet), sigma_dot(alphabet)]
    elements += [random_element(alphabet, rng) for _ in range(30)]
    random_hits = 0
    for g in elements:
        for seed, trials in [(0, 0), (1, 5), (7, 50)]:
            witness = sign_refinement_probe(g, trials, seed)
            assert witness == naive_sign_refinement_probe(g, trials, seed)
            random_hits += witness is not None and len(witness.domain) > len(g.dom) + n - 1
    if n == 2:
        assert random_hits, "no witness came from a multi-caret refinement"


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
