"""Expression grammar, evaluation algebra, printing, and DOT rendering."""

import random
import re
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import W, naive_render_dot, naive_tokenize, outcome
from vncalc.constructions import (
    default_base,
    dot,
    embed,
    make_s_alpha,
    make_t,
    make_tau,
    plan_alpha,
    save_alpha_plan,
    sigma_dot,
    Permutation,
)
from vncalc.element import (
    commutator,
    compose,
    conjugate,
    format_element,
    identity,
    invert,
    power,
    random_element,
)
from vncalc.errors import ExpressionError
from vncalc.expressions import (
    _tokenize,
    CommutatorExpr,
    Conjugation,
    DotLift,
    EmbedExpr,
    Expr,
    MAX_NESTING,
    NameRef,
    Power,
    Product,
    SpinalFromFile,
    default_env,
    eval_expression,
    format_expression,
    parse_expression,
)
from vncalc.render import render_dot
from vncalc.words import Alphabet, Word

A2 = Alphabet(2)
A5 = Alphabet(5)


def ev(text, alphabet=A2, extra=None):
    return eval_expression(parse_expression(text), default_env(alphabet, extra))


# --- parsing -------------------------------------------------------------------


def test_parse_product():
    assert parse_expression("sigma * tau") == Product((NameRef("sigma"), NameRef("tau")))


def test_parse_commutator_with_conjugation():
    expr = parse_expression("[s, s^(t^2)]")
    assert expr == CommutatorExpr(
        NameRef("s"), Conjugation(NameRef("s"), Power(NameRef("t"), 2))
    )


def test_parse_inverse_postfix():
    assert parse_expression("sigma^-1") == Power(NameRef("sigma"), -1)


def test_parse_precedence_postfix_over_product():
    expr = parse_expression("a * b^2")
    assert expr == Product((NameRef("a"), Power(NameRef("b"), 2)))


def test_parse_conjugation_by_name():
    assert parse_expression("a^b") == Conjugation(NameRef("a"), NameRef("b"))


def test_parse_constructors():
    assert parse_expression("dot((1 2)(3 4))") == DotLift(((1, 2), (3, 4)))
    assert parse_expression("dot((1,2)(3, 4))") == DotLift(((1, 2), (3, 4)))
    assert parse_expression("embed(1.2, sigma)") == EmbedExpr(W("1.2"), NameRef("sigma"))
    assert parse_expression("embed(eps, sigma)") == EmbedExpr(W("eps"), NameRef("sigma"))
    assert parse_expression('s("plans/p.alpha")') == SpinalFromFile("plans/p.alpha")
    # A bare path runs, token by token, up to the closing parenthesis.
    assert parse_expression("s(plans/p.alpha)") == SpinalFromFile("plans/p.alpha")


def test_parse_whitespace_insensitive():
    assert parse_expression("a*b") == parse_expression("  a  *  b ")


def test_parse_errors_carry_position():
    for bad in ["sigma *", "[a, b", "a ^", "dot()", "2"]:
        with pytest.raises(ExpressionError):
            parse_expression(bad)


@pytest.mark.parametrize(
    "text, position",
    [
        ("sigma^\u0662", 6),
        ("embed(\u0661, sigma)", 6),
        ("t^\uff13", 2),
        ("dot((1\u0662))", 6),
        ("dot((1 \u0662))", 7),
        ("sigma  @", 7),
    ],
)
def test_numbers_are_ascii_digits(text, position):
    """A non-ASCII digit is an unexpected character, not a number.  The
    error names that character and its position, not a space before it."""
    with pytest.raises(ExpressionError) as info:
        parse_expression(text)
    assert str(info.value) == f"unexpected character {text[position]!r} (at position {position})"


def nest_parens(depth):
    return "(" * depth + "t" + ")" * depth


def nest_inverses(depth):
    return "t" + "^-1" * depth


def nest_embeds(depth):
    return "embed(1, " * depth + "t" + ")" * depth


def nest_commutators(depth):
    return "[t, " * depth + "t" + "]" * depth


def nest_mixed(depth):
    """Postfix levels inside parentheses add to the parentheses' levels."""
    half = depth // 2
    return "(" * half + "t" + "^-1" * (depth - half) + ")" * half


def nested_embeds_of_t(depth):
    g = make_t(A2)
    for _ in range(depth):
        g = embed(W("1"), g)
    return g


NESTINGS = [
    ("parens", nest_parens, lambda depth: make_t(A2)),
    ("inverses", nest_inverses, lambda depth: power(make_t(A2), (-1) ** depth)),
    ("embeds", nest_embeds, nested_embeds_of_t),
    ("commutators", nest_commutators, lambda depth: identity(A2)),
    ("mixed", nest_mixed, lambda depth: power(make_t(A2), (-1) ** (depth - depth // 2))),
]


@pytest.mark.parametrize("build, expected", [n[1:] for n in NESTINGS], ids=[n[0] for n in NESTINGS])
def test_nesting_at_the_limit_evaluates_and_prints(build, expected):
    expr = parse_expression(build(MAX_NESTING))
    assert eval_expression(expr, default_env(A2)) == expected(MAX_NESTING)
    assert parse_expression(format_expression(expr)) == expr


@pytest.mark.parametrize("build", [n[1] for n in NESTINGS], ids=[n[0] for n in NESTINGS])
def test_nesting_past_the_limit_is_rejected(build):
    with pytest.raises(ExpressionError, match=f"nests deeper than {MAX_NESTING} levels"):
        parse_expression(build(MAX_NESTING + 1))


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_stack_overflow_inside_the_cap_is_an_expression_error():
    """A caller with little stack left gets an ExpressionError, not a RecursionError."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 300)
    try:
        with pytest.raises(ExpressionError, match="too deeply for the Python stack"):
            parse_expression(nest_embeds(MAX_NESTING))
    finally:
        sys.setrecursionlimit(limit)
    assert parse_expression(nest_embeds(MAX_NESTING)) is not None


def test_a_node_of_no_known_kind_is_an_expression_error():
    """The evaluator's and the printer's last guards, for a node class that
    the parser never builds."""

    class Unknown(Expr):
        def __repr__(self):
            return "Unknown()"

    with pytest.raises(ExpressionError) as info:
        eval_expression(Unknown(), default_env(A2))
    assert str(info.value) == "cannot evaluate node Unknown()"
    with pytest.raises(ExpressionError) as info:
        format_expression(Unknown())
    assert str(info.value) == "cannot print node Unknown()"


@pytest.mark.parametrize(
    "text, message",
    [
        ("foo(1)", "unknown constructor 'foo'"),
        ("(t) * 3", "expected an atom, got '3'"),
        ("t * ", "expected an atom, got end of input"),
        ("(t", "expected ')', got end of input"),
        ("[t", "expected ',', got end of input"),
        ("embed(", "expected a word, got end of input"),
        ("embed(1.", "expected a letter after '.', got end of input"),
        ("s(", "expected a plan file path, got end of input"),
    ],
)
def test_atom_errors(text, message):
    with pytest.raises(ExpressionError, match=re.escape(message)):
        parse_expression(text)


# The grammar's characters and spaces, two characters that are both a space
# and a line break (\x1c, \u2028), a non-breaking space, and characters no
# token takes: '@', and a letter and a digit outside ASCII.  A '"' may open
# a string that it never closes.
TOKENIZER_CHARS = (
    string.ascii_letters + string.digits + '_*^()[],.-/:~" \t\n\x1c\u2028\xa0@\u00e9\u0662'
)


@settings(max_examples=500)
@given(st.text(st.sampled_from(TOKENIZER_CHARS), max_size=24))
def test_tokenizer_matches_the_scanning_tokenizer(text):
    """The same tokens, or the same error at the same position."""
    assert outcome(_tokenize, text) == outcome(naive_tokenize, text)


def test_sibling_levels_do_not_add_up():
    factors = ["(t)^-1", "[t, t]", "embed(1, t)^2", "dot((1 2))"] * MAX_NESTING
    assert len(parse_expression(" * ".join(factors)).factors) == len(factors)


# --- evaluation -----------------------------------------------------------------


def test_eval_product_is_composition():
    assert ev("sigma * tau") == make_t(A2)


def test_eval_named_atoms():
    assert ev("id") == identity(A2)
    assert ev("t") == make_t(A2)
    assert ev("[sigma, sigma]") == identity(A2)


def test_eval_dot_in_v5():
    assert ev("dot((1 2))", A5) == dot(Permutation.from_cycles([(1, 2)], 5), A5)


def test_eval_respects_algebra():
    rng = random.Random(0)
    from vncalc.element import random_element

    for _ in range(10):
        a, b = random_element(A2, rng), random_element(A2, rng)
        env = default_env(A2, {"a": a, "b": b})
        assert eval_expression(parse_expression("a * b"), env) == compose(a, b)
        assert eval_expression(parse_expression("a^b"), env) == conjugate(a, b)
        assert eval_expression(parse_expression("[a, b]"), env) == commutator(a, b)
        assert eval_expression(parse_expression("a^-1"), env) == invert(a)
        assert eval_expression(parse_expression("a^3"), env) == power(a, 3)


def test_eval_embed():
    assert ev("embed(1.1, sigma)") == embed(W("1.1"), sigma_dot(A2))


def test_eval_spinal_from_file(tmp_path):
    base = default_base(A2, 1)
    plan = plan_alpha(base)
    (tmp_path / "b.elt").write_text(format_element(base[0]) + "\n")
    plan_path = tmp_path / "p.alpha"
    save_alpha_plan(plan, str(plan_path), {1: "b.elt"})
    expr = f's("{plan_path}")'
    assert ev(expr) == make_s_alpha(plan)


def test_default_env_with_extra_leaves_the_shared_env_unchanged():
    shared = default_env(A2)
    bindings = shared.bindings
    s = make_s_alpha(plan_alpha(default_base(A2, 1)))
    extended = default_env(A2, {"s": s, "t": identity(A2)})
    assert extended.lookup("s") == s
    assert extended.lookup("t") == identity(A2)
    assert default_env(A2) == shared
    assert shared.bindings == bindings
    assert shared.lookup("t") == make_t(A2)
    with pytest.raises(ExpressionError):
        shared.lookup("s")


def test_eval_unknown_name():
    with pytest.raises(ExpressionError):
        ev("nonsense")


def test_eval_rejects_oversized_cycle_letters():
    with pytest.raises(ExpressionError):
        ev("dot((1 7))", A2)


# --- printing round trip -----------------------------------------------------------


ATOM_NAMES = ["a", "b", "sigma", "tau", "t"]


def random_ast(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        choices = [
            NameRef(rng.choice(ATOM_NAMES)),
            DotLift(((1, 2),)),
            DotLift(((1, 3), (2, 4))),
            SpinalFromFile("plans/p1.alpha"),
        ]
        return rng.choice(choices)
    if roll < 0.4:
        return Product(tuple(random_ast(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if roll < 0.55:
        return Power(random_ast(rng, depth - 1), rng.choice([-3, -1, 2, 5]))
    if roll < 0.7:
        return Conjugation(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if roll < 0.85:
        return CommutatorExpr(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    return EmbedExpr(Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2)))),
                     random_ast(rng, depth - 1))


def test_format_parse_round_trip_on_random_asts():
    rng = random.Random(1)
    for _ in range(100):
        ast = random_ast(rng, 3)
        assert parse_expression(format_expression(ast)) == ast


def test_format_known_shapes():
    assert format_expression(parse_expression("[s, s^(t^2)]")) == "[s, s^(t^2)]"
    assert format_expression(parse_expression("(a * b)^2")) == "(a * b)^2"
    assert format_expression(parse_expression("a^b^2")) == "a^b^2"


# --- DOT rendering -------------------------------------------------------------------


class DotChecker:
    """A tiny DOT-language parser covering the constructs we emit."""

    def __init__(self, text):
        self.tokens = re.findall(
            r'"[^"]*"|->|[{}\[\];=,]|[A-Za-z_][A-Za-z0-9_.]*', text
        )
        self.pos = 0
        self.nodes = set()
        self.edges = []

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        got = self.next()
        assert got == want, f"expected {want!r}, got {got!r}"

    def parse(self):
        self.expect("digraph")
        self.next()  # graph name
        self.parse_block()
        assert self.pos == len(self.tokens), "trailing tokens"
        return self

    def parse_block(self):
        self.expect("{")
        while self.tokens[self.pos] != "}":
            self.parse_statement()
        self.expect("}")

    def parse_statement(self):
        tok = self.next()
        if tok == "subgraph":
            self.next()  # subgraph name
            self.parse_block()
            return
        if self.tokens[self.pos] == "=":  # graph attribute
            self.next()
            self.next()
            if self.tokens[self.pos] == ";":
                self.next()
            return
        if self.tokens[self.pos] == "->":
            self.next()
            target = self.next()
            self.edges.append((tok, target))
        else:
            self.nodes.add(tok)
        if self.tokens[self.pos] == "[":
            while self.next() != "]":
                pass
        if self.tokens[self.pos] == ";":
            self.next()


def test_render_identity_two_matched_roots():
    text = render_dot(identity(A2))
    checker = DotChecker(text).parse()
    assert ("d_eps", "r_eps") in checker.edges


def test_render_tau_v5_leaf_count():
    text = render_dot(make_tau(A5))
    leaf_lines = [ln for ln in text.splitlines() if "shape=box" in ln and ln.strip().startswith("d_")]
    assert len(leaf_lines) == 9


def test_render_parses_and_matches_leaves():
    rng = random.Random(2)
    from vncalc.element import random_element

    for _ in range(10):
        g = random_element(A2, rng)
        checker = DotChecker(render_dot(g)).parse()
        dashed = [e for e in checker.edges if e[0].startswith("d_") and e[1].startswith("r_")]
        assert len(dashed) == len(g.domain.words)


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_render_matches_the_word_based_renderer(n, expansions, seed):
    """Up to kernel-products' table size, with no depth bound."""
    alphabet = Alphabet(n)
    g = random_element(alphabet, random.Random(seed), expansions, max_depth=None)
    for h in (identity(alphabet), g):
        assert render_dot(h) == naive_render_dot(h)


def test_render_deterministic():
    g = make_t(A2)
    assert render_dot(g) == render_dot(g)
