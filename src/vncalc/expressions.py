"""A small expression language for building group elements.

Grammar::

    expr    := term ('*' term)*
    term    := atom postfix*
    postfix := '^' integer | '^' atom          # power, or conjugation g^h
    atom    := name | '[' expr ',' expr ']' | '(' expr ')'
             | 'dot' '(' cycles ')' | 'embed' '(' word ',' expr ')'
             | 's' '(' path ')'

Postfix binds tighter than '*'; whitespace is ignored.  ``g^-1`` is the
inverse, ``g^k`` an integer power, and ``g^h`` conjugation by h.  In a
product the right factor acts first.

Each '(', '[', constructor call and postfix '^' opens one nesting level;
an expression deeper than ``MAX_NESTING`` levels is rejected while it is
parsed, so parsing, evaluating and printing never recurse deeper.
"""

from __future__ import annotations

import functools
import re

from .constructions import (
    Permutation,
    _embed_letters,
    dot,
    embed,
    load_alpha_plan,
    make_s_alpha,
    make_t,
    make_tau,
    sigma_dot,
)
from .element import (
    VnElement,
    _spend,
    _table_letters,
    commutator,
    compose,
    conjugate,
    identity,
    power,
)
from .errors import ExpressionError
from .words import Alphabet, Word, _Record, check_letters


class Expr(_Record):
    """Base class for expression nodes: frozen records, equal when their
    class and fields are."""

    __slots__ = ()


class NameRef(Expr):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self._set_fields(name)


class Product(Expr):
    __slots__ = __match_args__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        self._set_fields(factors)


class Power(Expr):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self._set_fields(base, exponent)


class Conjugation(Expr):
    __slots__ = __match_args__ = ("base", "by")

    def __init__(self, base: Expr, by: Expr):
        self._set_fields(base, by)


class CommutatorExpr(Expr):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self._set_fields(left, right)


class DotLift(Expr):
    __slots__ = __match_args__ = ("cycles",)

    def __init__(self, cycles: tuple[tuple[int, ...], ...]):
        self._set_fields(cycles)


class EmbedExpr(Expr):
    __slots__ = __match_args__ = ("cone", "inner")

    def __init__(self, cone: Word, inner: Expr):
        self._set_fields(cone, inner)


class SpinalFromFile(Expr):
    __slots__ = __match_args__ = ("path",)

    def __init__(self, path: str):
        self._set_fields(path)


# The symbol class includes path characters so bare file arguments like
# s(plans/p.alpha) tokenize; they are meaningful only inside s(...).  Any
# other character but a space is ``bad``, so the matches cover the text up
# to its trailing spaces.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    r'|(?P<string>"[^"]*")|(?P<sym>[*^()\[\],.\-/:~])|(?P<bad>\S))'
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExpressionError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


# A level costs the parser at most four Python frames (an embed call:
# parse_atom, parse_embed_call, parse_expr, parse_term), so an expression at
# the cap takes about 800 of CPython's default 1000 frames, leaving callers
# about 200.  Printing takes two frames a level and evaluating one.  A stack
# that still overflows while parsing is reported as an ExpressionError.
MAX_NESTING = 200


def _got(text: str | None) -> str:
    """The token an error met, quoted, or the end of the input."""
    return "end of input" if text is None else repr(text)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text, where = self.next()
        if text != value:
            raise ExpressionError(f"expected {value!r}, got {_got(text)}", where)

    def fail(self, message: str):
        raise ExpressionError(message, self.peek()[2])

    def enter(self, where: int) -> None:
        """Open one nesting level; the caller restores the depth it saved."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(
                f"expression nests deeper than {MAX_NESTING} levels", where
            )

    def parse(self) -> Expr:
        expr = self.parse_expr()
        if self.pos != len(self.tokens):
            self.fail(f"trailing input {self.peek()[1]!r}")
        return expr

    def parse_expr(self) -> Expr:
        factors = [self.parse_term()]
        while self.peek()[1] == "*":
            self.next()
            factors.append(self.parse_term())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_term(self) -> Expr:
        node = self.parse_atom()
        depth = self.depth
        while self.peek()[1] == "^":
            self.enter(self.next()[2])
            kind, text, _ = self.peek()
            if text == "-":
                self.next()
                kind, text, where = self.next()
                if kind != "int":
                    raise ExpressionError("expected an integer after '^-'", where)
                node = Power(node, -int(text))
            elif kind == "int":
                self.next()
                node = Power(node, int(text))
            else:
                node = Conjugation(node, self.parse_atom())
        self.depth = depth
        return node

    def parse_atom(self) -> Expr:
        kind, text, where = self.next()
        if kind == "name" and self.peek()[1] != "(":
            return NameRef(text)
        if kind == "name" and text not in ("dot", "embed", "s"):
            raise ExpressionError(f"unknown constructor {text!r}", where)
        if kind != "name" and text not in ("(", "["):
            raise ExpressionError(f"expected an atom, got {_got(text)}", where)
        depth = self.depth
        self.enter(where)
        if text == "(":
            node = self.parse_expr()
            self.expect(")")
        elif text == "[":
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("]")
            node = CommutatorExpr(left, right)
        elif text == "dot":
            node = self.parse_dot_call()
        elif text == "embed":
            node = self.parse_embed_call()
        else:
            node = self.parse_spinal_call()
        self.depth = depth
        return node

    def parse_dot_call(self) -> Expr:
        self.expect("(")
        cycles = []
        while self.peek()[1] == "(":
            self.next()
            entries = []
            while True:
                kind, text, where = self.peek()
                if kind == "int":
                    self.next()
                    entries.append(int(text))
                elif text == ",":
                    self.next()
                elif text == ")":
                    self.next()
                    break
                else:
                    raise ExpressionError("expected a letter or ')' in a cycle", where)
            if not entries:
                self.fail("empty cycle")
            cycles.append(tuple(entries))
        self.expect(")")
        if not cycles:
            self.fail("dot() needs at least one cycle")
        return DotLift(tuple(cycles))

    def parse_embed_call(self) -> Expr:
        self.expect("(")
        cone = self.parse_word()
        self.expect(",")
        inner = self.parse_expr()
        self.expect(")")
        return EmbedExpr(cone, inner)

    def parse_word(self) -> Word:
        kind, text, where = self.next()
        if kind == "name" and text == "eps":
            return Word()
        if kind != "int":
            raise ExpressionError(f"expected a word, got {_got(text)}", where)
        letters = [int(text)]
        while self.peek()[1] == ".":
            self.next()
            kind, text, where = self.next()
            if kind != "int":
                raise ExpressionError(f"expected a letter after '.', got {_got(text)}", where)
            letters.append(int(text))
        return Word(tuple(letters))

    def parse_spinal_call(self) -> Expr:
        self.expect("(")
        kind, text, where = self.next()
        if kind == "string":
            path = text[1:-1]
        elif kind in ("name", "int"):
            # Bare paths run until the closing parenthesis.
            path = text
            while self.peek()[1] not in (")", None):
                path += self.next()[1]
        else:
            raise ExpressionError(f"expected a plan file path, got {_got(text)}", where)
        self.expect(")")
        return SpinalFromFile(path)


def parse_expression(text: str) -> Expr:
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionError(
            "expression nests too deeply for the Python stack "
            f"(reached {parser.depth} levels)"
        ) from None


class EvalEnv(_Record):
    """Name bindings plus the ambient alphabet.

    ``id``, ``sigma``, ``tau`` and ``t`` are bound in every env, below its
    own bindings, and resolved on lookup: a generator is built only when
    an expression names it, and then once per alphabet.
    """

    # The ``__dict__`` holds the cached name table.
    __slots__ = ("alphabet", "bindings", "__dict__")
    __match_args__ = ("alphabet", "bindings")

    def __init__(self, alphabet: Alphabet, bindings: tuple[tuple[str, VnElement], ...]):
        self._set_fields(alphabet, bindings)

    def lookup(self, name: str) -> VnElement:
        if name in self._by_name:
            return self._by_name[name]
        if name == "id":
            return identity(self.alphabet)
        if name == "sigma":
            return sigma_dot(self.alphabet)
        if name == "tau":
            return make_tau(self.alphabet)
        if name == "t":
            return make_t(self.alphabet)
        raise ExpressionError(f"unknown name {name!r}")

    @functools.cached_property
    def _by_name(self) -> dict[str, VnElement]:
        return dict(self.bindings)


def default_env(alphabet: Alphabet, extra: dict[str, VnElement] | None = None) -> EvalEnv:
    """``id``, ``sigma``, ``tau`` and ``t``, then the ``extra`` bindings over them."""
    return EvalEnv(alphabet, tuple(sorted((extra or {}).items())))


def eval_expression(expr: Expr, env: EvalEnv) -> VnElement:
    """The element that expr names under env.

    The tables that products, powers, conjugations, commutators and
    embeddings build are charged to one running total for the whole
    evaluation, so a product of large powers cannot pass the work budget
    that bounds one ``power`` call: past it the evaluation raises
    ``BudgetExceededError``.  An embedding is charged before it is built.
    """
    return _Evaluation(env).value(expr)


class _Evaluation:
    """One evaluation: the env and the letters its built tables hold so far."""

    def __init__(self, env: EvalEnv):
        self.env = env
        self.spent = 0

    def spend(self, letters: int) -> None:
        self.spent = _spend(self.spent, letters, "evaluation")

    def charge(self, g: VnElement) -> VnElement:
        self.spend(_table_letters(g))
        return g

    def value(self, expr: Expr) -> VnElement:
        env = self.env
        if isinstance(expr, NameRef):
            return env.lookup(expr.name)
        if isinstance(expr, Product):
            out = self.value(expr.factors[0])
            for factor in expr.factors[1:]:
                out = self.charge(compose(out, self.value(factor)))
            return out
        if isinstance(expr, Power):
            return self.charge(power(self.value(expr.base), expr.exponent))
        if isinstance(expr, Conjugation):
            return self.charge(conjugate(self.value(expr.base), self.value(expr.by)))
        if isinstance(expr, CommutatorExpr):
            return self.charge(commutator(self.value(expr.left), self.value(expr.right)))
        if isinstance(expr, DotLift):
            try:
                perm = Permutation.from_cycles(expr.cycles, env.alphabet.degree)
            except ValueError as exc:
                raise ExpressionError(str(exc)) from exc
            return dot(perm, env.alphabet)
        if isinstance(expr, EmbedExpr):
            check_letters(expr.cone, env.alphabet)
            inner = self.value(expr.inner)
            # Charged before it is built: the table grows with the square of
            # the cone word's length.
            self.spend(_embed_letters(expr.cone, inner))
            return embed(expr.cone, inner)
        if isinstance(expr, SpinalFromFile):
            plan = load_alpha_plan(expr.path)
            if plan.alphabet != env.alphabet:
                raise ExpressionError(
                    f"plan degree {plan.alphabet.degree} differs from session degree "
                    f"{env.alphabet.degree}"
                )
            return make_s_alpha(plan)
        raise ExpressionError(f"cannot evaluate node {expr!r}")


_ATOMIC = (NameRef, CommutatorExpr, DotLift, EmbedExpr, SpinalFromFile)


def format_expression(expr: Expr) -> str:
    """Canonical printing; parse(format(e)) reproduces e."""
    if isinstance(expr, NameRef):
        return expr.name
    if isinstance(expr, Product):
        return " * ".join(_fmt_factor(f) for f in expr.factors)
    if isinstance(expr, Power):
        return f"{_fmt_factor(expr.base)}^{expr.exponent}"
    if isinstance(expr, Conjugation):
        by = format_expression(expr.by)
        if not isinstance(expr.by, _ATOMIC):
            by = f"({by})"
        return f"{_fmt_factor(expr.base)}^{by}"
    if isinstance(expr, CommutatorExpr):
        return f"[{format_expression(expr.left)}, {format_expression(expr.right)}]"
    if isinstance(expr, DotLift):
        cycles = "".join("(" + " ".join(str(x) for x in c) + ")" for c in expr.cycles)
        return f"dot({cycles})"
    if isinstance(expr, EmbedExpr):
        return f"embed({expr.cone}, {format_expression(expr.inner)})"
    if isinstance(expr, SpinalFromFile):
        return f's("{expr.path}")'
    raise ExpressionError(f"cannot print node {expr!r}")


def _fmt_factor(expr: Expr) -> str:
    text = format_expression(expr)
    return f"({text})" if isinstance(expr, Product) else text
