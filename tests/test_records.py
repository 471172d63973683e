"""The record classes keep the contract of the frozen dataclasses they were.

Every record class of the package is checked against a reference class
that ``dataclasses.make_dataclass`` generates from the record's field
names, with the ``frozen`` and ``order`` flags the record had as a
dataclass.  On sample instances, ``==``, ``!=``, ``hash``, ``repr`` and,
for the ordered records, the four comparisons must give what the
reference gives on the same field values.  The reference is generated,
not written out, so it cannot drift with the classes.  ``search.Ball``
is still a dataclass and is not a record.
"""

import copy
import dataclasses
import inspect
import itertools
import operator
import pickle
import random

import pytest

from conftest import W, spinal_gens
from vncalc import constructions, element, expressions, search, verify, words
from vncalc.constructions import (
    Permutation,
    SidonSet,
    default_base,
    embed,
    make_t,
    make_tau,
    plan_alpha,
    sidon_generate,
    sigma_dot,
)
from vncalc.element import identity, random_element, sign_refinement_probe, support
from vncalc.expressions import default_env, parse_expression
from vncalc.search import GeneratorSet
from vncalc.verify import VerificationReport, enumerate_en_group, run_suites
from vncalc.words import Alphabet, PartitionSet, RationalPoint, Word

A2, A3 = Alphabet(2), Alphabet(3)

# The records that were dataclasses with order=True.
ORDERED = {"Alphabet", "Word", "RationalPoint"}

MODULES = (words, element, constructions, search, verify, expressions)
RECORDS = sorted(
    {
        cls
        for module in MODULES
        for cls in vars(module).values()
        if isinstance(cls, type)
        and issubclass(cls, words._Record)
        and cls.__module__ == module.__name__
        and cls.__match_args__
    },
    key=operator.attrgetter("__qualname__"),
)


def expression_nodes(text):
    """Every node of a parsed expression, outermost first."""
    out, todo = [], [parse_expression(text)]
    while todo:
        node = todo.pop()
        out.append(node)
        for name in node.__match_args__:
            value = getattr(node, name)
            values = value if isinstance(value, tuple) else (value,)
            todo.extend(v for v in values if isinstance(v, expressions.Expr))
    return out


def samples():
    """Instances of every record class, with equal pairs built apart."""
    rng = random.Random(5)
    sig2, tau2 = sigma_dot(A2), make_tau(A2)
    elements = [
        identity(A2),
        sig2,
        tau2,
        make_t(A2),
        make_t(A3),
        *(random_element(A3, rng, expansions=6) for _ in range(3)),
    ]
    # An element equal to sigma, but of tuples built apart from its own.
    elements.append(element.VnElement(Alphabet(2), tuple(map(tuple, sig2.dom)), tuple(sig2.img)))
    plans = [plan_alpha(default_base(A2, 2)), plan_alpha(default_base(A3, 2))]
    reports = [r for name in ("eq3", "involutions") for r in run_suites(name, (2,), 2, 2, 0)]
    return [
        Alphabet(2),
        A2,
        A3,
        Word(),
        W("1.2"),
        Word((1, 2)),
        W("2"),
        W("1.1.2"),
        RationalPoint.parse("1:2"),
        RationalPoint.parse("1:2"),
        RationalPoint.parse("eps:1.2"),
        RationalPoint.parse("2.2:1"),
        PartitionSet.from_words([W("1"), W("2")], A2),
        PartitionSet(A2, (W("1"), W("2"))),
        PartitionSet.from_words([W("1.1"), W("1.2"), W("2")], A2),
        *elements,
        *support(make_t(A2)),
        *support(tau2),
        *support(tau2),
        sign_refinement_probe(sig2),
        sign_refinement_probe(sig2),
        sign_refinement_probe(tau2),
        Permutation((2, 1)),
        Permutation.from_cycles([(1, 2)], 2),
        Permutation((2, 3, 1)),
        SidonSet(frozenset({1, 2, 4})),
        sidon_generate(3),
        SidonSet(frozenset({3, 5})),
        *plans,
        plan_alpha(default_base(A2, 2)),
        spinal_gens(),
        spinal_gens(),
        GeneratorSet.from_dict({"sigma": sig2}),
        *reports,
        VerificationReport("eq2", "n=2 k=1", "FAIL", lhs=sig2, rhs=tau2),
        VerificationReport("eq2", "n=2 k=1", "FAIL", sig2, tau2, None),
        enumerate_en_group([sig2]),
        enumerate_en_group([sig2]),
        enumerate_en_group([sig2, embed(W("1"), sig2)]),
        *expression_nodes("[sigma, t^-2] * embed(1.2, tau^t) * dot((1,2)(3)) * s(p.alpha)"),
        *expression_nodes("[sigma, t^-2] * embed(1.2, tau^t) * dot((1 2)(3)) * s(p.alpha)"),
        *expression_nodes("[tau, t^3] * embed(2, sigma^tau) * dot((1,3)) * s(q.alpha) * id"),
        default_env(A2),
        default_env(A2),
        default_env(A3, {"x": make_t(A3)}),
    ]


SAMPLES = samples()


def reference(cls):
    return dataclasses.make_dataclass(
        cls.__name__, cls.__match_args__, frozen=True, order=cls.__name__ in ORDERED
    )


def as_reference(obj, ref):
    return ref(*(getattr(obj, name) for name in obj.__match_args__))


def test_every_record_class_has_samples():
    """The records are the classes that were dataclasses, but ``Ball``."""
    names = [cls.__name__ for cls in RECORDS]
    assert len(names) == 22
    assert {type(obj) for obj in SAMPLES} == set(RECORDS)
    for cls in RECORDS:
        objs = [obj for obj in SAMPLES if type(obj) is cls]
        pairs = [(a, b) for a, b in itertools.product(objs, repeat=2) if a is not b]
        # Each class has equal instances built apart, and unequal ones.
        assert any(a == b for a, b in pairs) and any(a != b for a, b in pairs), cls
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)
    assert dataclasses.is_dataclass(search.Ball)


@pytest.mark.parametrize("cls", RECORDS, ids=operator.attrgetter("__name__"))
def test_a_record_acts_as_its_reference_dataclass(cls):
    ref = reference(cls)
    objs = [obj for obj in SAMPLES if type(obj) is cls]
    refs = [as_reference(obj, ref) for obj in objs]
    # The constructor takes the fields, in order, as the dataclass's did.
    assert tuple(inspect.signature(cls).parameters) == cls.__match_args__
    for obj, r in zip(objs, refs):
        assert repr(obj) == repr(r)
        assert hash(obj) == hash(r)
        assert obj == obj
        assert (obj == r, obj != r) == (False, True)
        assert obj.__eq__(r) is NotImplemented
    ops = [operator.eq, operator.ne]
    if cls.__name__ in ORDERED:
        ops += [operator.lt, operator.le, operator.gt, operator.ge]
    for (a, ra), (b, rb) in itertools.product(zip(objs, refs), repeat=2):
        for op in ops:
            assert op(a, b) == op(ra, rb), (op, a, b)
    # A record never orders against a record of another class; one that is
    # not ordered never orders at all.
    other = A2 if cls is not Alphabet else W("1")
    for a, r in zip(objs, refs):
        with pytest.raises(TypeError):
            a < other
        if cls.__name__ not in ORDERED:
            with pytest.raises(TypeError):
                r < r
            with pytest.raises(TypeError):
                a < a


@pytest.mark.parametrize("cls", RECORDS, ids=operator.attrgetter("__name__"))
def test_a_record_is_frozen_and_copies(cls):
    obj = next(obj for obj in SAMPLES if type(obj) is cls)
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls
        assert twin == obj and hash(twin) == hash(obj)


def test_record_defaults_are_the_dataclass_defaults():
    assert Word() == Word(())
    assert support(identity(A2))[0].fixed_point is None
    report = VerificationReport("eq2", "n=2", "PASS")
    assert (report.lhs, report.rhs, report.reason) == (None, None, None)


def test_cached_tables_live_beside_the_fields():
    """``GeneratorSet`` and ``EvalEnv`` cache a table in their ``__dict__``,
    which takes no part in equality."""
    gens, fresh = spinal_gens(), spinal_gens()
    gens.tokens()
    assert "_token_table" in vars(gens) and "_token_table" not in vars(fresh)
    assert gens == fresh and hash(gens) == hash(fresh)
    env = default_env(A2, {"x": sigma_dot(A2)})
    assert env.lookup("x") == sigma_dot(A2)
    assert "_by_name" in vars(env)
