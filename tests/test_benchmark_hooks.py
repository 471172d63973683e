"""The benchmark's outside-in tracer still finds the package's hook points.

``perfbench/tracer.py`` wraps the public functions of every module,
``Word.__post_init__`` and ``PartitionSet.from_words`` by name, and its
``StepClock`` stamps returns from named functions.  It wraps only plain
functions, so the per-process caches sit behind plain public functions.
Its counters and the workloads' checks read elements through ``images``
and ``domain``, which an element builds on demand from its letter rows.
The benchmark's own self-tests are not part of this suite, so this test
catches a refactor that moves one of those hooks, and its golden-digest
test runs each workload once on input seed 0 to catch a change of output.
The tracer and workload sources are only read, never imported as package
modules, so nothing is written next to them.
"""

import json
import random
import sys
import types
from pathlib import Path

import pytest
from conftest import spinal_gens

import vncalc.cli as cli
import vncalc.constructions as constructions
import vncalc.element as element
import vncalc.expressions as expressions
import vncalc.search as search
import vncalc.verify as verify
import vncalc.words as words
from vncalc.words import Alphabet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_source(path: Path, name: str) -> types.ModuleType:
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def load_tracer() -> types.ModuleType:
    return load_source(TRACER, "perfbench_tracer")


def test_benchmark_tracer_records_spans_and_restores_hooks():
    tracer_module = load_tracer()
    a2 = Alphabet(2)
    g = element.random_element(a2, random.Random(0), 8, max_depth=None)
    text = element.format_element(g)
    originals = (
        element.compose,
        element.parse_element,
        words.Word.__dict__["__post_init__"],
        words.PartitionSet.__dict__["from_words"],
    )

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        product = element.compose(g, g)
        parsed = element.parse_element(text)
        domain = words.PartitionSet.from_words(list(g.domain.words), a2)
        words.Word((1, 2))
    finally:
        tracer.uninstall()

    assert parsed == g
    assert domain == g.domain
    stats = tracer.summarize()
    for name in ("element.compose", "element.parse_element", "words.from_words"):
        assert stats[name]["calls"] >= 1, name
    assert tracer.counters["words.word_new.calls"] >= 1
    assert tracer.counters["element.compose.rows_out"] == len(product.images)
    assert originals == (
        element.compose,
        element.parse_element,
        words.Word.__dict__["__post_init__"],
        words.PartitionSet.__dict__["from_words"],
    )

    with tracer_module.StepClock(("element.compose", "element.parse_element")) as clock:
        element.compose(g, g)
        element.parse_element(text)
    assert len(clock.ends) == 2
    assert element.compose is originals[0]


def test_ball_load_is_one_step_per_element(tmp_path):
    """ball-roundtrip's step clock cuts ``load_ball`` at each return from
    ``parse_element``, so the load must call it once per element block."""
    ball = search.grow_ball(spinal_gens(), 6)
    path = str(tmp_path / "ball.txt")
    search.save_ball(ball, path)
    with load_tracer().StepClock(("element.parse_element",)) as clock:
        loaded = search.load_ball(path)
    assert loaded == ball
    assert len(clock.ends) == len(ball)


def test_ball_grow_is_one_step_per_candidate():
    """ball-roundtrip's step clock cuts ``grow_ball`` at each return from
    ``compose``, so the growth must call it once per composed candidate:
    every token after every word shorter than the radius, except the one
    token that undoes each non-empty word's last token."""
    gens, radius = spinal_gens(), 6
    with load_tracer().StepClock(("element.compose",)) as clock:
        ball = search.grow_ball(gens, radius)
    assert not ball.truncated
    words = ball.sizes[radius - 1]
    assert len(clock.ends) == words * len(gens.tokens()) - (words - 1)


SUITE_CHECKS = {
    "eq2": ("verify.verify_translation", 20),
    "eq3": ("verify.verify_s_alpha_conjugation", 18),
    "trick": ("verify.verify_commutator_trick", 18),
    "isolation": ("verify.verify_isolation", 8),
}


@pytest.mark.parametrize("which", list(SUITE_CHECKS))
def test_plan_suites_are_one_step_per_check(which):
    """verify-grid's step clock cuts the eq2, eq3, trick and isolation
    suites at each return from their checks, so each suite must call its
    check once per report, and look it up by module name when it runs: a
    copy bound at import would escape the clock, and a suite that built
    reports without its check would merge the steps."""
    check, count = SUITE_CHECKS[which]
    with load_tracer().StepClock((check,)) as clock:
        reports = verify.run_suites(which, (2, 3), kmax=2, count=3)
    assert len(reports) == count
    assert len(clock.ends) == len(reports)


def test_benchmark_tracer_still_finds_the_cached_entry_points():
    public = load_tracer()._public_functions
    found = {
        f"{module.__name__}.{attr}"
        for module in (cli, constructions, expressions)
        for attr, _ in public(module)
    }
    for name in (
        "vncalc.cli.build_parser",
        "vncalc.cli.main",
        "vncalc.constructions.sigma_dot",
        "vncalc.constructions.make_tau",
        "vncalc.constructions.make_t",
        "vncalc.constructions.default_base",
        "vncalc.expressions.default_env",
    ):
        assert name in found, name


def test_benchmark_row_counters_match_the_stored_rows():
    tracer_module = load_tracer()
    a3 = Alphabet(3)
    rng = random.Random(1)
    g = element.random_element(a3, rng, 30, max_depth=None)
    h = element.random_element(a3, rng, 12, max_depth=None)
    # One row of g split into its three children, so one merge is left.
    rows = list(g.pairs())
    w, v = rows.pop()
    rows += [(w.child(i), v.child(i)) for i in a3.letters]

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        product = element.compose(g, h)
        reduced = element.canonicalize(rows, a3)
    finally:
        tracer.uninstall()

    assert reduced == g
    counters = tracer.counters
    assert counters["element.compose.rows_in"] == len(g.dom) + len(h.dom)
    assert counters["element.compose.pair_work"] == len(g.dom) * len(h.dom)
    assert counters["element.compose.rows_out"] == len(product.dom)
    assert counters["element.canonicalize.merges"] == 1
    assert counters["element.canonicalize.peak_rows"] == len(g.dom) + 2
    # The accessors the workloads' checks use.
    for p in (g, h, product):
        assert len(p.images) == len(p.domain) == len(p.dom)
        assert p.domain.max_depth() == max(map(len, p.dom))


@pytest.mark.parametrize(
    "name", ["verify-grid", "kernel-products", "ball-roundtrip", "cli-session"]
)
def test_benchmark_workloads_match_their_golden_digests(monkeypatch, tmp_path, name):
    """Each workload's output for input seed 0 matches ``golden.json``: the
    verify lines, product tables, ball file bytes and CLI output are
    byte-identical to the recorded ones, and the workload's own checks pass."""
    # The workloads import the tracer as a top-level module, as the
    # benchmark's worker runs them.
    monkeypatch.setitem(sys.modules, "tracer", load_tracer())
    workload = load_source(PERFBENCH / "workloads.py", "perfbench_workloads").WORKLOADS[name]
    golden = json.loads((PERFBENCH / "golden.json").read_text())[name]["0"]
    state = workload.setup(0, str(tmp_path))
    out = workload.run(state)
    digests, failed, notes = workload.check(state, out, golden)
    assert (failed, notes) == (0, [])
