"""The four benchmark workloads: seeded inputs, the timed body, and the checks.

Each workload has three steps, run by ``worker.py`` in a fresh interpreter:

- ``setup(seed, workdir)`` builds every input from the seed (random
  elements, pair lists, CLI scripts, element/plan/generator files) and is
  timed as set-up, never as part of the measured work;
- ``run(state)`` is the timed body.  It reaches the program only through
  module attributes (``element.compose``, ``verify.run_suites``, ...) so
  the tracer's rebinding sees every call; it returns the operation count,
  one latency per call, and the raw outputs.  A call is one client call
  (a product, a CLI command) where those are short; the two workloads made
  of a few long calls are cut into steps by ``tracer.StepClock`` instead;
- ``check(state, out, golden)`` runs after the timing and returns
  ``(digests, failed, notes)``.  It compares digests with the golden ones
  recorded in ``golden.json`` and runs the independent checks.

The program only ever receives generated inputs; the seed itself is never
passed in, except as the verify grid's own ``seed`` argument, which is how
that workload's random elements are chosen.

Inputs come from ``seed % INPUT_SEEDS``: golden digests exist for each of
those input sets (``record_golden.py`` writes them).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import random
import string
import time

from tracer import StepClock

INPUT_SEEDS = 16

clock = time.perf_counter


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _golden_mismatch(golden: dict | None, key: str, value: str) -> bool:
    """True when a golden digest exists for key and differs from value."""
    if golden is None:
        return False
    return golden.get(key) != value


# ---------------------------------------------------------------------------
# verify-grid: the CLI's default verification grid, one run_suites call per suite


class VerifyGrid:
    name = "verify-grid"
    degrees = (2, 3, 5)
    kmax = 5
    count = 200
    expected = {"total": 3175, "PASS": 3151, "SKIP": 24, "FAIL": 0}
    # The grid is eight calls of 1 ms to 2 s.  Every check returns from one
    # of these functions, so the body is cut into 3,774 steps, about one per
    # check: eq2's first step also makes its random elements, and each of
    # abelianization's 600 commutators is a step of its own.
    steps = (
        "verify.verify_translation",
        "verify.verify_s_alpha_conjugation",
        "verify.verify_commutator_trick",
        "verify.verify_isolation",
        "verify.verify_involution_suite",
        "verify.in_maximal_subgroup",
        "verify.enumerate_en_group",
        "verify.abelianization_image",
    )

    def setup(self, seed: int, workdir: str):
        from vncalc import verify

        return {"seed": seed % INPUT_SEEDS, "suites": tuple(verify.SUITE_BUILDERS)}

    def run(self, state):
        from vncalc import verify

        reports = {}
        with StepClock(self.steps) as steps:
            t0 = clock()
            for name in state["suites"]:
                reports[name] = verify.run_suites(
                    name, self.degrees, kmax=self.kmax, count=self.count, seed=state["seed"]
                )
            t1 = clock()
        ops = sum(len(r) for r in reports.values())
        return {"ops": ops, "calls": steps.steps(t0, t1), "reports": reports}

    def check(self, state, out, golden):
        digests, failed, notes = {}, 0, []
        tally = {"total": 0, "PASS": 0, "SKIP": 0, "FAIL": 0}
        for name, reports in out["reports"].items():
            lines = [r.line() for r in reports]
            digests[name] = digest("\n".join(lines))
            fails = sum(1 for r in reports if r.failed)
            tally["total"] += len(reports)
            tally["FAIL"] += fails
            tally["PASS"] += sum(1 for r in reports if r.passed)
            tally["SKIP"] += len(reports) - fails - sum(1 for r in reports if r.passed)
            if _golden_mismatch(golden, name, digests[name]):
                notes.append(f"suite {name}: verify lines differ from the golden digest")
                failed += len(reports)
            elif fails:
                notes.append(f"suite {name}: {fails} FAIL verdicts")
                failed += fails
        if tally != self.expected:
            notes.append(f"verdict counts {tally} != expected {self.expected}")
            failed = max(failed, 1)
        return digests, failed, notes


# ---------------------------------------------------------------------------
# kernel-products: compose seeded pairs of 40-expansion elements at n = 2, 3, 5


class KernelProducts:
    name = "kernel-products"
    degrees = (2, 3, 5)
    expansions = 40
    pool = 12  # random elements per degree
    # Ordered pairs of distinct pool elements, per degree.  The 161-row
    # tables at n=5 are the case this workload exists for; with them in the
    # majority, the median and the 95th percentile product both fall inside
    # the n=5 cost range rather than in a gap between two degrees' ranges,
    # where a percentile jumps with the host's speed.
    pairs = {2: 40, 3: 40, 5: 120}
    sampled = 4  # products per degree replayed on words by apply_word
    words_per_sample = 3

    def setup(self, seed: int, workdir: str):
        from vncalc.element import random_element
        from vncalc.words import Alphabet

        rng = random.Random(f"{self.name}:{seed % INPUT_SEEDS}")
        schedule = []
        for n in self.degrees:
            alphabet = Alphabet(n)
            pool = [
                random_element(alphabet, rng, expansions=self.expansions, max_depth=None)
                for _ in range(self.pool)
            ]
            ordered = [(i, j) for i in range(self.pool) for j in range(self.pool) if i != j]
            for i, j in rng.sample(ordered, self.pairs[n]):
                schedule.append((n, pool[i], pool[j]))
        rng.shuffle(schedule)
        return {"schedule": schedule, "rng_seed": f"{self.name}:check:{seed % INPUT_SEEDS}"}

    def run(self, state):
        from vncalc import element

        calls, products = [], []
        for _, g, h in state["schedule"]:
            t0 = clock()
            p = element.compose(g, h)
            calls.append(clock() - t0)
            products.append(p)
        return {"ops": len(products), "calls": calls, "products": products}

    def check(self, state, out, golden):
        from vncalc.element import apply_word, format_element
        from vncalc.words import Word

        digests, failed, notes = {}, 0, []
        by_degree: dict[int, list] = {n: [] for n in self.degrees}
        for (n, g, h), p in zip(state["schedule"], out["products"]):
            by_degree[n].append((g, h, p))
        rng = random.Random(state["rng_seed"])
        for n, rows in by_degree.items():
            key = f"n={n}"
            digests[key] = digest("\n\n".join(format_element(p) for _, _, p in rows))
            if _golden_mismatch(golden, key, digests[key]):
                notes.append(f"{key}: product tables differ from the golden digest")
                failed += len(rows)
                continue
            for g, h, p in rng.sample(rows, self.sampled):
                # Deep enough that h's domain, then g's domain, is reached.
                length = max(
                    p.domain.max_depth(), h.domain.max_depth() + g.domain.max_depth()
                )
                for _ in range(self.words_per_sample):
                    w = Word(tuple(rng.randint(1, n) for _ in range(length)))
                    if apply_word(p, w) != apply_word(g, apply_word(h, w)):
                        notes.append(f"{key}: (g*h)(w) != g(h(w)) for w={w}")
                        failed += 1
                        break
        return digests, failed, notes


# ---------------------------------------------------------------------------
# ball-roundtrip: grow_ball over {sigma, tau, s} at n=2, save_ball, load_ball


def _generator_names(rng: random.Random, count: int) -> list[str]:
    names: list[str] = []
    while len(names) < count:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 6)))
        if name not in names:
            names.append(name)
    return names


class BallRoundTrip:
    name = "ball-roundtrip"
    radius = 12
    replayed = 40  # witness words replayed through evaluate_word
    # Grow, save and load are three calls of 0.2 to 3 s; the body is cut
    # into about 21,000 steps, one per candidate product, written element
    # and parsed element.
    steps = ("element.compose", "element.format_element", "element.parse_element")

    def setup(self, seed: int, workdir: str):
        from vncalc.constructions import (
            default_base,
            make_s_alpha,
            make_tau,
            plan_alpha,
            sigma_dot,
        )
        from vncalc.element import format_element
        from vncalc.search import GeneratorSet
        from vncalc.words import Alphabet

        # The generator set of acceptance criterion 8; the seed picks the
        # names, and with them the token order of the breadth-first search.
        rng = random.Random(f"{self.name}:{seed % INPUT_SEEDS}")
        a2 = Alphabet(2)
        spinal = make_s_alpha(plan_alpha(default_base(a2, 1)))
        elements = [sigma_dot(a2), make_tau(a2), spinal]
        names = _generator_names(rng, len(elements))
        manifest = []
        for name, g in zip(names, elements):
            path = os.path.join(workdir, f"{name}.elt")
            with open(path, "w") as fh:
                fh.write(format_element(g) + "\n")
            manifest.append((name, f"{name}.elt"))
        gens = GeneratorSet.from_dict(dict(zip(names, elements)))
        return {
            "gens": gens,
            "manifest": tuple(manifest),
            "path": os.path.join(workdir, "ball.txt"),
            "rng_seed": f"{self.name}:check:{seed % INPUT_SEEDS}",
        }

    def run(self, state):
        from vncalc import search

        with StepClock(self.steps) as steps:
            t0 = clock()
            ball = search.grow_ball(
                state["gens"], self.radius, workers=1, manifest=state["manifest"]
            )
            search.save_ball(ball, state["path"])
            loaded = search.load_ball(state["path"])
            t1 = clock()
        return {"ops": len(ball), "calls": steps.steps(t0, t1), "ball": ball, "loaded": loaded}

    def check(self, state, out, golden):
        from vncalc.search import evaluate_word

        ball, loaded = out["ball"], out["loaded"]
        with open(state["path"], "rb") as fh:
            digests = {"ball-file": hashlib.sha256(fh.read()).hexdigest()[:16]}
        failed, notes = 0, []
        if _golden_mismatch(golden, "ball-file", digests["ball-file"]):
            notes.append("ball file bytes differ from the golden digest")
            failed = len(ball)
        # save_ball writes the manifest sorted by name, so that is the order
        # a lossless load gives back; everything else must match exactly.
        written = dataclasses.replace(ball, manifest=tuple(sorted(ball.manifest)))
        if loaded != written:
            notes.append("load_ball did not reproduce the grown ball")
            failed = len(ball)
        if ball.truncated:
            notes.append("ball unexpectedly truncated")
            failed = max(failed, 1)
        rng = random.Random(state["rng_seed"])
        for word, g in rng.sample(list(loaded.entries), self.replayed):
            if evaluate_word(state["gens"], word) != g:
                notes.append(f"witness {' '.join(word)} does not evaluate to its element")
                failed += 1
        return digests, min(failed, len(ball)), notes


# ---------------------------------------------------------------------------
# cli-session: in-process vncalc.cli.main calls with stdout captured


class _ExpressionMaker:
    """Seeded expressions over products, ^k, ^h and [g, h] at one degree."""

    def __init__(self, rng: random.Random, n: int):
        self.rng, self.n = rng, n

    def word(self, max_len: int) -> str:
        k = self.rng.randint(1, max_len)
        return ".".join(str(self.rng.randint(1, self.n)) for _ in range(k))

    def atom(self, kind: str | None = None) -> str:
        """A generator; ``kind`` (e.g. "t", "dot", "embed:tau") fixes which."""
        rng, n = self.rng, self.n
        kind = kind or rng.choice(["sigma", "tau", "t", "t", "dot", "embed"])
        if kind == "dot":
            size = rng.randint(2, min(3, n))
            cycle = rng.sample(range(1, n + 1), size)
            return "dot((" + " ".join(map(str, cycle)) + "))"
        if kind.startswith("embed"):
            inner = kind.partition(":")[2] or rng.choice(["sigma", "tau", "t"])
            return f"embed({self.word(2)}, {inner})"
        return kind

    def term(self) -> str:
        rng = self.rng
        kind = rng.choice(["atom", "power", "power", "conj", "comm"])
        if kind == "power":
            return f"{self.atom()}^{rng.choice([-3, -2, -1, 2, 3])}"
        if kind == "conj":
            return f"{self.atom()}^{self.atom()}"
        if kind == "comm":
            return f"[{self.atom()}, {self.atom()}]"
        return self.atom()

    def expr(self) -> str:
        # Always two terms: with one to three, the share of three-term
        # products moved the session's 95th percentile between input sets.
        return " * ".join(self.term() for _ in range(2))


class CliSession:
    name = "cli-session"
    degrees = (2, 3, 5)
    # The session's command kinds, 30 calls of each, split evenly over the
    # degrees (sign, which needs an odd degree, over 3 and 5); the seed picks
    # their arguments and order.  The mix is a chosen one, not measured
    # traffic: nothing records how the CLI is used, so every kind gets the
    # same share.  The session's cost must not depend on the input set, or
    # runs with different seeds would differ for that reason alone: over the
    # 16 input sets its Python call count spreads 0.02 of its median.
    kinds = ("eval", "apply", "point", "order", "support", "sign", "volume", "dot", "canon", "make-s")
    calls_per_kind = 30
    # apply needs a word at least as deep as the element's table; 8 letters
    # are enough for every apply call over the 16 input sets.
    apply_word_length = 8
    # order's cost spans two orders of magnitude: on an element of infinite
    # order it composes up to the bound, with tables that grow at each
    # power.  With a random term per query and a random degree per command,
    # the session's call count spread 0.18 over the input sets (max/min
    # 1.37).  So each degree gets the same ten order queries, one generator
    # each, by kind; the seed picks the cycles and the embedding words.  The
    # bound is 8, not the CLI's 64: at 64 a single order call took up to 1 s
    # and order took about three quarters of the session.
    order_atoms = ("sigma", "tau", "t", "t", "dot", "dot", "embed:sigma", "embed:tau", "embed:t", "t")
    order_bound = 8

    def _write_inputs(self, rng: random.Random, workdir: str):
        """Element files (some non-canonical) and one plan file per degree."""
        from vncalc.constructions import (
            embed,
            make_tau,
            plan_alpha,
            save_alpha_plan,
            sigma_dot,
        )
        from vncalc.element import format_element, random_element
        from vncalc.words import Alphabet, Word

        elements, plans = {}, {}
        for n in self.degrees:
            alphabet = Alphabet(n)
            elements[n] = []
            for i in range(5):
                g = random_element(alphabet, rng, expansions=rng.randint(3, 10), max_depth=None)
                rows = list(g.pairs())
                # Split one row into its children, so canon has a caret to merge.
                w, v = rows.pop(rng.randrange(len(rows)))
                rows += [(w.child(x), v.child(x)) for x in alphabet.letters]
                rows.sort()
                path = os.path.join(workdir, f"e{n}_{i}.elt")
                with open(path, "w") as fh:
                    fh.write(f"vn {n}\n" + "".join(f"{a} -> {b}\n" for a, b in rows))
                elements[n].append(path)
            sig, tau = sigma_dot(alphabet), make_tau(alphabet)
            pool = [sig, tau, embed(Word((2,)), sig), embed(Word((1,)), tau)]
            base = rng.sample(pool, 2)
            plan = plan_alpha(base)
            entry_paths = {}
            for k, g in zip(plan.support.sorted_members, base):
                name = f"b{n}_{k}.elt"
                with open(os.path.join(workdir, name), "w") as fh:
                    fh.write(format_element(g) + "\n")
                entry_paths[k] = name
            plans[n] = os.path.join(workdir, f"plan{n}.alpha")
            save_alpha_plan(plan, plans[n], entry_paths)
        return elements, plans

    def setup(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}:{seed % INPUT_SEEDS}")
        elements, plans = self._write_inputs(rng, workdir)
        calls = []
        for kind in self.kinds:
            degrees = (3, 5) if kind == "sign" else self.degrees  # sign needs odd n
            calls += [(kind, degrees[i % len(degrees)]) for i in range(self.calls_per_kind)]
        rng.shuffle(calls)
        order_atoms = {n: list(self.order_atoms) for n in self.degrees}
        script = []
        for kind, n in calls:
            make = _ExpressionMaker(rng, n)
            if kind == "order":
                atom = make.atom(order_atoms[n].pop())
                script.append(["order", "-n", str(n), "-e", atom, "--bound", str(self.order_bound)])
            elif kind == "canon":
                script.append(["canon", rng.choice(elements[n])])
            elif kind == "make-s":
                script.append(["make", "s", "-n", str(n), "--alpha", plans[n]])
            else:
                argv = [kind, "-n", str(n), "-e", make.expr()]
                if kind == "apply":
                    argv += ["-w", ".".join(str(rng.randint(1, n)) for _ in range(self.apply_word_length))]
                elif kind == "point":
                    argv += ["-p", f"{make.word(3) if rng.random() < 0.7 else 'eps'}:{make.word(3)}"]
                script.append(argv)
        return {"script": script}

    def run(self, state):
        from vncalc import cli

        calls, results = [], []
        for argv in state["script"]:
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            calls.append(clock() - t0)
            results.append((code, out.getvalue(), err.getvalue()))
        return {"ops": len(results), "calls": calls, "results": results}

    def check(self, state, out, golden):
        failed, notes = 0, []
        for argv, (code, _, err) in zip(state["script"], out["results"]):
            if code != 0:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"exit {code} from {' '.join(argv[:5])}: {err.strip()[:200]}")
        text = "\x00".join(stdout for _, stdout, _ in out["results"])
        digests = {"stdout": digest(text)}
        if _golden_mismatch(golden, "stdout", digests["stdout"]):
            notes.append("command output differs from the golden digest")
            failed = len(out["results"])
        return digests, failed, notes


WORKLOADS = {w.name: w for w in (VerifyGrid(), KernelProducts(), BallRoundTrip(), CliSession())}
