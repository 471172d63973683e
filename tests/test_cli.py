"""End-to-end checks of the command-line surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vncalc
from vncalc import cli, constructions, element, expressions, verify
from vncalc.cli import build_parser, main
from vncalc.constructions import (
    default_base,
    make_s_alpha,
    make_tau,
    plan_alpha,
    save_alpha_plan,
    sigma_dot,
)
from vncalc.element import format_element, parse_element
from vncalc.verify import SUITE_ALIASES, SUITE_BUILDERS
from vncalc.words import Alphabet

A2 = Alphabet(2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_prints_element(capsys):
    code, out, _ = run(capsys, "eval", "-n", "5", "-e", "dot((1 2))")
    assert code == 0
    assert out.splitlines()[0] == "vn 5"
    assert "1 -> 2" in out


def test_canon_reduces_file(tmp_path, capsys):
    raw = tmp_path / "raw.elt"
    raw.write_text("vn 2\n1.1 -> 2.1\n1.2 -> 2.2\n2 -> 1\n")
    code, out, _ = run(capsys, "canon", str(raw))
    assert code == 0
    assert out == "vn 2\n1 -> 2\n2 -> 1\n"


def test_apply_word(capsys):
    code, out, _ = run(capsys, "apply", "-n", "5", "-e", "tau", "-w", "1.2.4")
    assert code == 0
    assert out.strip() == "3.4"


def test_point_action(capsys):
    code, out, _ = run(capsys, "point", "-n", "2", "-e", "sigma", "-p", "eps:1")
    assert code == 0
    assert out.strip() == "2:1"


def test_point_without_a_colon_is_one_error_line(capsys):
    code, out, err = run(capsys, "point", "-n", "2", "-e", "sigma", "-p", "1.2")
    assert (code, out) == (1, "")
    assert err == "error: point syntax is '<pre>:<per>', got '1.2'\n"


def test_order_exceeds_bound(capsys):
    code, out, _ = run(capsys, "order", "-n", "2", "-e", "sigma*tau", "--bound", "32")
    assert code == 0
    assert out.strip() == "ExceedsBound(32)"


def test_order_finite(capsys):
    code, out, _ = run(capsys, "order", "-n", "2", "-e", "sigma", "--bound", "4")
    assert code == 0
    assert out.strip() == "Finite(2)"


def test_sign_even_degree_errors(capsys):
    code, out, err = run(capsys, "sign", "-n", "2", "-e", "sigma")
    assert code == 1
    assert "sign undefined" in err


def test_sign_odd_degree(capsys):
    code, out, _ = run(capsys, "sign", "-n", "3", "-e", "sigma")
    assert code == 0
    assert out.strip() == "-1"


def test_volume_and_support(capsys):
    code, out, _ = run(capsys, "volume", "-n", "2", "-e", "tau")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "support", "-n", "2", "-e", "sigma*tau")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["1.1 Boundary(eps:1)", "1.2 Moved", "2 Boundary(2:1)"]


def test_make_generators(capsys):
    """``make <name>`` prints what ``eval -e <name>`` prints."""
    for which, n in [("sigma", "2"), ("tau", "5"), ("t", "3")]:
        code, out, _ = run(capsys, "make", which, "-n", n)
        assert code == 0
        assert out.startswith(f"vn {n}")
        assert run(capsys, "eval", "-n", n, "-e", which) == (0, out, "")


def test_eval_builds_only_the_generators_it_names(capsys):
    """``id`` at a degree of a million prints at once: ``sigma``, ``tau``
    and ``t`` are built only when an expression names them."""
    caches = (constructions._sigma_dot, constructions._make_tau, constructions._make_t)
    before = [cache.cache_info().currsize for cache in caches]
    code, out, _ = run(capsys, "eval", "-n", "1000000", "-e", "id")
    assert (code, out) == (0, "vn 1000000\neps -> eps\n")
    assert [cache.cache_info().currsize for cache in caches] == before


def test_make_s_requires_alpha(capsys):
    code, _, err = run(capsys, "make", "s", "-n", "2")
    assert code == 1
    assert "--alpha" in err


def test_sidon_strategies(capsys):
    code, out, _ = run(capsys, "sidon", "--count", "3", "--strategy", "powers-of-two")
    assert code == 0 and out.strip() == "2 4 8"
    code, out, _ = run(capsys, "sidon", "--count", "4", "--strategy", "greedy")
    assert code == 0 and out.strip() == "1 2 4 8"


def test_plan_and_make_s(tmp_path, capsys):
    base = default_base(A2, 2)
    paths = []
    for i, g in enumerate(base):
        p = tmp_path / f"b{i}.elt"
        p.write_text(format_element(g) + "\n")
        paths.append(str(p))
    plan_path = tmp_path / "plan.alpha"
    code, _, _ = run(capsys, "plan", "--base", *paths, "-o", str(plan_path))
    assert code == 0
    assert plan_path.read_text().splitlines()[0] == "alpha 2 5"
    # Printed, written with -o and written by save_alpha_plan: the same bytes.
    code, printed, _ = run(capsys, "plan", "--base", *paths)
    assert code == 0
    saved = tmp_path / "saved.alpha"
    plan = plan_alpha(base)
    save_alpha_plan(plan, str(saved), dict(zip(plan.support.sorted_members, paths)))
    assert printed.encode() == plan_path.read_bytes() == saved.read_bytes()
    code, out, _ = run(capsys, "make", "s", "-n", "2", "--alpha", str(plan_path))
    assert code == 0
    assert parse_element(out) == make_s_alpha(plan)
    assert run(capsys, "eval", "-n", "2", "-e", f's("{plan_path}")') == (0, out, "")


def test_plan_written_into_a_directory_lists_paths_from_there(tmp_path, capsys, monkeypatch):
    """``plan -o sub/p.alpha`` from relative base paths writes each entry
    relative to ``sub``, where ``make s`` reads it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "elts").mkdir()
    base = default_base(A2, 2)
    paths = [os.path.join("sub", "b0.elt"), os.path.join("elts", "b1.elt")]
    for path, g in zip(paths, base):
        (tmp_path / path).write_text(format_element(g) + "\n")
    plan_path = os.path.join("sub", "p.alpha")
    assert run(capsys, "plan", "--base", *paths, "-o", plan_path)[0] == 0
    entries = [ln.split(" @ ")[1] for ln in (tmp_path / plan_path).read_text().splitlines()[1:]]
    assert entries == ["b0.elt", os.path.join("..", "elts", "b1.elt")]
    code, out, err = run(capsys, "make", "s", "-n", "2", "--alpha", plan_path)
    assert (code, err) == (0, "")
    assert parse_element(out) == make_s_alpha(plan_alpha(base))
    # The same plan, named by a bare path in an expression.
    assert run(capsys, "eval", "-n", "2", "-e", "s(sub/p.alpha)") == (0, out, "")


def test_make_s_with_a_plan_of_another_degree(tmp_path, capsys):
    """``make s --alpha P`` fails as ``eval -e 's(P)'`` does, with one error line."""
    (tmp_path / "b.elt").write_text(format_element(default_base(Alphabet(3), 1)[0]) + "\n")
    plan_path = tmp_path / "plan.alpha"
    plan_path.write_text("alpha 3 2\n1 @ b.elt\n")
    made = run(capsys, "make", "s", "-n", "2", "--alpha", str(plan_path))
    evaluated = run(capsys, "eval", "-n", "2", "-e", f's("{plan_path}")')
    assert made == evaluated == (1, "", "error: plan degree 3 differs from session degree 2\n")


def test_listed_element_files_resolve_beside_their_list(tmp_path, capsys):
    """Manifests and plans read a relative element path from their own
    directory and an absolute one as it is."""
    base = default_base(A2, 1)
    (tmp_path / "b.elt").write_text(format_element(base[0]) + "\n")
    (tmp_path / "s.elt").write_text(format_element(sigma_dot(A2)) + "\n")
    lists = tmp_path / "lists"
    lists.mkdir()
    (lists / "gens.txt").write_text(f"gen a {tmp_path / 's.elt'}\ngen b ../b.elt\n")
    (lists / "plan.alpha").write_text(f"alpha 2 2\n1 @ {tmp_path / 'b.elt'}\n")
    code, out, _ = run(
        capsys, "find", "--gens", str(lists / "gens.txt"), "--target", str(tmp_path / "b.elt"),
        "--radius", "1",
    )
    assert (code, out) == (0, "b\n")
    code, out, _ = run(capsys, "make", "s", "-n", "2", "--alpha", str(lists / "plan.alpha"))
    assert code == 0
    assert parse_element(out) == make_s_alpha(plan_alpha(base))


@pytest.mark.parametrize("content", [None, "vn x\n"], ids=["missing", "bad-header"])
@pytest.mark.parametrize(
    "listing, argv",
    [
        (None, ["canon", "{elt}"]),
        ("gen a {elt}\n", ["find", "--gens", "{list}", "--target", "{elt}", "--radius", "1"]),
        ("alpha 2 2\n1 @ {elt}\n", ["make", "s", "-n", "2", "--alpha", "{list}"]),
    ],
    ids=["canon", "manifest", "plan"],
)
def test_bad_element_file_is_one_error_line(tmp_path, capsys, content, listing, argv):
    elt, listed = tmp_path / "e.elt", tmp_path / "list.txt"
    if content is not None:
        elt.write_text(content)
    if listing is not None:
        listed.write_text(listing.format(elt=elt.name))
    code, out, err = run(capsys, *(a.format(elt=elt, list=listed) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "listing, argv",
    [
        (None, ["canon", "{bad}"]),
        (None, ["ball", "--gens", "{bad}", "--radius", "1", "--out", "{out}"]),
        ("gen a bad.txt\n", ["ball", "--gens", "{list}", "--radius", "1", "--out", "{out}"]),
        (None, ["plan", "--base", "{bad}"]),
        (None, ["eval", "-n", "2", "-e", 's("{bad}")']),
    ],
    ids=["element", "manifest", "listed-element", "plan-base", "plan"],
)
def test_a_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys, listing, argv):
    """Each reader refuses a byte that is not UTF-8 with one error line,
    naming the file, not with a traceback."""
    bad, listed = tmp_path / "bad.txt", tmp_path / "list.txt"
    bad.write_bytes(b"vn 2\n1 -> 2\n2 -> 1\xff\n")
    if listing is not None:
        listed.write_text(listing)
    code, out, err = run(
        capsys, *(a.format(bad=bad, list=listed, out=tmp_path / "ball.txt") for a in argv)
    )
    assert (code, out) == (1, "")
    assert err == f"error: not UTF-8 text: {bad}: byte 0xff (invalid start byte)\n"


@pytest.mark.parametrize(
    "listing, argv, lineno",
    [
        (
            "gen a a.elt\ngen b b.elt\n",
            ["ball", "--gens", "{list}", "--radius", "1", "--out", "{out}"],
            1,
        ),
        (
            "gen b b.elt\ngen a a.elt\n",
            ["find", "--gens", "{list}", "--target", "{b}", "--radius", "1"],
            2,
        ),
        ("alpha 2 2\n1 @ b.elt\n\n2 @ a.elt\n", ["make", "s", "-n", "2", "--alpha", "{list}"], 4),
        ("alpha 2 2\n2 @ a.elt\n", ["eval", "-n", "2", "-e", 's("{list}")'], 2),
    ],
    ids=["ball-manifest", "find-manifest", "make-plan", "eval-plan"],
)
def test_a_bad_listed_element_names_its_file_at_the_listing_line(
    tmp_path, capsys, listing, argv, lineno
):
    """A defect inside an element file that a manifest or a plan lists is
    one error line at the listing line, naming the file as listed and the
    element's own line."""
    (tmp_path / "a.elt").write_text("vn 2\n1 -> 2\n2 -> x\n")
    (tmp_path / "b.elt").write_text(format_element(default_base(A2, 1)[0]) + "\n")
    listed = tmp_path / "list.txt"
    listed.write_text(listing)
    paths = {"list": listed, "b": tmp_path / "b.elt", "out": tmp_path / "ball.txt"}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (1, "")
    assert err == f"error: line {lineno}: a.elt: line 3: bad word syntax 'x'\n"


def test_verify_exit_zero_and_lines(capsys):
    code, out, _ = run(capsys, "verify", "involutions", "-n", "2", "-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["involutions n=2 PASS", "involutions n=3 PASS"]


def test_a_failed_check_prints_both_sides_and_exits_1(monkeypatch, capsys):
    # t^2 in place of t breaks the translation identity for every nontrivial gamma.
    monkeypatch.setattr(verify, "make_t", lambda a: element.power(constructions.make_t(a), 2))
    code, out, err = run(capsys, "verify", "eq2", "-n", "2", "--count", "0", "--kmax", "1")
    assert code == 1
    assert out.splitlines() == [
        "translation n=2 k=1 gamma#0 FAIL",
        "translation n=2 k=1 gamma#1 PASS",
    ]
    lines = err.splitlines()
    assert [line[:7] for line in lines] == ["  lhs: ", "  rhs: "]
    assert lines[0][7:] != lines[1][7:]


def test_verify_tsv_format(capsys):
    code, out, _ = run(capsys, "verify", "maximal", "-n", "2", "--format", "tsv")
    assert code == 0
    for line in out.strip().splitlines():
        assert len(line.split("\t")) == 3


def test_verify_all_small_grid(capsys):
    code, out, _ = run(
        capsys, "verify", "all", "-n", "2", "--count", "3", "--kmax", "2"
    )
    assert code == 0
    assert "FAIL" not in out
    assert "SKIP" in out


def test_ball_and_find(tmp_path, capsys):
    for name, g in [("sigma", sigma_dot(A2)), ("tau", make_tau(A2))]:
        (tmp_path / f"{name}.elt").write_text(format_element(g) + "\n")
    manifest = tmp_path / "gens.txt"
    manifest.write_text("gen sigma sigma.elt\ngen tau tau.elt\n")
    out_path = tmp_path / "ball.txt"
    code, out, _ = run(
        capsys, "ball", "--gens", str(manifest), "--radius", "2",
        "--cap", "100", "--out", str(out_path),
    )
    assert code == 0
    assert "5 elements" in out
    assert out_path.read_text().startswith("ball 2 2 5 0\ngen sigma sigma.elt\n")

    target = tmp_path / "t.elt"
    code, out, _ = run(capsys, "eval", "-n", "2", "-e", "sigma*tau")
    target.write_text(out)
    code, out, _ = run(
        capsys, "find", "--gens", str(manifest), "--target", str(target), "--radius", "2"
    )
    assert code == 0
    assert out.strip() == "sigma tau"
    code, out, _ = run(
        capsys, "find", "--gens", str(manifest), "--target", str(target), "--radius", "1"
    )
    assert code == 1
    assert out.strip() == "NotFound(1)"



def test_find_in_a_finite_group_ends_at_any_radius(tmp_path, capsys):
    """{sigma} is exhausted after one level, so a radius of 10^12 ends at once."""
    (tmp_path / "sigma.elt").write_text(format_element(sigma_dot(A2)) + "\n")
    (tmp_path / "tau.elt").write_text(format_element(make_tau(A2)) + "\n")
    manifest = tmp_path / "gens.txt"
    manifest.write_text("gen sigma sigma.elt\n")
    code, out, err = run(
        capsys, "find", "--gens", str(manifest), "--target", str(tmp_path / "tau.elt"),
        "--radius", "1000000000000",
    )
    assert (code, out, err) == (1, "NotFound(1000000000000)\n", "")


def test_ball_in_a_finite_group_ends_at_any_radius(tmp_path, capsys):
    """The ball's per-radius sizes are not built unless read, so a radius
    of 10^12 over {sigma} ends after one level too."""
    (tmp_path / "sigma.elt").write_text(format_element(sigma_dot(A2)) + "\n")
    manifest = tmp_path / "gens.txt"
    manifest.write_text("gen sigma sigma.elt\n")
    out_path = tmp_path / "ball.txt"
    code, out, err = run(
        capsys, "ball", "--gens", str(manifest), "--radius", "1000000000000",
        "--out", str(out_path),
    )
    assert (code, out, err) == (
        0, f"2 elements within radius 1000000000000 -> {out_path}\n", ""
    )
    assert out_path.read_text().startswith("ball 2 1000000000000 2 0\n")


def test_dot_output(tmp_path, capsys):
    out_path = tmp_path / "g.dot"
    code, _, _ = run(capsys, "dot", "-n", "2", "-e", "tau", "-o", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("digraph tree_pair {")


def test_expression_error_is_reported(capsys):
    code, _, err = run(capsys, "eval", "-n", "2", "-e", "sigma *")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "expr",
    [
        "(" * 3000 + "t" + ")" * 3000,
        "t" + "^-1" * 3000,
        "embed(1, " * 400 + "t" + ")" * 400,
    ],
    ids=["parens", "inverses", "embeds"],
)
def test_deep_expression_is_reported(capsys, expr):
    code, out, err = run(capsys, "eval", "-n", "2", "-e", expr)
    assert code == 1
    assert out == ""
    assert err.startswith("error: expression nests deeper than 200 levels")


def test_missing_file_is_reported(capsys):
    code, _, err = run(capsys, "canon", "no-such-file.elt")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "-n", "1", "-e", "sigma"),
        ("verify", "all", "-n", "1"),
        ("sidon", "--count", "-1"),
        ("sidon", "--count", "100000000"),
        ("sidon", "--count", "3000", "--strategy", "powers-of-two"),
        ("order", "-n", "2", "-e", "sigma", "--bound", "0"),
    ],
)
def test_out_of_range_parameter_is_reported(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("radius, cap", [("-1", "100"), ("2", "0")])
def test_ball_out_of_range_parameter_is_reported(tmp_path, capsys, radius, cap):
    (tmp_path / "sigma.elt").write_text(format_element(sigma_dot(A2)) + "\n")
    manifest = tmp_path / "gens.txt"
    manifest.write_text("gen sigma sigma.elt\n")
    code, _, err = run(
        capsys, "ball", "--gens", str(manifest), "--radius", radius,
        "--cap", cap, "--out", str(tmp_path / "ball.txt"),
    )
    assert code == 1
    assert err.startswith("error:")


def test_find_negative_radius_is_reported(tmp_path, capsys):
    """find refuses a negative radius as ball does, not with NotFound(-1)."""
    (tmp_path / "sigma.elt").write_text(format_element(sigma_dot(A2)) + "\n")
    manifest = tmp_path / "gens.txt"
    manifest.write_text("gen sigma sigma.elt\n")
    code, out, err = run(
        capsys, "find", "--gens", str(manifest), "--target", str(tmp_path / "sigma.elt"),
        "--radius", "-1",
    )
    assert code == 1
    assert out == ""
    assert err == "error: radius must be >= 0\n"


@pytest.mark.parametrize("command", ["ball", "find"])
@pytest.mark.parametrize(
    "manifest_text, message",
    [
        ("# only a comment\n", "error: at least one generator is required\n"),
        ("gen a^b s.elt\n", "error: bad generator name 'a^b'\n"),
    ],
    ids=["comment-only", "caret-in-name"],
)
def test_bad_generator_manifest_is_reported(tmp_path, capsys, command, manifest_text, message):
    (tmp_path / "s.elt").write_text(format_element(sigma_dot(A2)) + "\n")
    manifest = tmp_path / "gens.txt"
    manifest.write_text(manifest_text)
    tail = (
        ["--out", str(tmp_path / "ball.txt")]
        if command == "ball"
        else ["--target", str(tmp_path / "s.elt")]
    )
    code, out, err = run(capsys, command, "--gens", str(manifest), "--radius", "1", *tail)
    assert code == 1
    assert out == ""
    assert err == message


def test_python_dash_m_runs_the_cli():
    src = str(Path(vncalc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "vncalc", "verify", "eq2", "-n", "2", "--count", "1", "--kmax", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].endswith("PASS")


def test_verify_with_no_checks_fails(capsys):
    code, out, err = run(capsys, "verify", "eq2", "--count", "0", "--kmax", "0")
    assert code == 1
    assert out == ""
    assert err == "error: no checks ran\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("eval", "-n", "2", "-e", "t^100000"), "power stopped"),
        (("order", "-n", "2", "-e", "t", "--bound", "100000000"), "order stopped"),
        # Each power stays under the budget, but the evaluation as a whole
        # builds t^60 twice and then t^120: 3,904 + 3,904 + 15,004 letters.
        (("eval", "-n", "2", "-e", "t^60*t^60"), "evaluation stopped"),
    ],
    ids=["power", "order", "product-of-powers"],
)
def test_oversized_request_is_reported(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(element, "_WORK_BUDGET", 10_000)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}: its tables passed the work budget of 10000 letters\n"


def test_long_embed_is_stopped_before_it_is_built(monkeypatch, capsys):
    """A cone word of L letters gives embed a table of about L * L letters."""

    def build(*args):
        raise AssertionError("embed was built")

    monkeypatch.setattr(expressions, "embed", build)
    cone = ".".join(["1"] * 5000)
    code, out, err = run(capsys, "eval", "-n", "2", "-e", f"embed({cone}, t)")
    assert (code, out) == (1, "")
    assert err == (
        "error: evaluation stopped: its tables passed the work budget of 20000000 letters\n"
    )


def test_embed_is_charged_its_exact_size(monkeypatch, capsys):
    # 1.1.1 at n = 2: 3 * 4 sibling letters, 2 * 3 * 3 for t's three rows
    # moved under the cone, and t's own 10 letters.
    monkeypatch.setattr(element, "_WORK_BUDGET", 40)
    code, out, _ = run(capsys, "eval", "-n", "2", "-e", "embed(1.1.1, t)")
    assert code == 0
    assert out.startswith("vn 2\n")
    monkeypatch.setattr(element, "_WORK_BUDGET", 39)
    code, out, err = run(capsys, "eval", "-n", "2", "-e", "embed(1.1.1, t)")
    assert (code, out) == (1, "")
    assert err == "error: evaluation stopped: its tables passed the work budget of 39 letters\n"
    # The identity embeds as the identity, whatever the cone.
    monkeypatch.setattr(element, "_WORK_BUDGET", 0)
    code, out, _ = run(capsys, "eval", "-n", "2", "-e", "embed(1.1.1, id)")
    assert (code, out) == (0, "vn 2\neps -> eps\n")


def test_verify_choices_are_the_suite_names():
    verify = build_parser()._subparsers._group_actions[0].choices["verify"]
    which = next(a for a in verify._actions if a.dest == "which")
    assert which.choices == ["all", *SUITE_BUILDERS, *SUITE_ALIASES] == [
        "all", "eq2", "eq3", "trick", "isolation", "involutions",
        "maximal", "en", "abelianization", "translation", "shift", "commutator",
    ]


def test_non_ascii_digit_in_an_expression_is_an_error(capsys):
    code, out, err = run(capsys, "eval", "-n", "2", "-e", "sigma^\u0662")
    assert (code, out) == (1, "")
    assert err == "error: unexpected character '\u0662' (at position 6)\n"


def test_verify_negative_count_is_an_error(capsys):
    code, out, err = run(capsys, "verify", "abelianization", "-n", "2", "--count", "-3")
    assert (code, out, err) == (1, "", "error: count must be >= 0\n")


def test_verify_zero_count_skips_the_commutator_check(capsys):
    code, out, _ = run(capsys, "verify", "abelianization", "-n", "2", "--count", "0")
    assert code == 0
    assert out == (
        "abelianization n=2 swap PASS\n"
        "abelianization n=2 commutators x0 SKIP(count must be >= 1)\n"
    )


def test_main_builds_one_parser_and_reuses_it(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        code, out, _ = run(capsys, "verify", "eq2", "-n", "2", "--count", "1", "--kmax", "1")
        assert code == 0
        assert {line.split()[1] for line in out.splitlines()} == {"n=2"}
        # -n appends; a reused parser must not carry the last call's list over.
        code, out, _ = run(capsys, "verify", "eq2", "--count", "1", "--kmax", "1")
        assert code == 0
        assert {line.split()[1] for line in out.splitlines()} == {"n=2", "n=3", "n=5"}
        with pytest.raises(SystemExit) as exc:
            main(["verify", "no-such-suite"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        code, out, _ = run(capsys, "make", "tau", "-n", "2")
        assert code == 0
        assert parse_element(out) == make_tau(A2)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert build_parser() is not build_parser()
