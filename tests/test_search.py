"""Ball growth, witness words, and the persistence format."""

import pytest

from vncalc.constructions import default_base, make_s_alpha, make_t, make_tau, plan_alpha, sigma_dot
from vncalc.element import compose, format_element, identity, invert
from vncalc.errors import AlphabetMismatchError, FileFormatError
from vncalc.search import (
    Ball,
    GeneratorSet,
    evaluate_word,
    find_element,
    grow_ball,
    load_ball,
    load_generator_manifest,
    save_ball,
)
from vncalc.words import Alphabet

A2 = Alphabet(2)


def sigma_tau_gens():
    return GeneratorSet.from_dict({"sigma": sigma_dot(A2), "tau": make_tau(A2)})


def spinal_gens():
    plan = plan_alpha(default_base(A2, 1))
    return GeneratorSet.from_dict(
        {"sigma": sigma_dot(A2), "tau": make_tau(A2), "s": make_s_alpha(plan)}
    )


def test_generator_set_sorts_and_validates():
    gens = sigma_tau_gens()
    assert gens.names() == ("sigma", "tau")
    with pytest.raises(ValueError):
        GeneratorSet.from_dict({"bad name": sigma_dot(A2)})
    with pytest.raises(ValueError):
        GeneratorSet.from_dict({})
    with pytest.raises(AlphabetMismatchError):
        GeneratorSet.from_dict({"a": sigma_dot(A2), "b": sigma_dot(Alphabet(3))})


def test_tokens_add_inverses_only_when_needed():
    gens = sigma_tau_gens()
    assert [tok for tok, _ in gens.tokens()] == ["sigma", "tau"]
    t = make_t(A2)
    with_t = GeneratorSet.from_dict({"t": t})
    assert [tok for tok, _ in with_t.tokens()] == ["t", "t^-1"]
    assert dict(with_t.tokens())["t^-1"] == invert(t)


def test_ball_radius_one():
    ball = grow_ball(sigma_tau_gens(), 1)
    assert len(ball) == 3
    elements = ball.elements()
    assert elements[identity(A2)] == ()
    assert elements[sigma_dot(A2)] == ("sigma",)
    assert elements[make_tau(A2)] == ("tau",)


def test_ball_radius_two_counts_noncommuting_products():
    ball = grow_ball(sigma_tau_gens(), 2)
    assert len(ball) == 5
    sig, tau = sigma_dot(A2), make_tau(A2)
    assert compose(sig, tau) != compose(tau, sig)
    assert ball.word_for(compose(sig, tau)) == ("sigma", "tau")
    assert ball.word_for(compose(tau, sig)) == ("tau", "sigma")
    assert ball.sizes == (1, 3, 5)


def test_ball_growth_strictly_increasing_for_spinal_generators():
    ball = grow_ball(spinal_gens(), 6)
    for r in range(1, 7):
        assert ball.sizes[r] > ball.sizes[r - 1]


def test_ball_words_all_evaluate():
    gens = spinal_gens()
    ball = grow_ball(gens, 4)
    for word, g in ball.entries:
        assert evaluate_word(gens, word) == g


def test_ball_closed_under_inversion_for_involutive_generators():
    ball = grow_ball(spinal_gens(), 4)
    elements = set(ball.elements())
    assert all(invert(g) in elements for g in elements)


def test_ball_respects_cap():
    ball = grow_ball(spinal_gens(), 6, cap=20)
    assert ball.truncated
    assert len(ball) == 20
    untruncated = grow_ball(spinal_gens(), 6)
    assert not untruncated.truncated
    assert ball.entries == untruncated.entries[:20]


def test_ball_worker_counts_agree():
    for radius in (3, 5):
        b1 = grow_ball(spinal_gens(), radius, workers=1)
        b4 = grow_ball(spinal_gens(), radius, workers=4)
        assert b1 == b4


def test_ball_stabilizes_on_finite_groups():
    gens = GeneratorSet.from_dict({"sigma": sigma_dot(A2)})
    ball = grow_ball(gens, 5)
    assert ball.sizes == (1, 2, 2, 2, 2, 2)


def test_find_identity_is_empty_word():
    assert find_element(identity(A2), sigma_tau_gens(), 0) == ()


def test_find_t_as_product():
    assert find_element(make_t(A2), sigma_tau_gens(), 2) == ("sigma", "tau")


def test_find_not_found_within_radius():
    assert find_element(make_t(A2), sigma_tau_gens(), 1) is None


def test_find_prefers_lexicographically_least_word():
    gens = GeneratorSet.from_dict({"a": sigma_dot(A2), "b": sigma_dot(A2)})
    assert find_element(sigma_dot(A2), gens, 3) == ("a",)


def test_find_rejects_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        find_element(identity(Alphabet(3)), sigma_tau_gens(), 2)


def test_find_recovers_isolation_commutator_witness():
    # The factored commutator of a spinal element with its shifted conjugate
    # is reachable as the length-4 commutator word over {s, s^(t^k)}.
    from vncalc.constructions import embed, plan_alpha, spine_cone
    from vncalc.element import commutator, conjugate, power
    from vncalc.words import Word

    plan = plan_alpha(default_base(A2, 2))
    i, j = plan.support.sorted_members
    s = make_s_alpha(plan)
    shifted = conjugate(s, power(make_t(A2), j - i))
    sig = sigma_dot(A2)
    deep = embed(spine_cone(plan.length + 1), commutator(sig, embed(spine_cone(j - i), sig)))
    cone = embed(spine_cone(j) + Word((2,)), commutator(plan.entry(j), plan.entry(i)))
    target = compose(deep, cone)
    assert target == commutator(s, shifted)
    gens = GeneratorSet.from_dict({"s": s, "sc": shifted})
    assert find_element(target, gens, 4) == ("s", "sc", "s", "sc")


def test_save_load_round_trip(tmp_path):
    gens = spinal_gens()
    manifest = (("s", "s.elt"), ("sigma", "sigma.elt"), ("tau", "tau.elt"))
    ball = grow_ball(gens, 4, manifest=manifest)
    path = tmp_path / "ball.txt"
    save_ball(ball, str(path))
    assert load_ball(str(path)) == ball


def test_saved_ball_layout(tmp_path):
    ball = grow_ball(sigma_tau_gens(), 1, manifest=(("sigma", "x"), ("tau", "y")))
    path = tmp_path / "b.txt"
    save_ball(ball, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "ball 2 1 3 0"
    assert lines[1] == "gen sigma x"
    assert lines[2] == "gen tau y"
    assert lines[3] == ""
    assert lines[4] == "word"
    assert lines[5] == "vn 2"


def test_load_ball_reports_corrupt_word_line(tmp_path):
    ball = grow_ball(sigma_tau_gens(), 1)
    path = tmp_path / "b.txt"
    save_ball(ball, str(path))
    text = path.read_text().replace("word sigma", "wrd sigma")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(FileFormatError) as info:
        load_ball(str(bad))
    assert "line" in str(info.value)


def test_load_ball_reports_corrupt_element_block(tmp_path):
    ball = grow_ball(sigma_tau_gens(), 1)
    path = tmp_path / "b.txt"
    save_ball(ball, str(path))
    text = path.read_text().replace("1 -> 2", "1 -> bogus", 1)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(FileFormatError):
        load_ball(str(bad))


def test_load_ball_checks_count(tmp_path):
    ball = grow_ball(sigma_tau_gens(), 1)
    path = tmp_path / "b.txt"
    save_ball(ball, str(path))
    text = path.read_text().replace("ball 2 1 3 0", "ball 2 1 7 0")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(FileFormatError):
        load_ball(str(bad))


def test_generator_manifest_loading(tmp_path):
    (tmp_path / "sig.elt").write_text(format_element(sigma_dot(A2)) + "\n")
    (tmp_path / "tau.elt").write_text(format_element(make_tau(A2)) + "\n")
    manifest = tmp_path / "gens.txt"
    manifest.write_text("gen sigma sig.elt\ngen tau tau.elt\n")
    gens, recorded = load_generator_manifest(str(manifest))
    assert gens == sigma_tau_gens()
    assert recorded == (("sigma", "sig.elt"), ("tau", "tau.elt"))


def test_generator_manifest_rejects_duplicates(tmp_path):
    (tmp_path / "sig.elt").write_text(format_element(sigma_dot(A2)) + "\n")
    manifest = tmp_path / "gens.txt"
    manifest.write_text("gen sigma sig.elt\ngen sigma sig.elt\n")
    with pytest.raises(FileFormatError):
        load_generator_manifest(str(manifest))


def test_ball_deterministic_across_runs(tmp_path):
    p1, p2 = tmp_path / "one.txt", tmp_path / "two.txt"
    save_ball(grow_ball(spinal_gens(), 5, workers=1), str(p1))
    save_ball(grow_ball(spinal_gens(), 5, workers=3), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_ball_round_trip_keeps_unsorted_manifest(tmp_path):
    manifest = (("tau", "tau.elt"), ("sigma", "sigma.elt"))
    ball = grow_ball(sigma_tau_gens(), 3, manifest=manifest)
    path = tmp_path / "ball.txt"
    save_ball(ball, str(path))
    assert load_ball(str(path)) == ball
