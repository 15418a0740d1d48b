"""Surface braid words, relators, wreath images, and bounded equality."""

import random

import pytest

from surfbraid.braid import (
    WreathElement,
    apply_move,
    bounded_equal,
    compose_perms,
    format_perm_cycles,
    identity_perm,
    invert_perm,
    parse_braid_word,
    parse_perm_cycles,
    perm_sign,
    random_relator_rewrite,
    relators,
    strand_permutation,
    transposition_perm,
    wreath_image,
)
from surfbraid.errors import (
    InvalidGeneratorError,
    ParameterError,
    ParseError,
    ResourceLimitError,
)
from surfbraid.surface import SurfaceParams, letter

A1 = letter("a", 1)
B1 = letter("b", 1)

S112 = SurfaceParams(1, 1, 2)
S013 = SurfaceParams(0, 1, 3)
S102 = SurfaceParams(1, 0, 2)


class TestPermutations:
    def test_transposition(self):
        assert transposition_perm(3, 1) == (1, 0, 2)
        assert transposition_perm(3, 2) == (0, 2, 1)
        with pytest.raises(InvalidGeneratorError):
            transposition_perm(3, 3)

    def test_compose_left_to_right(self):
        # (p then q): strand 1 goes through p first
        p = transposition_perm(3, 1)
        q = transposition_perm(3, 2)
        assert compose_perms(p, q) == (2, 0, 1)
        assert compose_perms(q, p) == (1, 2, 0)

    def test_invert(self):
        p = (2, 0, 1)
        assert compose_perms(p, invert_perm(p)) == identity_perm(3)

    def test_sign(self):
        assert perm_sign(identity_perm(4)) == 1
        assert perm_sign(transposition_perm(4, 2)) == -1
        assert perm_sign((2, 0, 1)) == 1

    def test_format_cycles(self):
        assert format_perm_cycles(identity_perm(2)) == "(1)(2)"
        assert format_perm_cycles(transposition_perm(2, 1)) == "(1 2)"
        assert format_perm_cycles(transposition_perm(3, 1)) == "(1 2)(3)"

    def test_parse_cycles(self):
        assert parse_perm_cycles("(1 2)(3)", 3) == (1, 0, 2)
        assert parse_perm_cycles("id", 3) == identity_perm(3)
        assert parse_perm_cycles("", 2) == identity_perm(2)
        assert parse_perm_cycles("()", 2) == identity_perm(2)
        with pytest.raises(ParseError):
            parse_perm_cycles("(1 5)", 3)
        with pytest.raises(ParseError):
            parse_perm_cycles("(1 1)", 3)

    def test_parse_format_round_trip(self):
        rng = random.Random(3)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                p = list(range(n))
                rng.shuffle(p)
                p = tuple(p)
                assert parse_perm_cycles(format_perm_cycles(p), n) == p


class TestBraidWords:
    def test_parse(self):
        w = parse_braid_word("s1 a1^-1 b1", S112)
        assert w == (("s", 1, 1), ("a", 1, -1), ("b", 1, 1))
        assert parse_braid_word("1", S112) == ()

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(InvalidGeneratorError):
            parse_braid_word("s2", S112)
        with pytest.raises(InvalidGeneratorError):
            parse_braid_word("a2", S112)
        with pytest.raises(InvalidGeneratorError):
            parse_braid_word("z1", S112)

    def test_strand_permutation(self):
        w = parse_braid_word("s1 s2", S013)
        assert strand_permutation(w, 3) == (2, 0, 1)
        assert strand_permutation(parse_braid_word("a1", S112), 2) == identity_perm(2)


class TestRelators:
    def test_genus_one_boundary_catalog(self):
        rels = relators(S112)
        families = [r.family for r in rels]
        # no braid relation (needs 3 strands), no closed relation (boundary);
        # each of a1, b1 commutes with its own crossing conjugate, and the
        # handle relation ties the mixed pair to s1^2
        assert families.count("2.i") == 0
        assert families.count("2.ii") == 2
        assert families.count("2.iii") == 1
        assert families.count("2.iv") == 0
        words = {r.family: r.word for r in rels}
        assert words["2.iii"] == parse_braid_word(
            "s1^-1 s1^-1 a1 s1^-1 b1 s1^-1 a1^-1 s1 b1^-1 s1", S112
        )

    def test_cross_generator_instances_appear_at_genus_two(self):
        rels = relators(SurfaceParams(2, 1, 2))
        words = [r.word for r in rels if r.family == "2.ii"]
        # self-conjugation for the four letters plus the four ordered
        # cross-handle pairs (handle 2 letters against handle 1 conjugates)
        assert len(words) == 8
        assert parse_braid_word(
            "a2 s1^-1 a1 s1 a2^-1 s1^-1 a1^-1 s1", SurfaceParams(2, 1, 2)
        ) in words

    def test_disk_three_strands(self):
        rels = relators(S013)
        assert len(rels) == 1
        assert rels[0].family == "2.i"
        assert rels[0].word == parse_braid_word("s1 s2 s1 s2^-1 s1^-1 s2^-1", S013)

    def test_closed_torus_includes_global_relation(self):
        rels = relators(S102)
        families = {r.family for r in rels}
        assert "2.iv" in families
        (closed,) = [r for r in rels if r.family == "2.iv"]
        assert closed.word == parse_braid_word("a1 b1^-1 a1^-1 b1 s1^-1 s1^-1", S102)

    def test_needs_two_strands(self):
        with pytest.raises(ParameterError):
            relators(SurfaceParams(1, 1, 1))

    def test_all_relators_have_trivial_permutation(self):
        for s in (S112, S013, S102, SurfaceParams(2, 2, 3)):
            for rel in relators(s):
                assert strand_permutation(rel.word, s.strands) == identity_perm(s.strands)


class TestWreathImage:
    def test_crossing_image(self):
        w = wreath_image(parse_braid_word("s1", S112), S112)
        assert w.beads == ((), ())
        assert w.perm == (1, 0)

    def test_loop_image(self):
        w = wreath_image(parse_braid_word("a1", S112), S112)
        assert w.beads == ((A1,), ())
        assert w.perm == identity_perm(2)

    def test_conjugated_loop_lands_on_second_strand(self):
        w = wreath_image(parse_braid_word("s1^-1 b1 s1^-1", S112), S112)
        assert w.beads == ((), (B1,))
        assert w.perm == identity_perm(2)

    def test_group_laws(self):
        rng = random.Random(5)
        gens = ["s1", "a1", "a1^-1", "b1", "b1^-1"]
        for _ in range(40):
            u = parse_braid_word(" ".join(rng.choices(gens, k=rng.randrange(6))), S112)
            v = parse_braid_word(" ".join(rng.choices(gens, k=rng.randrange(6))), S112)
            wu, wv = wreath_image(u, S112), wreath_image(v, S112)
            assert wreath_image(u + v, S112) == wu * wv
            assert (wu * wu.inverse()).is_identity

    def test_identity_element(self):
        e = WreathElement.identity(S112)
        assert e.is_identity
        assert e * e == e

    def test_annihilates_relators_sample(self):
        for s in (S112, S013, S102, SurfaceParams(2, 1, 3)):
            for rel in relators(s):
                assert wreath_image(rel.word, s).is_identity, rel.rid if hasattr(rel, "rid") else rel.family


class TestBoundedEqual:
    def test_reflexive(self):
        u = parse_braid_word("s1 a1", S112)
        eq = bounded_equal(u, u, S112, depth=0)
        assert eq.is_equal
        assert eq.moves == ()

    def test_handle_relation(self):
        u = parse_braid_word("a1 s1^-1 b1 s1^-1 a1^-1 s1 b1^-1 s1", S112)
        v = parse_braid_word("s1 s1", S112)
        eq = bounded_equal(u, v, S112, depth=1)
        assert eq.is_equal

    def test_braid_relation(self):
        u = parse_braid_word("s1 s2 s1", S013)
        v = parse_braid_word("s2 s1 s2", S013)
        eq = bounded_equal(u, v, S013, depth=2)
        assert eq.is_equal

    def test_moves_replay(self):
        u = parse_braid_word("s1 s2 s1", S013)
        v = parse_braid_word("s2 s1 s2", S013)
        eq = bounded_equal(u, v, S013, depth=2)
        w = u
        for mv in eq.moves:
            w = apply_move(w, mv)
        assert w == v

    def test_unknown_within_depth(self):
        u = parse_braid_word("s1", S112)
        v = parse_braid_word("s1^-1", S112)
        eq = bounded_equal(u, v, S112, depth=1)
        assert eq.status == "unknown"
        assert not eq.is_equal

    def test_free_cancellation(self):
        u = parse_braid_word("a1 a1^-1", S112)
        eq = bounded_equal(u, (), S112, depth=1)
        assert eq.is_equal

    def test_node_budget_exhausted_raises(self):
        u = parse_braid_word("a1", S112)
        v = parse_braid_word("b1", S112)
        with pytest.raises(ResourceLimitError, match="node budget of 1 "):
            bounded_equal(u, v, S112, depth=1, node_budget=1)
        # the same search with room to spare runs out of depth instead
        assert bounded_equal(u, v, S112, depth=1).status == "unknown"


class TestRandomRewrite:
    def test_preserves_wreath_image(self):
        rng = random.Random(23)
        for s in (S112, S102, SurfaceParams(2, 1, 3)):
            u = parse_braid_word("s1 a1", s)
            for _ in range(25):
                v, move = random_relator_rewrite(u, s, rng)
                assert apply_move(u, move) == v
                assert wreath_image(v, s) == wreath_image(u, s)
                u = v

    def test_no_relators_refuses(self):
        s = SurfaceParams(0, 1, 2)
        assert relators(s) == []
        with pytest.raises(ParameterError, match="no relators"):
            random_relator_rewrite(parse_braid_word("s1", s), s, random.Random(0))
