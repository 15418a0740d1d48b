"""Surface braid words, relators, wreath images, and bounded equality."""

import functools
import gc
import random
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surfbraid import braid
from surfbraid.braid import (
    Equality,
    Move,
    WreathElement,
    apply_move,
    bounded_equal,
    check_braid_word,
    compose_perms,
    format_perm_cycles,
    identity_perm,
    invert_perm,
    is_relator_move,
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
from surfbraid.surface import (
    SurfaceParams,
    free_reduce,
    inverse_word,
    letter,
    word_sort_key,
)

A1 = letter("a", 1)
B1 = letter("b", 1)

S112 = SurfaceParams(1, 1, 2)
S013 = SurfaceParams(0, 1, 3)
S102 = SurfaceParams(1, 0, 2)
S123 = SurfaceParams(1, 2, 3)


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
        with pytest.raises(InvalidGeneratorError, match="sign"):
            check_braid_word((("s", 1, 2),), S112)

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


def assert_relator_moves(eq, s):
    """Every move an Equal answer returns passes the catalogue check."""
    assert all(is_relator_move(mv, s) for mv in eq.moves), eq.moves


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
        assert_relator_moves(eq, S112)

    def test_braid_relation(self):
        u = parse_braid_word("s1 s2 s1", S013)
        v = parse_braid_word("s2 s1 s2", S013)
        eq = bounded_equal(u, v, S013, depth=2)
        assert eq.is_equal
        assert_relator_moves(eq, S013)

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
        # the budget caps the stored words, those of the levels below the last
        u = parse_braid_word("a1", S112)
        v = parse_braid_word("b1", S112)
        with pytest.raises(ResourceLimitError, match="node budget of 1 "):
            bounded_equal(u, v, S112, depth=2, node_budget=1)
        # the same search with room to spare runs out of depth instead
        assert bounded_equal(u, v, S112, depth=2).status == "unknown"
        # depth 1 stores no word, so no budget can stop it
        assert bounded_equal(u, v, S112, depth=1, node_budget=1) == Equality("unknown")

    def test_one_move_is_not_undone_by_one_move(self):
        # free reduction cascades past the inserted relator: x is one move
        # from w, but w is not within two moves of x
        s = SurfaceParams(0, 2, 3)
        w = parse_braid_word("s1^-1 z1^-1 s2^-1 s1 z1 s1^-1 z1 s1^-1 z1^-1 s1 "
                             "z1^-1 s2 z1 s2^-1 z1^-1 s1", s)
        r = parse_braid_word("z1 s1^-1 z1 s1 z1^-1 s1 z1^-1 s1^-1", s)
        x = parse_braid_word("s1^-1 s2^-1 z1^-1 s1", s)
        move = Move(3, (), r, "")
        assert apply_move(w, move) == x
        assert is_relator_move(move, s)
        assert bounded_equal(w, x, s, 1).is_equal
        assert bounded_equal(x, w, s, 2).status == "unknown"

    def test_negative_depth_is_refused(self):
        u = parse_braid_word("s1", S112)
        for v in (u, parse_braid_word("s1^-1", S112)):
            with pytest.raises(ParameterError, match="depth"):
                bounded_equal(u, v, S112, depth=-1)

    def test_node_budget_below_one_is_refused(self):
        u = parse_braid_word("s1", S112)
        for v in (u, parse_braid_word("s1^-1", S112)):
            for budget in (0, -1):
                with pytest.raises(ParameterError, match="node budget"):
                    bounded_equal(u, v, S112, depth=1, node_budget=budget)


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_rewrite_is_a_relator_insertion_that_changes_the_word(self, data):
        # any word, reduced or not: an insertion is a non-empty freely
        # reduced word, so one draw always gives another word
        s = data.draw(st.sampled_from([s for s in SEARCH_SURFACES if relators(s)]))
        u = tuple(data.draw(st.lists(st.sampled_from(alphabet(s)), max_size=8)))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        v, move = random_relator_rewrite(u, s, rng)
        assert move.removed == ()
        assert v != free_reduce(u)
        assert apply_move(u, move) == v
        assert is_relator_move(move, s)

    def test_no_relators_refuses(self):
        s = SurfaceParams(0, 1, 2)
        assert relators(s) == []
        with pytest.raises(ParameterError, match="no relators"):
            random_relator_rewrite(parse_braid_word("s1", s), s, random.Random(0))


# ---------------------------------------------------------------------------
# reference: the flat piece list scanned at every position
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def ref_move_pieces(s):
    """All (removed, inserted, family) relator moves: for each rotation r of a
    relator or its inverse and each split r = P.S, the move rewrites P into
    S^-1 (P empty gives free insertion of a relator conjugate)."""
    pieces = {}
    for rel in relators(s):
        for base in (rel.word, inverse_word(rel.word)):
            for r in range(len(base)):
                rot = free_reduce(base[r:] + base[:r])
                for k in range(len(rot) + 1):
                    removed, inserted = rot[:k], inverse_word(rot[k:])
                    if removed != inserted:
                        pieces.setdefault((removed, inserted), rel.family)
    out = [(rem, ins, fam) for (rem, ins), fam in pieces.items()]
    out.sort(key=lambda t: (len(t[0]), word_sort_key(t[0]), word_sort_key(t[1])))
    return tuple(out)


class RefGaveUp(Exception):
    """The reference generated more words than its caller allowed."""


def ref_bounded_equal(u, v, s, depth, node_budget=10**6, max_words=None):
    """Every word of every level generated, the last level too.  The nodes,
    and the words the budget caps, are those of the levels below the last
    (and the target, where one of them reaches it), which are the words the
    search stores.  ``max_words`` caps the reference's own work: past that
    many words of any level it raises ``RefGaveUp``."""
    start, target = free_reduce(u), free_reduce(v)
    if start == target:
        return Equality("equal")
    pieces = ref_move_pieces(s)
    parents = {}
    frontier = [start]
    seen = {start}
    stored = 0
    for level in range(1, depth + 1):
        next_frontier = []
        for w in frontier:
            for pos in range(len(w) + 1):
                for removed, inserted, family in pieces:
                    if w[pos:pos + len(removed)] != removed:
                        continue
                    nxt = free_reduce(w[:pos] + inserted + w[pos + len(removed):])
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    stored += level < depth
                    parents[nxt] = (w, Move(pos, removed, inserted, family))
                    if nxt == target:
                        moves = []
                        while nxt != start:
                            nxt, mv = parents[nxt]
                            moves.append(mv)
                        return Equality("equal", tuple(reversed(moves)), stored)
                    next_frontier.append(nxt)
                    if level < depth and stored >= node_budget:
                        raise ResourceLimitError(
                            f"node budget of {node_budget} words exhausted "
                            f"within depth {depth}"
                        )
                    if max_words is not None and len(seen) - 1 >= max_words:
                        raise RefGaveUp
        frontier = next_frontier
        if not frontier:
            break
    return Equality("unknown", nodes=stored)


def ref_insertions(s):
    """The reference's moves that remove nothing, (inserted, family), in
    its order."""
    return [(inserted, family) for removed, inserted, family in ref_move_pieces(s)
            if not removed]


def ref_substitutions(s):
    """The reference's moves P -> I with P non-empty, (removed, inserted,
    family), in its order."""
    return [piece for piece in ref_move_pieces(s) if piece[0]]


def ref_random_relator_rewrite(word, s, rng):
    """One insertion of the reference's, at one position, drawn by index
    over the list of every (insertion, position) pair."""
    candidates = [Move(pos, (), inserted, family)
                  for inserted, family in ref_insertions(s)
                  for pos in range(len(word) + 1)]
    if not candidates:
        raise ParameterError(
            f"no relator move exists: the presentation for genus {s.genus}, "
            f"boundary {s.boundary} on {s.strands} strands has no relators"
        )
    mv = candidates[rng.randrange(len(candidates))]
    return apply_move(word, mv), mv


def outcome(search, *args):
    try:
        return search(*args)
    except (ResourceLimitError, ParameterError) as exc:
        return type(exc), str(exc)


SURFACES = [SurfaceParams(*t) for t in
            [(1, 1, 2), (1, 0, 2), (2, 1, 3), (0, 2, 3), (1, 2, 2), (0, 1, 2)]]
# two closed surfaces: (2,0,2) has two 2.iii relators, which are not cyclically
# reduced, so some rotations of its insertions are shorter, and the sphere
# (0,0,3) has only the braid relation and its 2.iv relator
SEARCH_SURFACES = SURFACES + [SurfaceParams(2, 0, 2), SurfaceParams(0, 0, 3)]
LEMMA_SURFACES = SEARCH_SURFACES + [SurfaceParams(3, 0, 2)]


def alphabet(s):
    return [("s", i, e) for i in range(1, s.strands) for e in (1, -1)] + s.pi1_letters()


@st.composite
def search_inputs(draw):
    s = draw(st.sampled_from(SEARCH_SURFACES))
    words = st.lists(st.sampled_from(alphabet(s)), max_size=5).map(
        lambda w: free_reduce(tuple(w)))
    u = draw(words)
    rels = relators(s)
    if rels and draw(st.booleans()):
        # a relator or its inverse inserted: Equal within depth 1
        rel = draw(st.sampled_from(rels)).word
        if draw(st.booleans()):
            rel = inverse_word(rel)
        pos = draw(st.integers(0, len(u)))
        v = free_reduce(u[:pos] + rel + u[pos:])
    else:
        v = draw(words)
    return s, u, v


class TestMoveTableAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(search_inputs(), st.integers(0, 2), st.sampled_from([25, 2000]),
           st.integers(0, 2**32 - 1))
    def test_same_answers_as_the_piece_scan(self, inputs, depth, budget, seed):
        s, u, v = inputs
        got = outcome(bounded_equal, u, v, s, depth, budget)
        try:
            # a last level of thousands of words is too slow to generate
            # here; test_lookup_finds_the_first_generated_move covers it
            assert got == outcome(ref_bounded_equal, u, v, s, depth, budget, 2000)
        except RefGaveUp:
            pass
        if isinstance(got, Equality):
            assert_relator_moves(got, s)
        assert outcome(random_relator_rewrite, u, s, random.Random(seed)) == \
            outcome(ref_random_relator_rewrite, u, s, random.Random(seed))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(alphabet(S123)), max_size=6),
                    min_size=3, max_size=3))
    def test_splice_cancels_at_the_seams(self, parts):
        table = braid._move_table(S123)
        head, inserted, tail = (free_reduce(tuple(w)) for w in parts)
        spliced = braid._splice(
            table.encode(head), table.encode(inserted), table.encode(tail))
        assert table.decode(spliced) == free_reduce(head + inserted + tail)

    def test_nodes_count_distinct_neighbours(self):
        for s, text in ((S112, "a1 s1"), (S013, "s1 s2"), (S102, "b1 s1^-1")):
            u = parse_braid_word(text, s)
            # a different strand permutation: never reached
            v = u + (("s", 1, 1),)
            neighbours = {
                free_reduce(u[:pos] + ins + u[pos + len(rem):])
                for pos in range(len(u) + 1)
                for rem, ins, _ in ref_move_pieces(s)
                if u[pos:pos + len(rem)] == rem
            } - {u}
            # the first level is stored, the second only looked up
            eq = bounded_equal(u, v, s, depth=2)
            assert eq.status == "unknown"
            assert eq.nodes == len(neighbours) > 0
            # the budget stops the search at its last stored word, not after it
            with pytest.raises(ResourceLimitError):
                bounded_equal(u, v, s, depth=2, node_budget=eq.nodes)
            assert bounded_equal(u, v, s, depth=2, node_budget=eq.nodes + 1) == eq
            assert bounded_equal(u, v, s, depth=1) == Equality("unknown")
            assert bounded_equal(u, u, s, depth=1).nodes == 0

    def test_groups_hold_the_reference_order(self):
        # (0,2,3) and (1,2,2) tie s_i with z_i in letter_sort_key, so a wrong
        # tie order in the table's sort shows up here first
        for s in SURFACES:
            table = braid._move_table(s)
            # the table's insertions are the reference's moves removing
            # nothing, in order
            ref = ref_insertions(s)
            assert [(table.decode(inserted), family)
                    for inserted, family, *_ in table.inserts] == ref
            # and the last level looks up the same insertions
            assert [(table.decode(inserted), family)
                    for inserted, family in table.families.items()] == ref
            for inserted, _, first, last, _ in table.inserts:
                assert table.decode(first) == inverse_word(table.decode(inserted[:1]))
                assert table.decode(last) == inverse_word(table.decode(inserted[-1:]))

    def test_depth_two_runs_its_last_level_to_the_end(self):
        # Unknown: every word of the second level is looked up; the nodes are
        # the 50 stored words of the first level, of the reference's 12,596
        u, v = (), parse_braid_word("s1", S112)
        eq = bounded_equal(u, v, S112, depth=2)
        assert eq == ref_bounded_equal(u, v, S112, 2)
        assert eq.status == "unknown" and eq.nodes == 50
        with pytest.raises(ResourceLimitError):
            bounded_equal(u, v, S112, depth=2, node_budget=eq.nodes)
        assert bounded_equal(u, v, S112, depth=2, node_budget=eq.nodes + 1) == eq
        # Equal, found on the second level after thousands of words
        u = parse_braid_word("s1", S112)
        v = parse_braid_word(
            "s1 a1 s1^-1 a1 s1^-1 a1^-1 s1 a1^-1 b1 s1^-1 b1 s1 b1^-1 s1 b1^-1", S112)
        eq = bounded_equal(u, v, S112, depth=2)
        assert eq == ref_bounded_equal(u, v, S112, 2)
        assert eq.is_equal and len(eq.moves) == 2 and eq.nodes == 74
        assert_relator_moves(eq, S112)
        # the target is on the unstored level: the budget must hold all of
        # the first level, as in the reference
        with pytest.raises(ResourceLimitError):
            bounded_equal(u, v, S112, depth=2, node_budget=eq.nodes)
        for budget in (eq.nodes - 1, eq.nodes, eq.nodes + 1):
            assert outcome(bounded_equal, u, v, S112, 2, budget) == \
                outcome(ref_bounded_equal, u, v, S112, 2, budget)

    def test_table_lives_with_its_surface(self, monkeypatch):
        built = []
        table_class = braid._MoveTable

        def counting(s):
            built.append(None)
            return table_class(s)

        monkeypatch.setattr(braid, "_MoveTable", counting)
        before = len(braid._MOVE_TABLES)
        s = SurfaceParams(3, 1, 2)
        u = parse_braid_word("a1 s1", s)
        bounded_equal(u, parse_braid_word("b1", s), s, depth=1)
        random_relator_rewrite(u, s, random.Random(0))
        assert len(built) == 1
        assert len(braid._MOVE_TABLES) == before + 1
        alive = weakref.ref(s)
        del s
        gc.collect()
        assert alive() is None
        assert len(braid._MOVE_TABLES) == before


def table_insertions(table):
    return {table.decode(move[0]) for move in table.inserts}


def skipped_insertions(table):
    """(R, h, R') for every insertion R and letter h of its ``after``, with
    R' = h R h^-1 freely reduced, the insertion one position earlier."""
    return [(table.decode(inserted), table.decode(h),
             table.decode(braid._splice(h, inserted, table.inverse(h))))
            for inserted, _, _, _, after in table.inserts for h in after]


@st.composite
def lemma_cases(draw):
    """A reduced word w with a position where a substitution applies, or
    after a letter h where an insertion is skipped, and the two moves that
    the lemma says give the same word there."""
    s = draw(st.sampled_from([s for s in LEMMA_SURFACES if relators(s)]))
    table = braid._move_table(s)
    words = st.lists(st.sampled_from(alphabet(s)), max_size=4).map(tuple)
    left, right = draw(words), draw(words)
    if draw(st.booleans()):
        # lemma 1: P -> I at pos, against inserting I inv(P) at pos
        removed, inserted, _ = draw(st.sampled_from(ref_substitutions(s)))
        w, pos = left + removed + right, len(left)
        moves = (Move(pos, removed, inserted, ""),
                 Move(pos, (), inserted + inverse_word(removed), ""))
    else:
        # lemma 2: R after the letter h, against h R h^-1 one position earlier
        inserted, h, earlier = draw(st.sampled_from(skipped_insertions(table)))
        w, pos = left + h + right, len(left) + 1
        moves = (Move(pos, (), inserted, ""), Move(pos - 1, (), earlier, ""))
    assume(free_reduce(w) == w)
    return w, moves


def scanned_insertion_to(table, w, target):
    """The first (position, inserted, family) by which one level of the
    generating search reaches ``target`` from ``w``: each position, then the
    table's insertions in order, skipping those of ``after``."""
    for pos in range(len(w) + 1):
        h = table.encode(w[pos - 1:pos])
        for inserted, family, _, _, after in table.inserts:
            if h in after:
                continue
            if free_reduce(w[:pos] + table.decode(inserted) + w[pos:]) == target:
                return pos, inserted, family
    return None


@st.composite
def lookup_inputs(draw):
    """A reduced word w and a target: a word of ``search_inputs`` (another
    word, or w with a relator inserted), or w with one of the table's
    insertions at some position; the flag says the target is one move away."""
    s, w, target = draw(search_inputs())
    table = braid._move_table(s)
    if table.inserts and draw(st.booleans()):
        inserted = table.decode(draw(st.sampled_from(table.inserts))[0])
        pos = draw(st.integers(0, len(w)))
        return s, w, free_reduce(w[:pos] + inserted + w[pos:]), True
    return s, w, target, False


class TestLastLevelLookup:
    """The search's last level looks each word's one-move neighbour up
    (``_MoveTable.insertion_to``) instead of generating the level."""

    @settings(max_examples=300, deadline=None)
    @given(lookup_inputs())
    def test_lookup_finds_the_first_generated_move(self, case):
        s, w, target, one_move = case
        table = braid._move_table(s)
        found = table.insertion_to(table.encode(w), table.encode(target))
        assert found == scanned_insertion_to(table, w, target)
        if one_move:
            assert found is not None


class TestSearchLemmas:
    """The two lemmas that let ``bounded_equal`` scan insertions only and skip
    conjugate repeats (see ``_MoveTable``)."""

    @pytest.mark.parametrize("s", LEMMA_SURFACES, ids=str)
    def test_each_substitution_is_an_insertion_at_its_position(self, s):
        table = braid._move_table(s)
        inserts = table_insertions(table)
        # the reference's substitutions: the table holds no copy of them
        for removed, inserted, _ in ref_substitutions(s):
            assert inserted + inverse_word(removed) in inserts, (removed, inserted)

    @pytest.mark.parametrize("s", LEMMA_SURFACES, ids=str)
    def test_each_skip_has_an_insertion_one_position_earlier(self, s):
        table = braid._move_table(s)
        inserts = table_insertions(table)
        for inserted, h, earlier in skipped_insertions(table):
            assert h in (inserted[-1:], inverse_word(inserted[:1]))
            assert earlier in inserts, (inserted, h)
        # the skips are not vacuous where relators exist
        assert bool(skipped_insertions(table)) == bool(relators(s))

    @settings(max_examples=300, deadline=None)
    @given(lemma_cases())
    def test_both_rewrites_give_the_same_word(self, case):
        w, (move, repeat) = case
        assert apply_move(w, move) == apply_move(w, repeat)

    def test_depth_two_nodes_and_moves_are_pinned(self):
        # the statuses and moves of the search over every relator move,
        # substitutions included; the nodes are the first level's words
        s = SurfaceParams(1, 0, 2)
        u = parse_braid_word("a1 s1 b1", s)
        eq = bounded_equal(u, parse_braid_word("a1 s1 b1 s1", s), s, depth=2)
        assert eq == Equality("unknown", nodes=186)
        u = parse_braid_word("b1 s1^-1", s)
        v = parse_braid_word(
            "b1 s1^-1 a1 s1^-1 a1 a1 b1^-1 a1^-1 b1 s1^-1 a1^-1 s1 a1^-1 s1^-1", s)
        eq = bounded_equal(u, v, s, depth=2)
        assert eq == Equality("equal", (
            Move(1, (), parse_braid_word("s1^-1 a1 s1^-1 a1 s1 a1^-1 s1 a1^-1", s), "2.ii"),
            Move(5, (), parse_braid_word("a1 b1^-1 a1^-1 b1 s1^-1 s1^-1", s), "2.iv"),
        ), 140)


class TestWreathImageIsAHomomorphism:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_product_maps_to_product(self, data):
        # a bounded surface (free beads), the closed torus (exponent form) and
        # closed genus 2 (rewriting normal form)
        s = data.draw(st.sampled_from([S123, SurfaceParams(1, 0, 3), SurfaceParams(2, 0, 3)]))
        words = st.lists(st.sampled_from(alphabet(s)), max_size=8).map(tuple)
        u, v = data.draw(words), data.draw(words)
        assert wreath_image(u + v, s) == wreath_image(u, s) * wreath_image(v, s)


def fold_wreath_image(word, s):
    """The image as the product of the letters' images, one `WreathElement`
    per letter: the definition that `wreath_image` evaluates in one pass."""
    check_braid_word(word, s)
    n = s.strands
    acc = WreathElement.identity(s)
    for kind, idx, sign in word:
        if kind == "s":
            step = WreathElement(s, ((),) * n, transposition_perm(n, idx))
        else:
            beads = (((kind, idx, sign),),) + ((),) * (n - 1)
            step = WreathElement(s, beads, identity_perm(n))
        acc = acc * step
    return acc


# an open surface, the closed torus, closed genus 2, the sphere (no loop
# letters) and one strand (no crossings)
ONE_PASS_SURFACES = [S123, SurfaceParams(1, 0, 3), SurfaceParams(2, 0, 2),
                     SurfaceParams(0, 0, 3), SurfaceParams(2, 1, 1)]


class TestOnePassWreathImage:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_fold(self, data):
        s = data.draw(st.sampled_from(ONE_PASS_SURFACES))
        word = data.draw(st.lists(st.sampled_from(alphabet(s)), max_size=30).map(tuple))
        assert wreath_image(word, s) == fold_wreath_image(word, s)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_strand_permutation_is_the_image_permutation(self, data):
        s = data.draw(st.sampled_from(ONE_PASS_SURFACES))
        word = data.draw(st.lists(st.sampled_from(alphabet(s)), max_size=30).map(tuple))
        assert strand_permutation(word, s.strands) == wreath_image(word, s).perm

    def test_strand_permutation_rejects_crossings_out_of_range(self):
        for idx in (0, 3, -1):
            with pytest.raises(InvalidGeneratorError, match="out of range"):
                strand_permutation((("s", 1, 1), ("s", idx, 1)), 3)

    def test_normalizes_each_strand_once(self, monkeypatch):
        # a per-letter fold would normalize every strand at every letter
        calls = []
        original = braid.pi1_normalize

        def counting(word, s):
            calls.append(word)
            return original(word, s)

        monkeypatch.setattr(braid, "pi1_normalize", counting)
        rng = random.Random(7)
        for s in ONE_PASS_SURFACES:
            for length in (0, 1, 5, 30, 120):
                word = tuple(rng.choices(alphabet(s), k=length))
                del calls[:]
                wreath_image(word, s)
                assert len(calls) == s.strands, (s, length)


@st.composite
def shadow_changing_moves(draw):
    """A move whose two sides have different wreath images: random words, or
    a relator split into removed . inserted^-1 with one letter changed."""
    s = draw(st.sampled_from(SURFACES))
    letters = st.sampled_from(alphabet(s))
    rels = relators(s)
    if rels and draw(st.booleans()):
        word = draw(st.sampled_from(rels)).word
        cut = draw(st.integers(0, len(word)))
        removed, inserted = word[:cut], inverse_word(word[cut:])
        i = draw(st.integers(0, len(inserted)))
        inserted = free_reduce(inserted[:i] + (draw(letters),) + inserted[i + 1:])
    else:
        words = st.lists(letters, max_size=8).map(lambda w: free_reduce(tuple(w)))
        removed, inserted = draw(words), draw(words)
    assume(wreath_image(removed, s) != wreath_image(inserted, s))
    return s, Move(0, removed, inserted, "")


class TestIsRelatorMove:
    @pytest.mark.parametrize("g,p,n", [(1, 1, 2), (1, 0, 3), (2, 0, 2), (2, 1, 3), (0, 2, 3)])
    def test_accepts_every_move_of_the_table(self, g, p, n):
        # the table's insertions, and the substitutions it holds no copy of
        s = SurfaceParams(g, p, n)
        table = braid._MoveTable(s)
        moves = [Move(0, (), table.decode(inserted), family)
                 for inserted, family, *_ in table.inserts]
        moves += [Move(0, *piece) for piece in ref_substitutions(s)]
        assert moves and all(is_relator_move(mv, s) for mv in moves)

    def test_accepts_a_relator_conjugate_and_the_handle_move(self):
        x = parse_braid_word("b1 s1", S112)
        for rel in relators(S112):
            conjugate = free_reduce(x + rel.word + inverse_word(x))
            assert is_relator_move(Move(0, (), conjugate, rel.family), S112)
        # [a1, s1^-1 b1 s1^-1] = s1^2: the 2.iii relator is not cyclically reduced
        commutator = parse_braid_word("a1 s1^-1 b1 s1^-1 a1^-1 s1 b1^-1 s1", S112)
        square = parse_braid_word("s1 s1", S112)
        handle = [rel for rel in relators(S112) if rel.family == "2.iii"]
        # the move names the relator it matched, and None when none matches
        assert [is_relator_move(Move(0, commutator, square, "2.iii"), S112)] == handle
        assert is_relator_move(Move(0, commutator, inverse_word(square), "2.iii"), S112) is None
        # the shadow cannot tell s1^2 from 1, the catalogue can
        assert wreath_image(square, S112).is_identity
        assert is_relator_move(Move(0, square, (), ""), S112) is None

    @settings(max_examples=200, deadline=None)
    @given(shadow_changing_moves())
    def test_rejects_moves_that_change_the_shadow(self, case):
        s, move = case
        assert not is_relator_move(move, s)
