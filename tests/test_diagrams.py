"""Chord-diagram algebra: products, relation catalog, and ideal membership."""

import functools
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid import diagrams, rewriting
from surfbraid.braid import identity_perm, transposition_perm, wreath_image, parse_braid_word
from surfbraid.diagrams import (
    CertificateTerm,
    Membership,
    Truncation,
    WreathDiagram,
    bead,
    chord,
    chord_degree,
    chord_generator,
    conjugated_chord,
    degree_one_symbol,
    disk_augmentation,
    disk_nonzero,
    embed_wreath,
    expand_certificate,
    format_certificate,
    format_diagram,
    format_monomial,
    ideal_member,
    mono_key,
    parse_diagram,
    parse_monomial,
    relation_instances,
)
from surfbraid.errors import (
    DimensionMismatchError,
    InvalidGeneratorError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    TruncationOverflowError,
    UnsupportedDegreeError,
)
from surfbraid.group_algebra import JSummand
from surfbraid.linalg import ExactReducer
from surfbraid.surface import SurfaceParams, letter

import oracles

S112 = SurfaceParams(1, 1, 2)
S113 = SurfaceParams(1, 1, 3)
S102 = SurfaceParams(1, 0, 2)
TR = Truncation(2, 4)
A1 = letter("a", 1)
A1I = letter("a", 1, -1)
B1 = letter("b", 1)

ID2 = identity_perm(2)


def one_term(strands, mono, perm=None, coef=1, trunc=TR):
    return WreathDiagram.from_term(strands, trunc, mono, perm, coef)


class TestTruncation:
    def test_fits(self):
        t = Truncation(1, 2)
        assert t.fits((chord(1, 2),))
        assert not t.fits((chord(1, 2), chord(1, 2)))
        assert not t.fits((bead(1, A1),) * 3)

    def test_check_names_the_monomial(self):
        mono = (bead(1, A1), chord(1, 2), bead(2, A1I))
        assert Truncation(1, 2).check(mono) is mono
        with pytest.raises(TruncationOverflowError,
                           match=r"a1@1 Z\(1,2\) a1\^-1@2 with 1 chords and 2 beads"):
            Truncation(0, 2).check(mono)
        with pytest.raises(TruncationOverflowError, match=r"1 chords and 2 beads"):
            Truncation(1, 1).check(mono)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Truncation(-1, 2)

    def test_defaults(self):
        t = Truncation()
        assert (t.max_chords, t.max_beads) == (2, 4)


class TestDiagramAlgebra:
    def test_chord_needs_distinct_strands(self):
        with pytest.raises(InvalidGeneratorError):
            chord(1, 1)

    def test_product_right_of_permutation(self):
        x = one_term(2, (chord(1, 2),))
        y = one_term(2, (), transposition_perm(2, 1))
        assert x * y == one_term(2, (chord(1, 2),), transposition_perm(2, 1))

    def test_product_left_of_permutation(self):
        x = one_term(2, (), transposition_perm(2, 1))
        y = one_term(2, (chord(1, 2),), transposition_perm(2, 1))
        assert x * y == one_term(2, (chord(1, 2),), ID2)

    def test_beads_do_not_cancel_in_the_free_model(self):
        x = one_term(2, (bead(1, A1),))
        y = one_term(2, (bead(1, A1I),))
        assert x * y == one_term(2, (bead(1, A1), bead(1, A1I)))

    def test_product_relabels_by_continuation(self):
        # left factor sends strand 1 to position 2, so the right factor's
        # strand-2 bead continues strand 1
        x = one_term(3, (), (1, 2, 0))
        y = one_term(3, (bead(2, B1),))
        assert x * y == one_term(3, (bead(1, B1),), (1, 2, 0))

    def test_associative_with_nontrivial_perms(self):
        rng = random.Random(3)
        letters = [A1, A1I, B1]
        for _ in range(40):
            factors = []
            for _ in range(3):
                perm = list(range(3))
                rng.shuffle(perm)
                mono = tuple(
                    bead(rng.randint(1, 3), rng.choice(letters))
                    for _ in range(rng.randrange(2))
                )
                factors.append(one_term(3, mono, tuple(perm)))
            x, y, z = factors
            assert (x * y) * z == x * (y * z)

    def test_product_past_the_truncation_raises(self):
        # Z * (1 + Z Z) has the term Z inside the truncation and Z Z Z past
        # it: the product raises rather than return the part that fits
        z = one_term(2, (chord(1, 2),))
        y = one_term(2, ()) + one_term(2, (chord(1, 2), chord(1, 2)))
        with pytest.raises(TruncationOverflowError, match=r"3 chords and 0 beads"):
            z * y
        with pytest.raises(TruncationOverflowError, match=r"3 chords and 0 beads"):
            y * z

    def test_from_term_overflow(self):
        with pytest.raises(TruncationOverflowError):
            one_term(2, (chord(1, 2),) * 3)

    def test_linear_ops(self):
        x = one_term(2, (chord(1, 2),))
        y = one_term(2, ())
        z = x + y.scale(Fraction(1, 2))
        assert z.terms[((), ID2)] == Fraction(1, 2)
        assert (z - z).is_zero
        assert (-x + x).is_zero


class TestEmbedAndGenerators:
    def test_embed_wreath(self):
        w = wreath_image(parse_braid_word("a1 s1", S112), S112)
        d = embed_wreath(w, TR)
        assert d == one_term(2, (bead(1, A1),), transposition_perm(2, 1))

    def test_embed_overflow(self):
        w = wreath_image(parse_braid_word("a1 a1 a1 a1 a1", S112), S112)
        with pytest.raises(TruncationOverflowError):
            embed_wreath(w, TR)

    def test_chord_generator(self):
        assert chord_generator(2, 1, 2, TR) == one_term(2, (chord(1, 2),))
        with pytest.raises(InvalidGeneratorError):
            chord_generator(2, 1, 3, TR)
        with pytest.raises(TruncationOverflowError, match=r"1 chords and 0 beads"):
            chord_generator(2, 1, 2, Truncation(0, 4))

    def test_conjugated_chord_empty_conjugator(self):
        assert conjugated_chord(S112, 1, 2, (), TR) == chord_generator(2, 1, 2, TR)

    def test_conjugated_chord_single_letter(self):
        d = conjugated_chord(S112, 1, 2, (A1,), TR)
        assert d == one_term(2, (bead(1, A1), chord(1, 2), bead(1, A1I)))

    def test_conjugated_chord_errors(self):
        with pytest.raises(InvalidGeneratorError):
            conjugated_chord(S112, 1, 1, (), TR)
        with pytest.raises(InvalidGeneratorError):
            conjugated_chord(S112, 1, 2, (letter("z", 1),), TR)
        with pytest.raises(TruncationOverflowError):
            conjugated_chord(S112, 1, 2, (A1, B1, A1), TR)


class TestRelationCatalog:
    def test_families_present(self):
        families = {inst.family for inst in relation_instances(S113, TR)}
        # disjoint chord pairs need four strands, so no ChordFar at n = 3
        assert families == {"BeadBead", "BeadPush", "BeadFar", "FourT", "BeadGroup"}
        wide = {inst.family for inst in relation_instances(SurfaceParams(1, 1, 4), TR)}
        assert "ChordFar" in wide
        closed = {inst.family for inst in relation_instances(S102, TR)}
        assert "ClosedSum" in closed and "BeadRelator" in closed

    def test_chord_symmetry_is_vacuous(self):
        assert not any(
            inst.family == "ChordSym" for inst in relation_instances(S113, TR)
        )

    def test_four_term_instance(self):
        insts = {inst.rid: inst for inst in relation_instances(S113, TR)}
        el = insts["FourT[1,2;3]"].element
        z12, z23, z13 = chord(1, 2), chord(2, 3), chord(1, 3)
        expected = {
            ((z12, z23), identity_perm(3)): Fraction(1),
            ((z12, z13), identity_perm(3)): Fraction(1),
            ((z23, z12), identity_perm(3)): Fraction(-1),
            ((z13, z12), identity_perm(3)): Fraction(-1),
        }
        assert el.terms == expected

    def test_bead_push_sum_form_is_derived(self):
        # the commutator form is the sum of the two slides, so it is not
        # catalogued as an instance of its own
        insts = {inst.rid: inst for inst in relation_instances(S112, TR)}
        z = chord(1, 2)
        slides = insts["BeadPush[a1;1>2]"].element + insts["BeadPush[a1;2>1]"].element
        assert slides.terms == {
            ((bead(1, A1), z), ID2): Fraction(1),
            ((bead(2, A1), z), ID2): Fraction(1),
            ((z, bead(1, A1)), ID2): Fraction(-1),
            ((z, bead(2, A1)), ID2): Fraction(-1),
        }
        assert all(inst.element != slides for inst in insts.values())

    def test_slides_are_live(self):
        rids = {inst.rid for inst in relation_instances(S112, TR)}
        assert {rid for rid in rids if rid.startswith("BeadPush[a1;")} == {
            "BeadPush[a1;1>2]", "BeadPush[a1;2>1]",
        }

    def test_bead_group_instance(self):
        insts = {inst.rid: inst for inst in relation_instances(S112, TR)}
        el = insts["BeadGroup[a1@1]"].element
        assert el.terms == {
            ((bead(1, A1), bead(1, A1I)), ID2): Fraction(1),
            ((), ID2): Fraction(-1),
        }

    def test_closed_relator_instance(self):
        insts = {inst.rid: inst for inst in relation_instances(S102, TR)}
        el = insts["BeadRelator[1;+]"].element
        word = S102.surface_relator()
        assert el.terms == {
            (tuple(bead(1, l) for l in word), ID2): Fraction(1),
            ((), ID2): Fraction(-1),
        }
        assert "ClosedSum[2]" in insts

    def test_all_instances_identity_perm_and_in_window(self):
        for s in (S112, S113, S102):
            for inst in relation_instances(s, TR):
                for (mono, perm) in inst.element.terms:
                    assert perm == identity_perm(s.strands)
                    assert TR.fits(mono)

    def test_instances_homogeneous_in_chord_degree(self):
        from surfbraid.diagrams import chord_degree
        for inst in relation_instances(S113, TR):
            degs = {chord_degree(m) for (m, _) in inst.element.terms}
            assert len(degs) == 1, inst.rid


def _searched(*args, **kwargs):
    raise AssertionError("completed a box for a question the normal form decides")


def verify_certificate(x, membership, s, trunc):
    """Independent re-expansion of a membership certificate."""
    insts = {inst.rid: inst for inst in relation_instances(s, trunc)}
    rebuilt = expand_certificate(membership.certificate, insts, s.strands, trunc)
    assert rebuilt.terms == x.terms


class TestIdealMember:
    def test_zero_is_member_with_empty_certificate(self):
        x = WreathDiagram.zero(2, TR)
        m = ideal_member(x, S112, TR, window=5)
        assert m.is_member and m.certificate == ()

    def test_instances_are_members(self):
        insts = relation_instances(S112, TR)
        rng = random.Random(31)
        for inst in rng.sample(insts, 6):
            m = ideal_member(inst.element, S112, TR, window=5)
            assert m.is_member, inst.rid
            verify_certificate(inst.element, m, S112, TR)

    def test_sum_form_is_member(self):
        insts = {i.rid: i for i in relation_instances(S112, TR)}
        x = insts["BeadPush[a1;1>2]"].element + insts["BeadPush[a1;2>1]"].element
        m = ideal_member(x, S112, TR, window=5)
        assert m.is_member
        verify_certificate(x, m, S112, TR)

    def test_transport_between_strands(self):
        x = conjugated_chord(S112, 1, 2, (A1,), TR)
        y = conjugated_chord(S112, 2, 1, (A1I,), TR)
        m = ideal_member(x - y, S112, TR, window=5)
        assert m.is_member
        verify_certificate(x - y, m, S112, TR)

    def test_transport_monotone_in_window(self):
        x = conjugated_chord(S112, 1, 2, (A1,), TR)
        y = conjugated_chord(S112, 2, 1, (A1I,), TR)
        for window in (5, 6, 7):
            assert ideal_member(x - y, S112, TR, window=window).is_member

    def test_reducible_conjugator_equals_bare_chord(self):
        x = conjugated_chord(S112, 1, 2, (A1, A1I), TR)
        y = chord_generator(2, 1, 2, TR)
        m = ideal_member(x - y, S112, TR, window=5)
        assert m.is_member
        verify_certificate(x - y, m, S112, TR)

    def test_bare_chord_not_in_ideal(self):
        x = chord_generator(2, 1, 2, TR)
        m = ideal_member(x, S112, TR, window=5)
        assert m.status == "not_member"
        assert not m.is_member
        assert m.witness == x

    def test_unit_not_in_ideal(self):
        x = WreathDiagram.unit(2, TR)
        assert ideal_member(x, S112, TR, window=5).status == "not_member"

    def test_windowed_negative_on_closed_genus_two(self, monkeypatch):
        # the normal form stops at the bead rules on closed genus >= 2: the
        # window-6 box of chord degree 1 decides the query.  Rewriting steps
        # are framed only for a certified Member: this negative, and on
        # (1,1,2) an uncertified Member and a NotMember, expand no derivation
        def refuse(self, steps):
            raise AssertionError("proof expanded without a certificate to return")

        s = SurfaceParams(2, 0, 2)
        x = parse_diagram("1 * Z(1,2) a1@1 + -1 * Z(1,2) b1@1", s, TR)
        member = parse_diagram("1 * Z(1,2) a1@1 a1^-1@1 + -1 * Z(1,2)", S112, TR)
        not_member = parse_diagram("1 * Z(1,2) a1@1 + -1 * Z(1,2) b1@1", S112, TR)
        with monkeypatch.context() as patch:
            patch.setattr(rewriting.RewritingSystem, "proof", refuse)
            m = ideal_member(x, s, TR, window=6)
            assert ideal_member(member, S112, TR, certify=False).is_member
            assert ideal_member(not_member, S112, TR).status == "not_member"
        assert m.status == "not_member_at_window" and not m.is_member
        assert not m.witness.is_zero
        rest = ideal_member(x - m.witness, s, TR, window=6)
        assert rest.is_member
        verify_certificate(x - m.witness, rest, s, TR)

    def test_completion_past_the_rule_limit_is_refused(self, monkeypatch):
        # the box is cached: clear it so that it is completed here, whatever
        # ran before; a refusal is not cached
        diagrams._box.cache_clear()
        monkeypatch.setattr(rewriting, "MAX_RULES", 10)
        x = parse_diagram("1 * Z(1,2) Z(1,2) a1@1", S112, TR)
        with pytest.raises(ResourceLimitError):
            ideal_member(x, S112, TR, window=8)
        monkeypatch.undo()
        assert ideal_member(x, S112, TR, window=8).status == "not_member_at_window"
        diagrams._box.cache_clear()

    def test_window_must_cover_truncation(self):
        x = WreathDiagram.zero(2, TR)
        with pytest.raises(ParameterError):
            ideal_member(x, S112, TR, window=3)

    def test_uncertified_mode(self):
        insts = {i.rid: i for i in relation_instances(S112, TR)}
        x = insts["BeadGroup[b1@2]"].element
        m = ideal_member(x, S112, TR, window=5, certify=False)
        assert m.is_member and m.certificate is None

    def test_scaled_and_shifted_members(self):
        insts = {i.rid: i for i in relation_instances(S112, TR)}
        x = insts["BeadBead[a1@1,b1@2]"].element.scale(Fraction(3, 2))
        y = insts["BeadGroup[a1@1]"].element.scale(-2)
        total = x + y
        m = ideal_member(total, S112, TR, window=5)
        assert m.is_member
        verify_certificate(total, m, S112, TR)

    def test_closed_surface_member(self):
        trunc = Truncation(2, 4)
        insts = {i.rid: i for i in relation_instances(S102, trunc)}
        x = insts["ClosedSum[1]"].element
        m = ideal_member(x, S102, trunc, window=5)
        assert m.is_member
        verify_certificate(x, m, S102, trunc)

    def test_growing_pass_closes_torus_commutator(self, monkeypatch):
        # a1 b1^-1 and b1^-1 a1 differ by a surface relator inserted into a
        # shorter monomial; the torus exponent form decides it with no box
        trunc = Truncation()
        x = parse_diagram("1 * a1@1 b1^-1@1 + -1 * b1^-1@1 a1@1", S102, trunc)
        monkeypatch.setattr(diagrams, "_box", _searched)
        m = ideal_member(x, S102, trunc, window=6)
        assert m.is_member and m.certificate
        verify_certificate(x, m, S102, trunc)

    def test_query_on_other_strands_is_refused(self):
        x = parse_diagram("1 * Z(2,3)", S113, TR)
        with pytest.raises(DimensionMismatchError):
            ideal_member(x, S112, TR)

    def test_query_outside_the_truncation_is_refused(self):
        # relation_instances drops what does not fit the truncation, so a
        # certificate could name an instance that is not there
        x = parse_diagram("1 * a1@1 a1^-1@1 + -1 * 1", S112, TR)
        with pytest.raises(TruncationOverflowError):
            ideal_member(x, S112, Truncation(2, 1), window=5)
        # a product that would leave the window raises before any query
        z = chord_generator(2, 1, 2, TR)
        with pytest.raises(TruncationOverflowError):
            z * z * z


BEAD_FAMILIES = ("BeadGroup", "BeadPush", "BeadFar", "BeadBead")
DEGREE_ONE_FAMILIES = BEAD_FAMILIES + ("ClosedSum", "BeadRelator")


def _surface_id(s):
    return f"g{s.genus}p{s.boundary}n{s.strands}"


def _draw_element(data, s, max_chords, loose, families=BEAD_FAMILIES):
    """A random sum of framed rows of ``families`` and, when ``loose``, of
    loose monomials, each in a random permutation, of chord degree <=
    max_chords."""
    rows = [inst for inst in relation_instances(s, TR) if inst.family in families]
    symbols = oracles.symbols(s)
    frame = st.lists(st.sampled_from(symbols), max_size=1).map(tuple)
    pieces = [data.draw(st.sampled_from(rows)).mono_terms()
              for _ in range(data.draw(st.integers(0, 3)))]
    if loose:
        pieces += [[(tuple(data.draw(st.lists(st.sampled_from(symbols), max_size=4))), 1)]
                   for _ in range(data.draw(st.integers(0, 2)))]
    x = WreathDiagram.zero(s.strands, TR)
    for terms in pieces:
        left, right = data.draw(frame), data.draw(frame)
        perm = tuple(data.draw(st.permutations(range(s.strands))))
        coef = data.draw(st.integers(-3, 3).filter(bool))
        framed = {(left + m + right, perm): coef * c for m, c in terms}
        if all(TR.fits(m) and chord_degree(m) <= max_chords for m, _ in framed):
            x = x + WreathDiagram(s.strands, TR, framed)
    return x


class TestNormalFormDecides:
    """Except on closed surfaces of genus >= 2 the normal form decides
    membership in chord degree <= 1: the bead normal form on a surface with
    boundary and on the sphere, the exponent form on the torus.  Everything
    else goes to a box-truncated completion."""

    @pytest.mark.parametrize(
        "s", [S112, SurfaceParams(0, 2, 3), SurfaceParams(2, 1, 3),
              S102, SurfaceParams(1, 0, 3)], ids=_surface_id)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_member_exactly_when_normal_form_vanishes(self, s, data):
        # with the rules confluent (test_rewriting.TestBeadRules), a witness
        # that is normal and differs from x by a member is x's normal form;
        # on the closed torus that is the exponent form
        x = _draw_element(data, s, max_chords=1, loose=True, families=DEGREE_ONE_FAMILIES)
        m = ideal_member(x, s, TR)
        if m.is_member:
            verify_certificate(x, m, s, TR)
            return
        assert m.status == "not_member" and not m.witness.is_zero
        for mono, _ in m.witness.terms:
            assert oracles.table_normal_form(mono, s) == mono, format_monomial(mono)
        rest = ideal_member(x - m.witness, s, TR)
        assert rest.is_member
        verify_certificate(x - m.witness, rest, s, TR)

    @pytest.mark.parametrize(
        "s", [S112, S113, S102, SurfaceParams(0, 2, 3), SurfaceParams(1, 0, 3),
              SurfaceParams(0, 1, 4)], ids=_surface_id)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_framed_bead_rows_are_members(self, s, data):
        # ChordFar rows need four strands: the disk (0,1,4) has them
        x = _draw_element(data, s, max_chords=2, loose=False,
                          families=BEAD_FAMILIES + ("ChordFar", "FourT"))
        m = ideal_member(x, s, TR)
        assert m.is_member
        verify_certificate(x, m, s, TR)

    def test_torus_commutator_under_chords_needs_no_search(self, monkeypatch):
        s = SurfaceParams(1, 0, 3)
        x = parse_diagram("1 * Z(1,2) Z(1,3) a1@1 b1^-1@1"
                          " + -1 * Z(1,2) Z(1,3) b1^-1@1 a1@1", s, TR)
        monkeypatch.setattr(diagrams, "_box", _searched)
        m = ideal_member(x, s, TR)
        assert m.is_member
        verify_certificate(x, m, s, TR)

    def _negative_at_window(self, x, s):
        # the witness is x's normal form in the window-6 box: its own
        # witness, and x minus it a member
        m = ideal_member(x, s, TR)
        assert m.status == "not_member_at_window"
        assert ideal_member(m.witness, s, TR).witness == m.witness
        rest = ideal_member(x - m.witness, s, TR)
        assert rest.is_member
        verify_certificate(x - m.witness, rest, s, TR)

    def test_open_surface_negative_at_window(self):
        x = parse_diagram("1 * Z(1,2) Z(1,2) a1@1", S112, TR)
        self._negative_at_window(x, S112)

    def test_sphere_negative_at_window(self):
        sphere = SurfaceParams(0, 0, 3)
        x = parse_diagram("1 * Z(1,2) Z(2,3)", sphere, TR)
        self._negative_at_window(x, sphere)

    def test_closed_surface_negative_at_window(self):
        x = parse_diagram("1 * Z(1,2) Z(1,2) a1@1", S102, TR)
        self._negative_at_window(x, S102)

    def _refuse_search(self, monkeypatch):
        monkeypatch.setattr(diagrams, "_box", _searched)
        monkeypatch.setattr(diagrams, "relation_instances", _searched)

    def test_no_search_in_chord_degree_one(self, monkeypatch):
        self._refuse_search(monkeypatch)
        wrong_sign = conjugated_chord(S112, 1, 2, (A1,), TR) \
            + conjugated_chord(S112, 2, 1, (A1I,), TR)
        bead_normal = parse_diagram("1 * Z(1,2) a1@1 + -1 * Z(1,2) b1@1", S112, TR)
        for x, witness in ((bead_normal, bead_normal),
                           (wrong_sign, parse_diagram("2 * Z(1,2) a1^-1@1 a1@2", S112, TR))):
            m = ideal_member(x, S112, TR)
            assert m.status == "not_member"
            assert m.witness == witness

    def test_no_search_on_the_torus_and_the_sphere(self, monkeypatch):
        self._refuse_search(monkeypatch)
        sphere = SurfaceParams(0, 0, 3)
        for s, text in ((S102, "1 * Z(1,2) a1@1 + -1 * Z(1,2) b1@1"),
                        (S102, "1 * Z(1,2)"), (sphere, "1 * Z(1,2)")):
            x = parse_diagram(text, s, TR)
            m = ideal_member(x, s, TR)
            assert m.status == "not_member"
            assert m.witness == x

    @pytest.mark.parametrize("s", [SurfaceParams(3, 1, 5), SurfaceParams(3, 0, 5)],
                             ids=_surface_id)
    def test_large_surfaces_answer_without_a_completion(self, s, monkeypatch):
        # their completed rule tables would pass rewriting.MAX_RULES
        monkeypatch.setattr(diagrams, "complete", _searched)
        x = parse_diagram("1 * a1@1 Z(1,2) a1^-1@2 + -1 * Z(1,2)"
                          " + 1 * b2@3 Z(1,2) a1@1 + -1 * Z(1,2) a1@1 b2@3", s, TR)
        m = ideal_member(x, s, TR)
        assert m.is_member
        verify_certificate(x, m, s, TR)
        if not s.closed:
            # on closed genus >= 2 a non-zero normal form goes on to a box
            x = parse_diagram("1 * Z(1,2) a1@1 + -1 * Z(1,2) a1@2", s, TR)
            m = ideal_member(x, s, TR)
            assert m.status == "not_member" and m.witness == x

    @pytest.mark.parametrize(
        "s", [S112, S102, SurfaceParams(1, 0, 3), SurfaceParams(2, 0, 2),
              SurfaceParams(0, 0, 3), SurfaceParams(0, 2, 3), SurfaceParams(2, 1, 3),
              SurfaceParams(1, 1, 3)], ids=_surface_id)
    def test_normal_form_agrees_with_the_completed_table(self, s):
        # seeded monomials of chord degree 0..2 with up to 8 beads: the same
        # normal form as the table of tests/oracles.py, and rows that
        # re-expand to the monomial minus it
        rng = random.Random(_surface_id(s))
        symbols = oracles.symbols(s)
        beads = [sym for sym in symbols if sym[0] == "B"]
        chords = [sym for sym in symbols if sym[0] == "C"]
        trunc = Truncation(2, 8)
        ident = identity_perm(s.strands)
        for _ in range(150):
            mono = [rng.choice(beads) for _ in range(rng.randint(0, 8 if beads else 0))]
            for _ in range(rng.randint(0, 2)):
                mono.insert(rng.randint(0, len(mono)), rng.choice(chords))
            mono = tuple(mono)
            coef = Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2]))
            rows = []
            form = diagrams._bead_normal_form(mono, s, coef, rows)
            assert form == oracles.table_normal_form(mono, s), format_monomial(mono)
            certificate = [CertificateTerm(*row, ident) for row in rows]
            expected = WreathDiagram(s.strands, trunc, {(mono, ident): coef}) \
                - WreathDiagram(s.strands, trunc, {(form, ident): coef})
            assert expand_certificate(certificate, diagrams._catalogue(s), s.strands,
                                      trunc) == expected


ORACLE_TRUNC = Truncation(2, 3)
ORACLE_WINDOW = 3


def _words(symbols, chords, beads):
    """Every monomial with exactly ``chords`` chords and at most ``beads``
    beads."""
    out, layer = [()], [()]
    for _ in range(chords + beads):
        layer = [m + (sym,) for m in layer for sym in symbols]
        out += layer
    return [m for m in out if chord_degree(m) == chords and len(m) - chords <= beads]


@functools.lru_cache(maxsize=None)
def _oracle_rows(s) -> dict:
    """Every relation instance of ``s`` framed by monomials into a row of
    chord degree 2 whose terms all keep at most the window's beads, grouped
    by bead multidegree (every row is homogeneous in it)."""
    symbols = oracles.symbols(s)
    rows: dict = {}
    for inst in relation_instances(s, ORACLE_TRUNC):
        terms = inst.mono_terms()
        chords = chord_degree(terms[0][0])
        room = ORACLE_WINDOW - max(len(m) - chords for m, _ in terms)
        for outer in sorted(_words(symbols, 2 - chords, room), key=mono_key):
            for cut in range(len(outer) + 1):
                left, right = outer[:cut], outer[cut:]
                row = {left + m + right: c for m, c in terms}
                rows.setdefault(diagrams.bead_multidegree(next(iter(row))), []).append(row)
    return rows


@functools.lru_cache(maxsize=None)
def _oracle_pools(s) -> tuple:
    """The framed rows and the monomials that queries are drawn from."""
    rows = [row for key in sorted(_oracle_rows(s)) for row in _oracle_rows(s)[key]]
    loose = sorted(_words(oracles.symbols(s), 2, ORACLE_WINDOW), key=mono_key)
    return rows, loose


@functools.lru_cache(maxsize=None)
def _oracle_span(s, key) -> ExactReducer:
    reducer = ExactReducer()
    for row in _oracle_rows(s).get(key, ()):
        reducer.insert(row)
    return reducer


def _in_window_span(x, s):
    """Membership of x at the oracle window by elimination over every framed
    row, one bead multidegree at a time."""
    parts: dict = {}
    for (mono, _), c in x.terms.items():
        parts.setdefault(diagrams.bead_multidegree(mono), {})[mono] = c
    return all(_oracle_span(s, key).contains(part) for key, part in parts.items())


class TestWindowedMembershipOracle:
    """The box completion against elimination over every framed row inside
    the window, over all letters of the surface."""

    @pytest.mark.parametrize("s", [S112, SurfaceParams(0, 2, 3)], ids=_surface_id)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_completion_agrees_with_elimination(self, s, data):
        # a random sum of framed rows (a member) and of loose monomials,
        # drawn by index: sampled_from hashes its whole pool at every draw
        trunc = ORACLE_TRUNC
        rows, loose = _oracle_pools(s)
        ident = identity_perm(s.strands)
        x = WreathDiagram.zero(s.strands, trunc)
        for _ in range(data.draw(st.integers(0, 3))):
            row = rows[data.draw(st.integers(0, len(rows) - 1))]
            coef = data.draw(st.integers(-3, 3).filter(bool))
            x = x + WreathDiagram(s.strands, trunc, {(m, ident): coef * c for m, c in row.items()})
        for _ in range(data.draw(st.integers(0, 2))):
            mono = loose[data.draw(st.integers(0, len(loose) - 1))]
            x = x + WreathDiagram(s.strands, trunc, {(mono, ident): data.draw(st.integers(-2, 2))})
        m = ideal_member(x, s, trunc, window=ORACLE_WINDOW)
        assert m.is_member == _in_window_span(x, s)
        if m.is_member:
            verify_certificate(x, m, s, trunc)
        else:
            assert m.status == "not_member_at_window"
            assert _in_window_span(x - m.witness, s)


def _fold_expansion(certificate, instances_by_id, strands, trunc):
    """The term-by-term ``WreathDiagram.__add__`` fold that
    ``expand_certificate`` replaced, kept as its oracle."""
    total = WreathDiagram.zero(strands, trunc)
    for term in certificate:
        inst = instances_by_id[term.relation_id]
        acc: dict = {}
        for mono, c in inst.mono_terms():
            key = (term.left + mono + term.right, term.perm)
            acc[key] = acc.get(key, 0) + c * term.coef
        total = total + WreathDiagram(strands, trunc, acc)
    return total


class TestExpandCertificate:
    @pytest.mark.parametrize("s", [S112, S102], ids=_surface_id)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_fold(self, s, data):
        # relation ids and frames come from small drawn pools so that both
        # repeat, and some terms are repeated negated so that they cancel
        insts = relation_instances(s, TR)
        by_id = {inst.rid: inst for inst in insts}
        symbols = oracles.symbols(s)
        index = st.integers(0, len(insts) - 1)
        rids = [insts[data.draw(index)].rid for _ in range(data.draw(st.integers(1, 3)))]
        frame = st.lists(st.sampled_from(symbols), max_size=2).map(tuple)
        frames = data.draw(st.lists(frame, min_size=1, max_size=3))
        terms = []
        for _ in range(data.draw(st.integers(0, 8))):
            coef = Fraction(data.draw(st.integers(-4, 4).filter(bool)), data.draw(st.integers(1, 3)))
            terms.append(CertificateTerm(
                coef, data.draw(st.sampled_from(frames)), data.draw(st.sampled_from(rids)),
                data.draw(st.sampled_from(frames)), tuple(data.draw(st.permutations(range(s.strands))))))
        cancelled = data.draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
        for term in cancelled:
            terms.insert(data.draw(st.integers(0, len(terms))), replace(term, coef=-term.coef))
        got = expand_certificate(terms, by_id, s.strands, TR)
        assert got == _fold_expansion(terms, by_id, s.strands, TR)

    def test_member_reexpands_without_the_fold(self, monkeypatch):
        insts = {inst.rid: inst.element for inst in relation_instances(S112, TR)}
        push, swap = insts["BeadPush[a1;1>2]"], insts["BeadBead[a1@1,b1@2]"]
        z = chord_generator(2, 1, 2, TR)
        x = push * swap * z + swap * z * push + swap * push * z

        def fold(self, other):
            raise AssertionError("a certificate was summed term by term")

        monkeypatch.setattr(WreathDiagram, "__add__", fold)
        m = ideal_member(x, S112, TR)
        assert m.is_member and len(m.certificate) >= 50
        verify_certificate(x, m, S112, TR)

    def test_unknown_relation_is_named(self):
        by_id = {inst.rid: inst for inst in relation_instances(S112, TR)}
        term = CertificateTerm(Fraction(1), (), "ClosedSum[1]", (), ID2)
        with pytest.raises(ParameterError, match=r"ClosedSum\[1\]"):
            expand_certificate([term], by_id, 2, TR)


def _product_symbol(summands, s, trunc):
    """The symbol as the diagram products embed(u) * (Z; s_i) * embed(v),
    summed: the definition that ``degree_one_symbol`` writes directly."""
    acc: dict = {}
    for t in summands:
        left = embed_wreath(wreath_image(t.left, s), trunc)
        mid = WreathDiagram(
            s.strands, trunc,
            {((chord(t.crossing, t.crossing + 1),),
              transposition_perm(s.strands, t.crossing)): 1},
        )
        right = embed_wreath(wreath_image(t.right, s), trunc)
        for key, c in (left * mid * right).terms.items():
            rewriting._add(acc, key, t.coef * c)
    return WreathDiagram(s.strands, trunc, acc)


def _outcome(f, *args):
    """The terms ``f`` returns, or the type of the error it raises."""
    try:
        return f(*args).terms
    except (TruncationOverflowError, InvalidGeneratorError) as exc:
        return type(exc)


class TestDegreeOneSymbol:
    def test_bare_crossing(self):
        sym = degree_one_symbol([JSummand(1, (), 2, ())], S113, TR)
        assert sym == WreathDiagram.from_term(
            3, TR, (chord(2, 3),), transposition_perm(3, 2)
        )

    def test_squared_crossing_difference(self):
        sym = degree_one_symbol([JSummand(1, (), 1, (("s", 1, 1),))], S112, TR)
        assert sym == one_term(2, (chord(1, 2),), ID2)

    def test_left_decorated(self):
        sym = degree_one_symbol([JSummand(1, (A1,), 1, ())], S112, TR)
        assert sym == one_term(
            2, (bead(1, A1), chord(1, 2)), transposition_perm(2, 1)
        )

    def test_linearity(self):
        t1 = JSummand(2, (), 1, ())
        t2 = JSummand(-1, (A1,), 1, ())
        sym = degree_one_symbol([t1, t2], S112, TR)
        assert sym == degree_one_symbol([t1], S112, TR) + degree_one_symbol([t2], S112, TR)

    def test_overflow_raises(self):
        long_word = (A1, B1, A1, B1, A1)
        with pytest.raises(TruncationOverflowError):
            degree_one_symbol([JSummand(1, long_word, 1, ())], S112, TR)

    def test_first_summand_with_an_error_decides_it(self):
        # three beads left of the chord and two right of it pass the
        # four-bead truncation only together
        long = JSummand(1, (A1, B1, A1), 1, (B1, A1))
        invalid = JSummand(1, (), 2, ())
        with pytest.raises(TruncationOverflowError, match=r"1 chords and 5 beads"):
            degree_one_symbol([long, invalid], S112, TR)
        with pytest.raises(InvalidGeneratorError):
            degree_one_symbol([invalid, long], S112, TR)

    @pytest.mark.parametrize(
        "s", [S112, S113, S102, SurfaceParams(2, 0, 2), SurfaceParams(0, 2, 3)],
        ids=_surface_id)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_products(self, s, data):
        # small truncations overflow on the chord or the beads, some
        # summands are repeated negated so that they cancel, and a few
        # lists carry a crossing out of range
        letters = [("s", i, e) for i in range(1, s.strands) for e in (1, -1)]
        words = st.lists(st.sampled_from(letters + s.pi1_letters()), max_size=4).map(tuple)
        coefs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        summand = st.builds(JSummand, coefs, words, st.integers(1, s.strands - 1), words)
        summands = data.draw(st.lists(summand, max_size=4))
        if summands:
            summands += [replace(t, coef=-t.coef) for t in data.draw(
                st.lists(st.sampled_from(summands), max_size=2))]
        if data.draw(st.integers(0, 9)) == 0:
            summands.append(data.draw(st.builds(
                JSummand, coefs, words, st.sampled_from([0, s.strands]), words)))
        summands = data.draw(st.permutations(summands))
        trunc = data.draw(st.builds(Truncation, st.integers(0, 2), st.integers(0, 5)))
        assert _outcome(degree_one_symbol, summands, s, trunc) == _outcome(
            _product_symbol, summands, s, trunc)


class TestDiskAugmentation:
    def test_erases_beads(self):
        x = conjugated_chord(S112, 1, 2, (A1,), TR)
        assert disk_augmentation(x) == chord_generator(2, 1, 2, TR)

    def test_algebra_map_on_random_pairs(self):
        rng = random.Random(41)
        letters = [A1, A1I, B1]
        for _ in range(30):
            def rand_diag():
                perm = list(range(2))
                rng.shuffle(perm)
                mono = []
                if rng.random() < 0.5:
                    mono.append(chord(1, 2))
                mono += [bead(rng.randint(1, 2), rng.choice(letters))
                         for _ in range(rng.randrange(2))]
                rng.shuffle(mono)
                return one_term(2, tuple(mono), tuple(perm), rng.randint(1, 3))
            x, y = rand_diag(), rand_diag()
            assert disk_augmentation(x * y) == disk_augmentation(x) * disk_augmentation(y)

    def test_nonzero_witness(self):
        assert disk_nonzero(chord_generator(2, 1, 2, TR))
        x = conjugated_chord(S112, 1, 2, (A1,), TR) - chord_generator(2, 1, 2, TR)
        assert not disk_nonzero(x)

    def test_degree_two_unsupported(self):
        x = one_term(2, (chord(1, 2), chord(1, 2)))
        with pytest.raises(UnsupportedDegreeError):
            disk_nonzero(x)

    def test_overflow_is_refused(self):
        # the square has two chords: the product raises, so disk_nonzero
        # never sees an element that lost terms
        x = conjugated_chord(S112, 1, 2, (A1,), Truncation(1, 2))
        with pytest.raises(TruncationOverflowError):
            disk_nonzero(x * x)


def _types(*coefficient_maps) -> set:
    return {type(c) for terms in coefficient_maps for c in terms.values()}


def _fraction_twin(x: WreathDiagram) -> WreathDiagram:
    """``x`` built again from Fraction coefficients."""
    return WreathDiagram(x.strands, x.trunc, {k: Fraction(c) for k, c in x.terms.items()})


class TestCoefficients:
    """A coefficient is an int when it is integral and a Fraction only when
    it is not; a value that is not rational is refused where it comes in."""

    @pytest.mark.parametrize("s", [S112, S102, SurfaceParams(2, 0, 2)], ids=_surface_id)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_int_and_fraction_coefficients_agree(self, s, data):
        # the same diagrams built from ints and from Fractions: equal sums,
        # products, scalings and membership answers, all int-valued, and
        # halving commutes with membership, whose certificates re-expand
        x = _draw_element(data, s, 2, loose=True, families=DEGREE_ONE_FAMILIES)
        y = _draw_element(data, s, 1, loose=True, families=DEGREE_ONE_FAMILIES)
        twin_x, twin_y = _fraction_twin(x), _fraction_twin(y)
        assert (twin_x, twin_y) == (x, y)
        k = data.draw(st.integers(-3, 3))
        pairs = [(x + y, twin_x + twin_y), (x - y, twin_x - twin_y),
                 (x.scale(k), twin_x.scale(Fraction(k))),
                 (_outcome(WreathDiagram.__mul__, x, y), _outcome(WreathDiagram.__mul__, twin_x, twin_y))]
        for got, twin in pairs:
            got, twin = getattr(got, "terms", got), getattr(twin, "terms", twin)
            assert got == twin
            assert isinstance(got, type) or _types(got, twin) <= {int}
        half = twin_x.scale(Fraction(1, 2))
        assert half.scale(2) == x and half + half == x and _types((half + half).terms) <= {int}
        for query in (x - y, x + y):
            whole = ideal_member(query, s, TR, window=4)
            assert ideal_member(_fraction_twin(query), s, TR, window=4) == whole
            halved = ideal_member(query.scale(Fraction(1, 2)), s, TR, window=4)
            assert halved.status == whole.status
            if whole.is_member:
                assert {type(term.coef) for term in whole.certificate} <= {int}
                verify_certificate(query, whole, s, TR)
                verify_certificate(query.scale(Fraction(1, 2)), halved, s, TR)
            else:
                assert _types(whole.witness.terms) <= {int}
                assert halved.witness == whole.witness.scale(Fraction(1, 2))

    @pytest.mark.parametrize("value", [0.1, 0.5, 1.0, 2j], ids=repr)
    def test_an_inexact_coefficient_is_refused(self, value):
        x = one_term(2, (chord(1, 2),))
        with pytest.raises(ParameterError, match=re.escape(repr(value))):
            WreathDiagram(2, TR, {((), ID2): value})
        with pytest.raises(ParameterError, match=re.escape(repr(value))):
            one_term(2, (), coef=value)
        with pytest.raises(ParameterError, match=re.escape(repr(value))):
            x.scale(value)
        with pytest.raises(ParameterError, match=re.escape(repr(value))):
            degree_one_symbol([JSummand(value, (), 1, ())], S112, TR)

    def test_parsed_decimals_stay_exact(self):
        x = parse_diagram("0.6 * a1@1 + 0.4 * a1@1 + 1/2 * Z(1,2)", S112, TR)
        assert x.terms == {((bead(1, A1),), ID2): 1, ((chord(1, 2),), ID2): Fraction(1, 2)}
        assert type(x.terms[((bead(1, A1),), ID2)]) is int

    @pytest.mark.parametrize("s, text", [
        (S102, "1 * b1@1 a1@1 Z(1,2) + -1 * Z(1,2) a1@2 b1@2"),
        # closed genus 2: the box completion answers, and its rows are ints too
        (SurfaceParams(2, 0, 2), "1 * a1@1 b1@1 + -1 * b1@1 a1@1 + 1 * a2@1 b2@1 + -1 * b2@1 a2@1"),
    ], ids=["normal-form", "box"])
    def test_relations_and_rows_are_int_valued(self, s, text):
        insts = relation_instances(s, TR)
        assert _types(*(inst.element.terms for inst in insts)) == {int}
        m = ideal_member(parse_diagram(text, s, TR), s, TR)
        assert m.is_member and {type(term.coef) for term in m.certificate} == {int}


class TestSerialization:
    def test_monomial_round_trip(self):
        text = "a1@1 Z(1,2) a1^-1@1"
        mono = parse_monomial(text, S112)
        assert mono == (bead(1, A1), chord(1, 2), bead(1, A1I))
        assert format_monomial(mono) == text
        assert parse_monomial("1", S112) == ()
        assert format_monomial(()) == "1"

    def test_monomial_errors(self):
        with pytest.raises(ParseError):
            parse_monomial("z1@1", S112)
        with pytest.raises(ParseError):
            parse_monomial("a1@3", S112)
        with pytest.raises(ParseError):
            parse_monomial("Z(1,1)", S112)
        with pytest.raises(ParseError):
            parse_monomial("what", S112)

    def test_diagram_round_trip(self):
        text = "1 * a1@1 Z(1,2) a1^-1@1 ; perm=(1)(2)"
        d = parse_diagram(text, S112, TR)
        assert d == conjugated_chord(S112, 1, 2, (A1,), TR)
        assert format_diagram(d) == text
        assert parse_diagram("0", S112, TR).is_zero
        assert format_diagram(WreathDiagram.zero(2, TR)) == "0"

    def test_diagram_round_trip_normalized_text(self):
        samples = [
            "0",
            "1 * Z(1,2) ; perm=(1)(2)",
            "1/3 * b1^-1@1 Z(1,2) ; perm=(1)(2) + -2 * a1@2 ; perm=(1 2)",
        ]
        for text in samples:
            d = parse_diagram(text, S112, TR)
            assert format_diagram(d) == text
            assert parse_diagram(format_diagram(d), S112, TR) == d

    def test_diagram_parse_overflow(self):
        with pytest.raises(TruncationOverflowError):
            parse_diagram("1 * Z(1,2) Z(1,2) Z(1,2)", S112, TR)

    def test_certificate_format(self):
        term = CertificateTerm(Fraction(1), (), "BeadGroup[a1@1]", (chord(1, 2),), ID2)
        text = format_certificate([term])
        assert text == "1 * [1] . BeadGroup[a1@1] . [Z(1,2)] ; perm=(1)(2)"
        assert format_certificate(()) == "(empty certificate)"


class TestMembershipDataclass:
    def test_is_member(self):
        assert Membership("member").is_member
        assert not Membership("not_member").is_member
        assert not Membership("not_member_at_window").is_member
