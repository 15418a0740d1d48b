"""Chord-diagram algebra: products, relation catalog, and ideal membership."""

import inspect
import random
from fractions import Fraction

import pytest

from surfbraid.braid import identity_perm, transposition_perm, wreath_image, parse_braid_word
from surfbraid.diagrams import (
    CertificateTerm,
    Membership,
    Truncation,
    WreathDiagram,
    _component_member,
    _instance_applicable,
    _normalize_with_trace,
    _support_letters,
    bead,
    chord,
    chord_generator,
    conjugated_chord,
    degree_one_symbol,
    diag_mul,
    disk_augmentation,
    disk_nonzero,
    embed_wreath,
    expand_certificate,
    format_certificate,
    format_diagram,
    format_monomial,
    ideal_member,
    parse_diagram,
    parse_monomial,
    relation_instances,
)
from surfbraid.errors import (
    InvalidGeneratorError,
    ParameterError,
    ParseError,
    TruncationOverflowError,
    UnsupportedDegreeError,
)
from surfbraid.group_algebra import JSummand
from surfbraid.linalg import ExactReducer
from surfbraid.surface import SurfaceParams, letter

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
        assert diag_mul(x, y) == one_term(2, (chord(1, 2),), transposition_perm(2, 1))

    def test_product_left_of_permutation(self):
        x = one_term(2, (), transposition_perm(2, 1))
        y = one_term(2, (chord(1, 2),), transposition_perm(2, 1))
        assert diag_mul(x, y) == one_term(2, (chord(1, 2),), ID2)

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

    def test_overflow_flag_not_silent(self):
        x = one_term(2, (chord(1, 2), chord(1, 2)))
        assert not x.overflow
        y = x * one_term(2, (chord(1, 2),))
        assert y.overflow
        assert y.is_zero  # the out-of-window term is flagged, not kept

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
        assert m.status == "not_found"
        assert not m.is_member

    def test_unit_not_in_ideal(self):
        x = WreathDiagram.unit(2, TR)
        assert ideal_member(x, S112, TR, window=5).status == "not_found"

    def test_failing_saturation_expands_no_combination(self, monkeypatch):
        # the saturation checkpoints (every 256 new ranks within a round) and
        # round ends ask only whether the target is in the span: a search
        # that ends NotFound never expands a combination
        ranks = []
        contains = ExactReducer.contains

        def spy(self, row):
            ranks.append(self.rank)
            return contains(self, row)

        def refuse(self, chain, scale):
            raise AssertionError("combination expanded for a non-member")

        monkeypatch.setattr(ExactReducer, "contains", spy)
        monkeypatch.setattr(ExactReducer, "_expand", refuse)
        x = conjugated_chord(S112, 1, 2, (A1,), TR) - conjugated_chord(S112, 1, 2, (B1,), TR)
        assert ideal_member(x, S112, TR, window=6, max_rows=1000).status == "not_found"
        assert max(ranks) >= 256

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

    def test_growing_pass_closes_torus_commutator(self):
        # a1 b1^-1 and b1^-1 a1 differ by a surface relator inserted into a
        # shorter monomial, so only the pass that allows insertions finds it
        trunc = Truncation()
        x = parse_diagram("1 * a1@1 b1^-1@1 + -1 * b1^-1@1 a1@1", S102, trunc)
        m = ideal_member(x, S102, trunc, window=6)
        assert m.is_member and m.certificate
        verify_certificate(x, m, S102, trunc)
        xn, _ = _normalize_with_trace(x)
        assert {perm for (_, perm) in xn.terms} == {ID2}
        target = {mono: c for (mono, _), c in xn.terms.items()}
        letters = _support_letters(x)
        usable = [inst for inst in relation_instances(S102, trunc)
                  if _instance_applicable(inst, letters)]
        limits = inspect.signature(ideal_member).parameters
        assert _component_member(
            target, usable, 6,
            max_rounds=limits["max_rounds"].default,
            max_rows=limits["max_rows"].default,
            allow_insertions=False) is None


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
        assert not Membership("not_found").is_member
