"""Commutative quotient in chord degree <= 1 and the integer torsion check."""

import random
import time
from fractions import Fraction

import pytest

from surfbraid import abelianization
from surfbraid.abelianization import (
    MAX_FRAMED_ROWS,
    _framed_instances,
    _framed_row_bound,
    _framed_rows,
    _frames,
    degree_one_torsion,
    format_h1,
    format_h1_key,
    format_torsion_report,
    h1_class,
    h1_degree_zero_report,
    h1_nonzero,
    relation_classes_killed,
)
from surfbraid.braid import identity_perm, transposition_perm
from surfbraid.diagrams import (
    Truncation,
    WreathDiagram,
    bead,
    chord,
    chord_generator,
    conjugated_chord,
    degree_one_symbol,
    relation_instances,
)
from surfbraid.errors import ResourceLimitError, UnsupportedDegreeError
from surfbraid.group_algebra import JSummand
from surfbraid.linalg import span_rank
from surfbraid.surface import SurfaceParams, letter

S112 = SurfaceParams(1, 1, 2)
TR = Truncation(2, 4)
A1 = letter("a", 1)
A1I = letter("a", 1, -1)
B1 = letter("b", 1)

Z12_KEY = (1, 0, ())
TAU_KEY = (0, 1, ())


def one_term(strands, mono, perm=None, coef=1):
    return WreathDiagram.from_term(strands, TR, mono, perm, coef)


class TestH1Class:
    def test_bare_chord(self):
        h = h1_class(chord_generator(2, 1, 2, TR), S112)
        assert h == {Z12_KEY: Fraction(1)}
        assert format_h1(h) == "1 * Z12"

    def test_conjugated_chord_same_class(self):
        h = h1_class(conjugated_chord(S112, 1, 2, (A1,), TR), S112)
        assert h == {Z12_KEY: Fraction(1)}

    def test_transposition_gives_tau(self):
        h = h1_class(one_term(2, (), transposition_perm(2, 1)), S112)
        assert h == {TAU_KEY: Fraction(1)}

    def test_strand_and_order_insensitive(self):
        x = one_term(2, (bead(1, A1), bead(2, B1)))
        y = one_term(2, (bead(2, B1), bead(1, A1)))
        z = one_term(2, (bead(1, B1), bead(1, A1)))
        assert h1_class(x, S112) == h1_class(y, S112) == h1_class(z, S112)

    def test_exponents_accumulate(self):
        x = one_term(2, (bead(1, A1), bead(2, A1), bead(1, B1), bead(1, ("b", 1, -1))))
        h = h1_class(x, S112)
        assert h == {(0, 0, ((("a", 1), 2),)): Fraction(1)}
        assert format_h1_key(next(iter(h))) == "abar1^2"

    def test_tau_squared_is_one(self):
        for n in (2, 3, 4):
            s = SurfaceParams(1, 1, n)
            for i in range(1, n):
                t = WreathDiagram.from_term(n, TR, (), transposition_perm(n, i))
                unit = WreathDiagram.unit(n, TR)
                assert h1_class(t * t, s) == h1_class(unit, s)

    def test_degree_two_unsupported(self):
        x = one_term(2, (chord(1, 2), chord(1, 2)))
        with pytest.raises(UnsupportedDegreeError):
            h1_class(x, S112)

    def test_formatting(self):
        x = one_term(2, (bead(2, A1I), chord(1, 2)), transposition_perm(2, 1))
        assert format_h1(h1_class(x, S112)) == "1 * Z12 * abar1^-1 * tau"
        assert format_h1({}) == "0"


class TestH1Witness:
    def test_nonzero(self):
        w = h1_nonzero({Z12_KEY: Fraction(1)})
        assert w.nonzero and w.monomial == "Z12" and w.coefficient == 1

    def test_zero(self):
        assert not h1_nonzero({}).nonzero
        x = chord_generator(2, 1, 2, TR)
        assert not h1_nonzero(h1_class(x - x, S112)).nonzero

    def test_symbol_class_is_chord(self):
        sym = degree_one_symbol([JSummand(1, (), 1, (("s", 1, 1),))], S112, TR)
        h = h1_class(sym, S112)
        assert h == {Z12_KEY: Fraction(1)}
        assert h1_nonzero(h).nonzero


class TestKilledClasses:
    @pytest.mark.parametrize(
        "s",
        [S112, SurfaceParams(0, 2, 2), SurfaceParams(1, 0, 2), SurfaceParams(1, 1, 3)],
        ids=lambda s: f"g{s.genus}p{s.boundary}n{s.strands}",
    )
    def test_relation_instances_killed(self, s):
        assert relation_classes_killed(s, TR)

    def test_killed_exhaustively_by_hand(self):
        for inst in relation_instances(S112, TR):
            if inst.element.max_chord_degree() <= 1:
                assert h1_class(inst.element, S112) == {}, inst.rid

    def test_commutators_killed(self):
        rng = random.Random(47)
        letters = [A1, A1I, B1]
        for _ in range(40):
            def rand_diag(with_chord):
                perm = list(range(2))
                rng.shuffle(perm)
                mono = [bead(rng.randint(1, 2), rng.choice(letters))
                        for _ in range(rng.randrange(2))]
                if with_chord:
                    mono.insert(rng.randrange(len(mono) + 1), chord(1, 2))
                return one_term(2, tuple(mono), tuple(perm), rng.randint(1, 2))
            x = rand_diag(rng.random() < 0.3)
            y = rand_diag(not x.max_chord_degree())
            comm = x * y - y * x
            if comm.overflow:
                continue
            assert h1_class(comm, S112) == {}


class TestDegreeZeroReport:
    def test_mentions_all_handles(self):
        text = h1_degree_zero_report(SurfaceParams(2, 2, 2))
        for name in ("abar1", "bbar1", "abar2", "bbar2", "zbar1", "tau"):
            assert name in text
        assert "tau^2 = 1" in text


class TestTorsion:
    def test_no_torsion_at_default_truncation(self):
        rep = degree_one_torsion(S112, TR)
        assert rep.torsion_free
        assert rep.divisors_gt_one == ()
        # independent column count: all bead words of length <= 4 with one
        # chord inserted anywhere
        b = 2 * len(S112.pi1_letters())
        expected = sum((b ** k) * (k + 1) for k in range(5))
        assert rep.columns == expected

    def test_no_torsion_closed(self):
        rep = degree_one_torsion(SurfaceParams(1, 0, 2), TR)
        assert rep.torsion_free

    def test_report_format(self):
        rep = degree_one_torsion(SurfaceParams(0, 2, 2), TR)
        text = format_torsion_report(rep)
        assert "torsion-free: yes" in text
        assert "elementary divisors > 1: none" in text
        assert "genus=0 boundary=2 strands=2" in text
        assert f"relation rows: {rep.rows}, rank {rep.rank}" in text

    @pytest.mark.parametrize("g, p, n, beads, rank", [
        (0, 2, 2, 4, 1552),
        (1, 1, 2, 3, 2040),
        (2, 0, 2, 2, 610),  # its ClosedSum rows are not unit differences
    ])
    def test_rank_is_rational_rank(self, g, p, n, beads, rank):
        s, trunc = SurfaceParams(g, p, n), Truncation(max_beads=beads)
        rep = degree_one_torsion(s, trunc)
        assert rep.rank == span_rank(_framed_rows(s, trunc)) == rank

    @pytest.mark.parametrize("g, p, n, beads", [
        (1, 1, 2, 3), (0, 2, 2, 4), (2, 0, 2, 2), (0, 1, 3, 2),
    ])
    def test_row_bound_counts_the_frames(self, g, p, n, beads):
        s, trunc = SurfaceParams(g, p, n), Truncation(max_beads=beads)
        instances = _framed_instances(s, trunc)
        frames = sum(len(list(_frames(s, fb, fc))) for _, fb, fc in instances)
        assert _framed_row_bound(s, instances) == frames
        assert len(_framed_rows(s, trunc)) <= frames

    def test_row_bound_admits_two_handles_at_four_beads(self):
        # (2,0,2) at 4 beads builds 533,332 rows; it must stay allowed
        s = SurfaceParams(2, 0, 2)
        bound = _framed_row_bound(s, _framed_instances(s, TR))
        assert 533_332 <= bound <= MAX_FRAMED_ROWS

    def test_refuses_before_framing(self, monkeypatch):
        def no_frames(*args):
            raise AssertionError("framed before the size check")

        monkeypatch.setattr(abelianization, "_frames", no_frames)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="over the limit"):
            degree_one_torsion(SurfaceParams(2, 1, 3), Truncation())
        assert time.perf_counter() - start < 1.0
