"""Commutative quotient in chord degree <= 1 and the integer torsion check."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid import diagrams
from surfbraid.abelianization import (
    degree_one_torsion,
    format_h1,
    format_h1_key,
    format_torsion_report,
    h1_class,
    h1_degree_zero_report,
    h1_nonzero,
    relation_classes_killed,
)
from surfbraid.braid import transposition_perm
from surfbraid.diagrams import (
    RelationInstance,
    Truncation,
    WreathDiagram,
    bead,
    bead_length,
    chord,
    chord_degree,
    chord_generator,
    conjugated_chord,
    degree_one_symbol,
    relation_instances,
)
from surfbraid.errors import (
    HypothesisError,
    ParameterError,
    TruncationOverflowError,
    UnsupportedDegreeError,
)
from surfbraid.group_algebra import JSummand
from surfbraid.linalg import ExactReducer, elementary_divisors
from surfbraid.rewriting import normal_word_counts
from surfbraid.surface import SurfaceParams, letter

from oracles import bead_word_series

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

    def test_integral_classes_are_ints(self):
        # two halves on different strands meet in one class, which is an int
        x = one_term(2, (bead(1, A1), chord(1, 2)), coef=Fraction(1, 2)) \
            + one_term(2, (chord(1, 2), bead(2, A1)), coef=Fraction(1, 2)) \
            + one_term(2, (), transposition_perm(2, 1), coef=Fraction(1, 3))
        h = h1_class(x, S112)
        assert h == {(1, 0, ((("a", 1), 1),)): 1, TAU_KEY: Fraction(1, 3)}
        assert type(h[(1, 0, ((("a", 1), 1),))]) is int
        assert type(h1_nonzero(h1_class(chord_generator(2, 1, 2, TR), S112)).coefficient) is int

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

    def test_overflow_is_refused(self):
        # the square leaves chord degree 1: the product raises rather than
        # hand h1_class an element whose lost terms read as zero
        x = conjugated_chord(S112, 1, 2, (A1,), Truncation(1, 2))
        with pytest.raises(TruncationOverflowError):
            h1_class(x * x, S112)

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
            # one chord and at most two beads: the products fit TR
            assert h1_class(x * y - y * x, S112) == {}


WIDE = Truncation(2, 8)


@pytest.mark.parametrize("s", [S112, SurfaceParams(1, 0, 2)], ids=["bounded", "closed"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_with_an_instance_are_killed(s, data):
    # u * r * v for a chord-degree <= 1 instance r and monomials u, v of at
    # most two beads each, with one chord among all three
    instances = [i.element for i in relation_instances(s, WIDE)
                 if i.element.max_chord_degree() <= 1]
    r = data.draw(st.sampled_from(instances))
    beads = st.lists(st.sampled_from(bead_symbols(s)), max_size=2).map(tuple)
    u, v = data.draw(beads), data.draw(beads)
    if not r.max_chord_degree() and data.draw(st.booleans()):
        z, k = data.draw(st.sampled_from(chord_symbols(s))), data.draw(st.integers(0, len(u)))
        u = u[:k] + (z,) + u[k:]
    product = (WreathDiagram.from_term(s.strands, WIDE, u) * r
               * WreathDiagram.from_term(s.strands, WIDE, v))
    assert h1_class(product, s) == {}


class TestDegreeZeroReport:
    def test_mentions_all_handles(self):
        text = h1_degree_zero_report(SurfaceParams(2, 2, 2))
        for name in ("abar1", "bbar1", "abar2", "bbar2", "zbar1", "tau"):
            assert name in text
        assert "tau^2 = 1" in text


def bead_symbols(s):
    return [bead(i, let) for i in range(1, s.strands + 1) for let in s.pi1_letters()]


def chord_symbols(s):
    return [chord(i, j) for i in range(1, s.strands + 1) for j in range(i + 1, s.strands + 1)]


def degree_one_instances(s, trunc):
    """(terms, free beads, free chords) of each chord-degree <= 1 relation
    instance: what a frame may add beside it within the truncation."""
    out = []
    for inst in relation_instances(s, trunc):
        if inst.element.max_chord_degree() <= 1:
            terms = inst.mono_terms()
            out.append((terms, trunc.max_beads - max(bead_length(m) for m, _ in terms),
                        1 - max(chord_degree(m) for m, _ in terms)))
    return out


def monomials(s, beads, chords):
    """Every monomial of exactly ``beads`` beads and ``chords`` <= 1 chords."""
    out = []
    for bs in itertools.product(bead_symbols(s), repeat=beads):
        if chords:
            out += [bs[:k] + (z,) + bs[k:] for z in chord_symbols(s) for k in range(beads + 1)]
        else:
            out.append(bs)
    return out


def frames(s, free_beads, free_chords):
    """Every (left, right) monomial pair of at most ``free_beads`` beads and
    exactly ``free_chords`` chords between them."""
    for cl, bl in itertools.product(range(free_chords + 1), range(free_beads + 1)):
        for br in range(free_beads - bl + 1):
            for left in monomials(s, bl, cl):
                for right in monomials(s, br, free_chords - cl):
                    yield left, right


def frame_count(s, trunc):
    """How many frames ``framed_rows`` places around the instances, without
    building them: B^b monomials of b beads, and B^b C(n,2) (b+1) with a
    chord."""
    b, z = len(bead_symbols(s)), len(chord_symbols(s))

    def count(beads, chords):
        return b ** beads * (z * (beads + 1) if chords else 1)

    return sum(count(bl, cl) * count(br, fc - cl)
               for _, fb, fc in degree_one_instances(s, trunc)
               for cl in range(fc + 1)
               for bl in range(fb + 1) for br in range(fb - bl + 1))


def framed_rows(s, trunc):
    """The oracle: each chord-degree <= 1 relation instance framed by
    monomials on both sides, one chord in all and at most
    ``trunc.max_beads`` beads, as integer rows over chord-degree-1
    monomials; each distinct row once."""
    rows = {}
    for terms, fb, fc in degree_one_instances(s, trunc):
        for left, right in frames(s, fb, fc):
            row = {}
            for m, c in terms:
                row[left + m + right] = row.get(left + m + right, 0) + int(c)
            row = {m: c for m, c in row.items() if c}
            if row:
                rows.setdefault(frozenset(row.items()), row)
    return list(rows.values())


# every (g, p, n, beads) with g <= 2, p <= 2, n <= 3, beads <= 4 whose
# frames give between 1 and MAX_ROWS rows
MAX_ROWS = 10_000
SMALL_CASES = [
    (g, p, n, beads)
    for g, p, n, beads in itertools.product(range(3), range(3), range(1, 4), range(5))
    if 0 < frame_count(SurfaceParams(g, p, n), Truncation(max_beads=beads)) <= MAX_ROWS
]


def two_count_rank(s, trunc):
    """The oracle: ``degree_one_torsion``'s rank from two full counts of the
    box's normal words of weight 2L + 1, one with chords of weight L + 1
    (one chord and L other letters, or 2L + 1 letters and no chord) and
    one with chords of weight 2L + 2 (no chord): their difference is the
    normal words with one chord."""
    L = trunc.max_beads
    box = diagrams._box(s, tuple(sorted({let[:2] for let in s.pi1_letters()})), trunc, L, 1)
    chords = sum(sym[0] == "C" for sym in box.symbols)
    beads = len(box.symbols) - chords

    def normal_words(chord_weight):
        weights = [chord_weight] * chords + [1] * (beads + 1)
        return normal_word_counts(weights, box.system.rules, 2 * L + 1)[-1]

    columns = chords * sum((k + 1) * beads ** k for k in range(L + 1))
    return columns - (normal_words(L + 1) - normal_words(2 * L + 2))


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
        assert f"relation instances completed: {rep.rows}, rank {rep.rank}" in text
        # the chord-degree <= 1 instances, not the framed rows
        assert rep.rows == len(degree_one_instances(SurfaceParams(0, 2, 2), TR)) == 12

    @pytest.mark.parametrize("g, p, n, beads, rank", [
        (0, 2, 2, 4, 1552),
        (1, 1, 2, 3, 2040),
        (2, 0, 2, 2, 610),  # its ClosedSum rows are not unit differences
    ])
    def test_rank_is_rational_rank(self, g, p, n, beads, rank):
        s, trunc = SurfaceParams(g, p, n), Truncation(max_beads=beads)
        rep = degree_one_torsion(s, trunc)
        reducer = ExactReducer()
        for row in framed_rows(s, trunc):
            reducer.insert(row)
        assert rep.rank == reducer.rank == rank

    @pytest.mark.parametrize("g, p, n, beads", [
        (1, 1, 2, 3), (0, 2, 2, 4), (2, 0, 2, 2), (0, 1, 3, 2),
    ])
    def test_row_bound_counts_the_frames(self, g, p, n, beads):
        # frame_count caps the Smith-form property test below
        s, trunc = SurfaceParams(g, p, n), Truncation(max_beads=beads)
        count = sum(len(list(frames(s, fb, fc)))
                    for _, fb, fc in degree_one_instances(s, trunc))
        assert frame_count(s, trunc) == count
        assert len(framed_rows(s, trunc)) <= count

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_CASES))
    def test_matches_smith_form(self, case):
        # the completion's rank is the Smith rank of the framed rows, and the
        # Smith form finds no divisor above 1 where the completion proves none
        g, p, n, beads = case
        s, trunc = SurfaceParams(g, p, n), Truncation(max_beads=beads)
        rep = degree_one_torsion(s, trunc)
        divisors = elementary_divisors(framed_rows(s, trunc))
        assert rep.rank == len(divisors)
        assert all(d == 1 for d in divisors)
        assert rep.torsion_free and rep.divisors_gt_one == ()

    def test_two_handles_at_four_beads(self):
        # cross-checked once against the Smith form of its 533,332 framed rows
        rep = degree_one_torsion(SurfaceParams(2, 0, 2), TR)
        assert rep.columns == 344865 and rep.rank == 328863
        assert rep.torsion_free

    @pytest.mark.parametrize("g, p, n, beads", [
        (1, 1, 2, 4), (0, 2, 3, 4), (2, 1, 2, 3), (1, 2, 2, 4), (2, 1, 3, 3), (0, 3, 2, 4),
    ])
    def test_rank_from_the_growth_series(self, g, p, n, beads):
        # with a boundary, the normal monomials with one chord are the chord
        # and one normal word of each strand's free group: C(n,2) Gamma(t)^n
        s = SurfaceParams(g, p, n)
        rep = degree_one_torsion(s, Truncation(max_beads=beads))
        assert rep.rank == rep.columns - sum(bead_word_series(s, 1, beads))

    @pytest.mark.parametrize("n, beads, rank, series_rank", [
        (2, 4, 22065, 22416), (3, 3, 20589, 20976),
    ])
    def test_closed_torus_rank_sits_below_the_growth_series(self, n, beads, rank, series_rank):
        # on the closed torus 351 and 387 classes are identified only
        # through frames wider than the window, so the box leaves more
        # normal words than Gamma(t)^n counts
        s = SurfaceParams(1, 0, n)
        rep = degree_one_torsion(s, Truncation(max_beads=beads))
        assert rep.columns - sum(bead_word_series(s, 1, beads)) == series_rank
        assert rep.rank == rank < series_rank

    def test_one_chord_count_matches_the_two_counts(self):
        # every report over g 0-2, p 0-2, n 1-3 and 0-4 beads
        for g, p, n, beads in itertools.product(range(3), range(3), range(1, 4), range(5)):
            s, trunc = SurfaceParams(g, p, n), Truncation(max_beads=beads)
            assert degree_one_torsion(s, trunc).rank == two_count_rank(s, trunc), (g, p, n, beads)

    def test_refuses_on_a_non_unit_leading_coefficient(self, monkeypatch):
        # the box is cached: clear it so that the doubled relations are
        # completed here, and so that no later test reads their box
        real = diagrams.relation_instances

        def doubled(s, trunc):
            return [RelationInstance(i.family, i.rid, i.element.scale(2))
                    for i in real(s, trunc)]

        diagrams._box.cache_clear()
        monkeypatch.setattr(diagrams, "relation_instances", doubled)
        try:
            with pytest.raises(HypothesisError, match=r"leading coefficient -?2\b"):
                degree_one_torsion(S112, Truncation(max_beads=2))
        finally:
            diagrams._box.cache_clear()

    def test_refuses_a_truncation_without_chords(self):
        # no chord-degree-1 monomial fits Truncation(0, 2)
        with pytest.raises(ParameterError):
            degree_one_torsion(S112, Truncation(0, 2))
