"""Rewriting systems: normal forms, the overlap check, degree-bounded
completion and counts of normal words, against brute-force oracles."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid.diagrams import Truncation, _normalize_monomial, bead, chord, relation_instances
from surfbraid.rewriting import RewritingSystem, complete
from surfbraid.surface import SurfaceParams


def words_up_to(weights, max_degree):
    """Every word of degree <= max_degree, by degree."""
    out = [[] for _ in range(max_degree + 1)]
    out[0].append(())
    for d in range(1, max_degree + 1):
        for x, w in enumerate(weights):
            if w <= d:
                out[d].extend(u + (x,) for u in out[d - w])
    return out


def contains_factor(word, factors):
    return any(word[i:j] in factors
               for i in range(len(word)) for j in range(i + 1, len(word) + 1))


def quotient_dims(weights, relations, max_degree):
    """Degree by degree: words minus the rank of every framed relation row,
    by Fraction elimination (homogeneous relations only)."""
    words = words_up_to(weights, max_degree)
    dims = []
    for d in range(max_degree + 1):
        pivots = {}
        for rel in relations:
            e = sum(weights[x] for x in next(iter(rel)))
            for du in range(d - e + 1):
                for u in words[du]:
                    for v in words[d - e - du]:
                        row = {}
                        for w, c in rel.items():
                            row[u + w + v] = row.get(u + w + v, 0) + Fraction(c)
                        row = {k: c for k, c in row.items() if c}
                        while row:
                            col = min(row)
                            if col not in pivots:
                                pivots[col] = row
                                break
                            piv = pivots[col]
                            f = row[col] / piv[col]
                            for k, c in piv.items():
                                nv = row.get(k, 0) - f * c
                                if nv:
                                    row[k] = nv
                                else:
                                    row.pop(k, None)
        dims.append(len(words[d]) - len(pivots))
    return dims


class TestReduce:
    def test_commutative_polynomials(self):
        # xy -> yx style rules on three letters: normal words are the sorted
        # ones, so every monomial has exactly one
        rules = {(j, i): {(i, j): 1} for i in range(3) for j in range(i + 1, 3)}
        system = RewritingSystem([1, 1, 1], rules)
        assert system.reduce({(2, 1, 0, 2): 3, (0, 1, 2, 2): -3}) == {}
        assert system.reduce({(2, 0): 1, (1,): Fraction(1, 2)}) == \
            {(0, 2): 1, (1,): Fraction(1, 2)}
        counts = system.normal_word_counts(6)
        assert counts == [(d + 1) * (d + 2) // 2 for d in range(7)]

    def test_unresolved_overlap(self):
        # ABA -> BAB: ABABA rewrites to BABBA and to ABBAB, both normal
        system = RewritingSystem([1, 1], {(0, 1, 0): {(1, 0, 1): 1}})
        assert system.unresolved() == [(0, 1, 0, 1, 0)]
        assert system.reduce({(0, 1, 0, 1, 0): 1}) in (
            {(1, 0, 1, 1, 0): 1}, {(0, 1, 1, 0, 1): 1})

    def test_unresolved_inclusion(self):
        # ABA -> B and B -> A: ABA reaches A one way and AAA the other
        system = RewritingSystem([1, 1], {(0, 1, 0): {(1,): 1}, (1,): {(0,): 1}})
        assert (0, 1, 0) in system.unresolved()
        assert system.unresolved(max_degree=2) == []

    def test_empty_word_tail(self):
        # x X -> 1 and X x -> 1: the free group on one generator
        system = RewritingSystem([1, 1], {(0, 1): {(): 1}, (1, 0): {(): 1}})
        assert system.unresolved() == []
        assert system.reduce({(0, 0, 1, 0, 1, 1, 1): 1}) == {(1,): 1}


class TestCounting:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 2), min_size=1, max_size=3),
           st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=4),
                    max_size=4))
    def test_against_enumeration(self, weights, leads):
        # leading words of any length, one a factor of another allowed
        leads = {tuple(x % len(weights) for x in lead) for lead in leads}
        system = RewritingSystem(weights, {lead: {} for lead in leads})
        words = words_up_to(weights, 7)
        assert system.normal_word_counts(7) == [
            sum(not contains_factor(w, leads) for w in layer) for layer in words]


class TestComplete:
    def test_never_closes_but_exact_to_the_bound(self):
        rel = {(0, 1, 0): 1, (1, 0, 1): -1}
        for bound in (3, 5, 8):
            system = complete([1, 1], [rel], bound)
            assert system.unresolved(bound) == []
            assert system.normal_word_counts(bound) == \
                [1, 2, 4, 7, 12, 20, 33, 54, 88][:bound + 1]
        assert len(complete([1, 1], [rel], 8).rules) == 5

    def test_inconsistent_relations_collapse(self):
        # x = 1 and x = 0 give 1 = 0: the empty word leads, nothing is normal
        system = complete([1], [{(0,): 1, (): -1}, {(0,): 1}], 4)
        assert () in system.rules
        assert system.reduce({(): 1, (0, 0): 2}) == {}
        assert system.normal_word_counts(4) == [0] * 5

    def test_rules_give_way_to_a_smaller_leading_word(self):
        # AAA -> B and AAB -> A overlap in AAAB, which yields AA -> BB, a
        # factor of both leading words: they go back and are reduced again
        rels = [{(0, 0, 0): 1, (1,): -1}, {(0, 0, 1): 1, (0,): -1}]
        system = complete([1, 1], rels, 6)
        assert (0, 0) in system.rules
        assert not [a for a, b in itertools.permutations(system.rules, 2)
                    if contains_factor(b, {a})]
        assert system.unresolved(6) == []
        for rel in rels:
            assert system.reduce(rel) == {}

    def test_records_a_non_unit_leading_coefficient(self):
        # 2x - 2y: x leads with coefficient 2, and the rule x -> y is only
        # rational; +-1 leads record nothing
        system = complete([1, 1], [{(0,): 2, (1,): -2}], 1)
        assert system.non_unit_lead == 2
        assert system.rules == {(0,): {(1,): 1}}
        assert complete([1, 1], [{(0,): -1, (1,): 3}], 1).non_unit_lead is None
        assert RewritingSystem([1]).non_unit_lead is None

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_counts_equal_ranks(self, data):
        # random homogeneous relations, leading coefficients not units
        weights = data.draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
        relations = []
        for _ in range(data.draw(st.integers(1, 3))):
            degree = data.draw(st.integers(2, 3))
            candidates = [w for w in words_up_to(weights, degree)[degree]]
            if not candidates:
                continue
            chosen = data.draw(st.lists(st.sampled_from(candidates),
                                        min_size=1, max_size=3, unique=True))
            coefs = data.draw(st.lists(st.integers(-3, 3).filter(bool),
                                       min_size=len(chosen), max_size=len(chosen)))
            relations.append(dict(zip(chosen, coefs)))
        system = complete(weights, relations, 5)
        assert system.unresolved(5) == []
        assert system.normal_word_counts(5) == quotient_dims(weights, relations, 5)


def bead_rules(s: SurfaceParams):
    """The three rules of the bead normal form, over int letters: an inverse
    bead pair on one strand cancels, a bead slides right across a chord
    (onto the chord's other strand when it sits on the chord), and beads on
    different strands sort by strand."""
    n = s.strands
    beads = [bead(i, let) for i in range(1, n + 1) for let in s.pi1_letters()]
    chords = [chord(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    symbols = beads + chords
    code = {sym: x for x, sym in enumerate(symbols)}
    rules = {}
    for b in beads:
        _, i, (kind, idx, sign) = b
        rules[(code[b], code[bead(i, (kind, idx, -sign))])] = {(): 1}
        for c in chords:
            _, lo, hi = c
            target = {lo: hi, hi: lo}.get(i, i)
            rules[(code[b], code[c])] = {(code[c], code[bead(target, b[2])]): 1}
        for other in beads:
            if b[1] > other[1]:
                rules[(code[b], code[other])] = {(code[other], code[b]): 1}
    return symbols, code, RewritingSystem([1] * len(symbols), rules)


def torus_rules(s: SurfaceParams):
    """The bead rules plus, on each strand of the closed torus, the four
    swaps b1^e a1^d -> a1^d b1^e that carry a strand to its exponent form."""
    symbols, code, system = bead_rules(s)
    for i in range(1, s.strands + 1):
        for e in (1, -1):
            for d in (1, -1):
                b, a = code[bead(i, ("b", 1, e))], code[bead(i, ("a", 1, d))]
                system.add_rule((b, a), {(a, b): 1})
    return symbols, code, system


TORI = [SurfaceParams(1, 0, 2), SurfaceParams(1, 0, 3), SurfaceParams(1, 0, 4)]


class TestBeadRules:
    SURFACES = [SurfaceParams(1, 1, 2), SurfaceParams(0, 2, 3), SurfaceParams(2, 1, 3)]

    def test_every_ambiguity_resolves(self):
        """The bead rules are confluent on every surface with boundary, so a
        non-zero bead normal form proves non-membership in chord degree <= 1
        (``ideal_member`` answers NotMember on it).  Every rule has a leading
        word of two symbols, so an ambiguity word has three symbols: it
        touches at most 4 strands and 3 base letters.  The rules treat all
        strands and all letters alike (only the order of strand labels and
        the inverse of a letter enter), and a reduction brings in no strand
        or letter the word lacks.  So (2,1,4), with 4 strands and the letters
        a1, b1, a2, b2, holds a copy of every ambiguity of every surface with
        boundary, resolved in the same way."""
        for s in self.SURFACES + [SurfaceParams(2, 1, 4)]:
            _, _, system = bead_rules(s)
            assert system.unresolved() == [], s

    def test_same_normal_form_as_the_diagrams(self):
        rng = random.Random(3)
        for s in self.SURFACES:
            symbols, code, system = bead_rules(s)
            beads = [sym for sym in symbols if sym[0] == "B"]
            chords = [sym for sym in symbols if sym[0] == "C"]
            for _ in range(100):
                mono = [rng.choice(beads) for _ in range(rng.randrange(6))]
                if chords and rng.random() < 0.7:
                    mono.insert(rng.randrange(len(mono) + 1), rng.choice(chords))
                nf = _normalize_monomial(tuple(mono), None, 1, [])
                word = tuple(code[sym] for sym in mono)
                assert system.reduce({word: 1}) == \
                    {tuple(code[sym] for sym in nf): 1}, (s, mono)

    def test_torus_rules_resolve_every_ambiguity(self):
        """The torus rules are confluent on every closed torus, so with the
        next test a non-zero exponent form proves non-membership in chord
        degree <= 1 (``ideal_member`` answers NotMember on it).  Every rule
        has a leading word of two symbols, the first a bead, so an
        ambiguity word has three symbols, two of them beads: it touches at
        most 4 strands.  The rules treat all strands alike (only the order
        of strand labels enters), the torus has only the letters a1 and b1,
        and a reduction brings in no strand the word lacks.  So (1,0,4)
        holds a copy of every ambiguity of every closed torus."""
        for s in TORI:
            _, _, system = torus_rules(s)
            assert system.unresolved() == [], s

    def test_torus_rules_reduce_every_relation(self):
        # the chord-degree <= 1 instances, ClosedSum and BeadRelator among
        # them, lie in the ideal of the rules, whose every rule is a
        # certified row of ``ideal_member``: the two ideals agree there
        for s in TORI:
            symbols, code, system = torus_rules(s)
            families = set()
            for inst in relation_instances(s, Truncation(1, 4)):
                families.add(inst.family)
                word = {tuple(code[sym] for sym in mono): c
                        for mono, c in inst.mono_terms()}
                assert system.reduce(word) == {}, inst.rid
            assert {"ClosedSum", "BeadRelator", "BeadPush"} <= families
