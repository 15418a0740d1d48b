"""Rewriting systems: normal forms, the overlap check, degree-bounded
completion and counts of normal words, against brute-force oracles."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surfbraid
from surfbraid.braid import identity_perm
from surfbraid.diagrams import (
    Truncation,
    WreathDiagram,
    bead,
    chord,
    expand_certificate,
    relation_instances,
)
from surfbraid import diagrams, rewriting, surface, symplectic
from surfbraid.errors import ParameterError, ResourceLimitError
from surfbraid.rewriting import RewritingSystem, _add, complete
from surfbraid.surface import SurfaceParams

from oracles import (
    OracleSystem,
    bead_word_series,
    fixed_point_counts,
    oracle_complete,
    rule_table,
    word,
)


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
    # the empty word is a factor of every word
    return () in factors or any(word[i:j] in factors
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


# xy -> yx style rules on three letters: normal words are the sorted ones,
# so every monomial has exactly one
COMMUTATIVE = RewritingSystem(
    [1, 1, 1], {(j, i): {(i, j): 1} for i in range(3) for j in range(i + 1, 3)})
# x X -> 1 and X x -> 1: the free group on one generator
FREE_GROUP = RewritingSystem([1, 1], {(0, 1): {(): 1}, (1, 0): {(): 1}})


class TestReduce:
    def test_commutative_polynomials(self):
        system = COMMUTATIVE
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
        system = FREE_GROUP
        assert system.unresolved() == []
        assert system.reduce({(0, 0, 1, 0, 1, 1, 1): 1}) == {(1,): 1}

    @pytest.mark.parametrize("system", [COMMUTATIVE, FREE_GROUP], ids=["commutative", "free"])
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.lists(st.integers(0, 2), max_size=6).map(tuple),
                           st.integers(-3, 3), max_size=5))
    def test_steps_sum_to_what_reduce_took_away(self, system, comb):
        comb = {tuple(x % len(system.weights) for x in w): c for w, c in comb.items()}
        steps = []
        removed = {}
        for w, c in comb.items():
            _add(removed, w, c)
        for w, c in system.reduce(comb, steps).items():
            _add(removed, w, -c)
        for coef, left, lead, right in steps:
            _add(removed, left + lead + right, -coef)
            for w, c in system.rules[lead].items():
                _add(removed, left + w + right, coef * c)
        assert removed == {}


WORDS = st.lists(st.integers(0, 2), max_size=5).map(tuple)
# leads in letters 0 and 1, so that they often share a first letter, and the
# empty lead, which leads every word, once among the 15
LEADS = st.sampled_from([()] + [w for k in (1, 2, 3)
                                 for w in itertools.product(range(2), repeat=k)])
COEFS = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3)


def assert_same_completion(got, expected):
    assert list(got.rules.items()) == list(expected.rules.items())
    assert list(got.derivations.items()) == list(expected.derivations.items())
    assert got.non_unit_lead == expected.non_unit_lead


class TestAgainstTheOracle:
    """``reduce`` finds its work through the leading words' indexes, and
    ``complete`` searches only the rules that share a letter: both must do
    exactly what trying every lead and every rule does."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reduce_takes_the_oracle_steps(self, data):
        # leads of lengths 0..3, one a prefix of another allowed, added and
        # removed at random; every tail word follows its lead in the order,
        # so the rules terminate
        weights = data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
        system, oracle = RewritingSystem(weights), OracleSystem(weights)
        for _ in range(data.draw(st.integers(1, 12))):
            if system.rules and data.draw(st.booleans()):
                lead = data.draw(st.sampled_from(sorted(system.rules)))
                assert system.remove_rule(lead) == oracle.remove_rule(lead)
            else:
                lead = data.draw(LEADS)
                if lead in system.rules:
                    continue
                tail = data.draw(st.dictionaries(WORDS, COEFS, max_size=3))
                tail = {w: c for w, c in tail.items()
                        if system.order_key(w) > system.order_key(lead)}
                system.add_rule(lead, tail)
                oracle.add_rule(lead, tail)
            # each lead followed by each letter meets every lead it prefixes
            comb = {lead + (x,): 1 for lead in system.rules for x in range(3)}
            comb.update(data.draw(st.dictionaries(WORDS, COEFS, max_size=4)))
            steps, oracle_steps = [], []
            assert system.reduce(comb, steps) == oracle.reduce(comb, oracle_steps)
            assert steps == oracle_steps

    def test_lengths_at_one_position_go_in_the_order_they_appeared(self):
        # (0,) and (0, 1) both lead at position 0 of (0, 1); length 2 came
        # first, with (1, 1), so (0, 1) is the one rewritten
        for system in (RewritingSystem([1, 1]), OracleSystem([1, 1])):
            for lead in [(1, 1), (0,), (0, 1)]:
                system.add_rule(lead, {})
            steps = []
            assert system.reduce({(0, 1): 1}, steps) == {}
            assert steps == [(1, (), (0, 1), ())]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 2), min_size=3, max_size=3),
           st.lists(st.dictionaries(st.lists(st.integers(0, 2), max_size=3).map(tuple),
                                    st.integers(-2, 2), min_size=1, max_size=3),
                    min_size=1, max_size=4))
    def test_complete_agrees_on_random_relations(self, weights, relations):
        # inhomogeneous relations too, so the empty word may lead
        assert_same_completion(complete(weights, relations, 5),
                               oracle_complete(weights, relations, 5))

    @pytest.mark.parametrize("module, build", [
        (symplectic, lambda: symplectic._completion(SurfaceParams(1, 1, 3), 4)),
        (surface, lambda: surface._closed_system.__wrapped__(3)),
        (diagrams, lambda: diagrams._box.__wrapped__(
            SurfaceParams(0, 2, 3), (("z", 1),), Truncation(2, 6), 6, 2)),
    ], ids=["symplectic(1,1,3)@4", "closed genus 3", "box(0,2,3)"])
    def test_complete_gives_the_oracle_rules(self, monkeypatch, module, build):
        calls = []

        def recording(weights, relations, bound):
            calls.append((weights, relations, bound))
            return complete(weights, relations, bound)

        monkeypatch.setattr(module, "complete", recording)
        build()
        assert calls
        for args in calls:
            assert_same_completion(complete(*args), oracle_complete(*args))


class TestCounting:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 2), min_size=1, max_size=3),
           st.lists(st.lists(st.integers(0, 2), max_size=4), max_size=4),
           st.sets(st.integers(0, 2)))
    @example([1, 1, 2], [[0, 1], [2, 0, 1, 1]], {0})  # a lead inside another
    @example([1, 1], [[1, 1], []], {1})  # the empty lead: no word is normal
    def test_against_enumeration(self, weights, leads, marked):
        # leading words of any length, one a factor of another allowed
        leads = {tuple(x % len(weights) for x in lead) for lead in leads}
        marked = {x % len(weights) for x in marked}
        system = RewritingSystem(weights, {lead: {} for lead in leads})
        words = words_up_to(weights, 7)
        assert system.normal_word_counts(7) == [
            sum(not contains_factor(w, leads) for w in layer) for layer in words]
        # one marked letter and k others, for k <= 5
        words = words_up_to([1] * len(weights), 6)
        assert rewriting.one_marked_counts(len(weights), marked, leads, 5) == [
            sum(sum(x in marked for x in w) == 1 and not contains_factor(w, leads)
                for w in words[k + 1]) for k in range(6)]

    @pytest.mark.parametrize("weights", [[0, 1], [1, -1], [1, True], [1, 1.0]])
    def test_refuses_a_weight_that_is_not_a_positive_int(self, weights):
        # a letter of weight 0 leaves infinitely many words of degree 0, and
        # one of negative weight lets a longer word have a lower degree
        with pytest.raises(ParameterError, match="positive int"):
            rewriting.normal_word_counts(weights, [], 2)
        with pytest.raises(ParameterError, match="positive int"):
            RewritingSystem(weights)
        with pytest.raises(ParameterError, match="positive int"):
            complete(weights, [], 2)


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


def framed_sum(relations, rows):
    """The sum of ``coef * left relations[index] right`` over ``rows``."""
    total: dict = {}
    for (left, index, right), coef in rows.items():
        for w, c in relations[index].items():
            _add(total, left + w + right, coef * c)
    return total


class TestBoxAndDerivations:
    # x y x - y x y in letters 0, 1 (never closes) and a central letter 2
    RELATIONS = [{(0, 1, 0): 1, (1, 0, 1): -1}, {(0, 2): 1, (2, 0): -1},
                 {(1, 2): 1, (2, 1): -1}]

    def test_box_bound(self):
        # at most 5 of x, y and at most 2 of t
        def box(word):
            return word.count(2) <= 2 and len(word) - word.count(2) <= 5

        system = complete([1, 1, 1], self.RELATIONS, box)
        assert system.unresolved(box) == []
        assert all(box(lead) for lead in system.rules)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_every_derivation_expands_to_its_rule(self, data):
        weights = [1, 1]
        relations = []
        for _ in range(data.draw(st.integers(1, 3))):
            chosen = data.draw(st.lists(st.sampled_from(words_up_to(weights, 3)[3]),
                                        min_size=1, max_size=3, unique=True))
            coefs = data.draw(st.lists(st.integers(-2, 2).filter(bool),
                                       min_size=len(chosen), max_size=len(chosen)))
            relations.append(dict(zip(chosen, coefs)))
        system = complete(weights, relations, 5)
        for lead, tail in system.rules.items():
            difference = {lead: 1}
            for w, c in tail.items():
                _add(difference, w, -c)
            assert framed_sum(relations, system.proof([(1, (), lead, ())])) == difference

    def test_proof_of_a_reduction_to_zero(self):
        system = complete([1, 1, 1], self.RELATIONS, 6)
        # x y t x - t y x y: the central letter moves, then x y x = y x y
        target = {(0, 1, 2, 0, 2): 1, (2, 1, 0, 2, 1): -1}
        steps = []
        assert system.reduce(target, steps) == {}
        assert framed_sum(self.RELATIONS, system.proof(steps)) == target

    def test_refuses_past_the_rule_limit(self, monkeypatch):
        monkeypatch.setattr(rewriting, "MAX_RULES", 3)
        with pytest.raises(ResourceLimitError):
            complete([1, 1], self.RELATIONS[:1], 10)


TORI = [SurfaceParams(1, 0, 2), SurfaceParams(1, 0, 3), SurfaceParams(1, 0, 4)]


def written_rules(s):
    """The rules of the bead normal form written out family by family, as
    chord and bead symbols: an inverse bead pair on one strand cancels, a
    bead slides right across a chord (onto the chord's other strand when it
    sits on the chord), beads on different strands sort by strand, and on
    the closed torus ``b1^e a1^d`` swaps to ``a1^d b1^e``."""
    n = s.strands
    beads = [bead(i, let) for i in range(1, n + 1) for let in s.pi1_letters()]
    chords = [chord(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rules = {}
    for b in beads:
        _, i, (kind, idx, sign) = b
        rules[(b, bead(i, (kind, idx, -sign)))] = {(): 1}
        for c in chords:
            _, lo, hi = c
            rules[(b, c)] = {(c, bead(lo + hi - i, b[2]) if i in (lo, hi) else b): 1}
        for a in beads:
            if a[1] < i:
                rules[(b, a)] = {(a, b): 1}
    if s.closed and s.genus == 1:
        for i in range(1, n + 1):
            for e in (1, -1):
                for d in (1, -1):
                    b, a = bead(i, ("b", 1, e)), bead(i, ("a", 1, d))
                    rules[(b, a)] = {(a, b): 1}
    return rules


class TestBeadRules:
    """The completed rule table that ``_bead_normal_form`` is checked
    against."""

    SURFACES = [SurfaceParams(1, 1, 2), SurfaceParams(0, 2, 3), SurfaceParams(2, 1, 3)]

    @pytest.mark.parametrize("s", [
        SurfaceParams(1, 1, 2), SurfaceParams(0, 2, 3), SurfaceParams(2, 1, 3),
        SurfaceParams(2, 1, 4), SurfaceParams(1, 0, 2), SurfaceParams(1, 0, 3),
        SurfaceParams(1, 0, 4), SurfaceParams(2, 0, 2), SurfaceParams(3, 0, 3),
        SurfaceParams(0, 0, 3)], ids=lambda s: f"g{s.genus}p{s.boundary}n{s.strands}")
    def test_completion_gives_the_written_rules(self, s):
        # the leading words and tails fix every normal form, so every
        # NotMember witness
        table = rule_table(s)
        rules = {table.mono(lead): {table.mono(w): c for w, c in tail.items()}
                 for lead, tail in table.system.rules.items()}
        assert rules == written_rules(s)

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
            assert rule_table(s).system.unresolved() == [], s

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
            assert rule_table(s).system.unresolved() == [], s

    def test_torus_rules_reduce_every_relation(self):
        # the chord-degree <= 1 instances, ClosedSum and BeadRelator among
        # them, lie in the ideal of the rules, whose every rule is a
        # certified row of ``ideal_member``: the two ideals agree there
        for s in TORI:
            table = rule_table(s)
            families = set()
            for inst in relation_instances(s, Truncation(1, 4)):
                families.add(inst.family)
                coded = {word(table, mono): c for mono, c in inst.mono_terms()}
                assert table.system.reduce(coded) == {}, inst.rid
            assert {"ClosedSum", "BeadRelator", "BeadPush"} <= families

    @pytest.mark.parametrize("s", [SurfaceParams(2, 1, 4), SurfaceParams(1, 0, 4)])
    def test_every_rule_is_proven(self, s):
        """Every rule's proof re-expands to its leading word minus its tail,
        so every rewriting step of a certificate is a sum of relation rows.
        A rule touches at most 3 strands and 2 base letters, and its proof
        neither, so by the argument of the two tests above these surfaces
        hold a copy of every rule of every surface with boundary and of
        every closed torus."""
        trunc = Truncation(1, 4)
        table = rule_table(s)
        by_id = {inst.rid: inst for inst in relation_instances(s, trunc)}
        ident = identity_perm(s.strands)
        for lead, tail in table.system.rules.items():
            proof = table.rows([(1, (), lead, ())], ident)
            difference = WreathDiagram(s.strands, trunc, {(table.mono(lead), ident): 1}) - \
                WreathDiagram(s.strands, trunc,
                              {(table.mono(w), ident): c for w, c in tail.items()})
            assert expand_certificate(proof, by_id, s.strands, trunc) == difference, \
                table.mono(lead)



@pytest.mark.parametrize("s, beads", [
    (SurfaceParams(1, 1, 2), (5, 4)), (SurfaceParams(0, 2, 3), (4, 4)),
    (SurfaceParams(2, 1, 2), (4, 3)), (SurfaceParams(1, 2, 2), (4, 3)),
    (SurfaceParams(1, 0, 2), (5, 4)), (SurfaceParams(1, 0, 3), (4, 3)),
    (SurfaceParams(1, 1, 3), (4, 3))], ids=lambda v: f"g{v.genus}p{v.boundary}n{v.strands}"
    if isinstance(v, SurfaceParams) else f"beads{v[0]},{v[1]}")
def test_bead_normal_words_follow_the_growth_series(s, beads):
    # every monomial with no chord, up to beads[0] beads, and with one
    # chord, up to beads[1], is normalized: the fixed points are one word of
    # the strand's group per strand (Gamma(t)^n) after at most one chord
    for chords in (0, 1):
        assert fixed_point_counts(s, chords, beads[chords]) == \
            bead_word_series(s, chords, beads[chords])


def test_every_rule_of_the_package_comes_from_complete():
    # a rule or a derivation written in by hand would reduce with a proof
    # that no completion checked
    offenders = []
    for path in sorted(Path(surfbraid.__file__).parent.glob("*.py")):
        if path.name == "rewriting.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            adds = isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_rule"
            writes = any(isinstance(sub, ast.Attribute) and sub.attr == "derivations"
                         for target in targets for sub in ast.walk(target))
            if adds or writes:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
