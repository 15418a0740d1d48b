"""Graded algebra of handle generators and chords: dimensions and redundancy."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surfbraid import symplectic
from surfbraid.errors import HypothesisError, ParameterError, ResourceLimitError
from surfbraid.linalg import ExactReducer
from surfbraid.surface import SurfaceParams
from surfbraid.symplectic import (
    dims_table,
    generator_degree,
    symp_generators,
    symp_graded_dim,
    symp_relations,
    symp_twist_redundancy,
    word_degree,
    words_of_degree,
)

import oracles


def brute_rank(rows):
    """Fraction Gaussian elimination, independent of the library."""
    basis = []
    for row in rows:
        work = {k: Fraction(v) for k, v in row.items() if v}
        for piv, body in basis:
            if piv in work:
                f = work[piv] / body[piv]
                for c, v in body.items():
                    w = work.get(c, 0) - f * v
                    if w:
                        work[c] = w
                    elif c in work:
                        del work[c]
        if work:
            basis.append((min(work), work))
    return len(basis)


def brute_graded_dim(s, d):
    """Independent oracle: words of degree d minus the rank of all framed
    relation rows, with its own word enumeration."""
    gens = symp_generators(s)

    def words(deg):
        if deg == 0:
            return [()]
        out = []
        for g in gens:
            dg = generator_degree(g)
            if dg <= deg:
                out.extend((g,) + w for w in words(deg - dg))
        return out

    if d == 0:
        return 1
    all_words = words(d)
    rows = []
    for rel in symp_relations(s, d):
        dr = word_degree(next(iter(rel)))
        for du in range(d - dr + 1):
            dv = d - dr - du
            for u in words(du):
                for v in words(dv):
                    row = {}
                    for w, c in rel.items():
                        key = u + w + v
                        row[key] = row.get(key, 0) + c
                    rows.append(row)
    return len(all_words) - brute_rank(rows)


def rank_graded_dim(s, d, relations=None, word_cap=200000):
    """The fast rank oracle: degree-d words minus the exact rank of all
    framed relation rows, the words as columns in lexicographic order."""
    if d < 0:
        raise ParameterError("degree must be non-negative")
    if d == 0:
        return 1
    words = words_of_degree(s, d, word_cap)
    if d == 1:
        return len(words)
    if relations is None:
        relations = symp_relations(s, d)
    reducer = ExactReducer()
    reducer.contains({w: 1 for w in words})  # interns the columns in lex order
    # every relation has degree >= 2, so the frames u, v have degree <= d - 2
    by_degree = {dd: words_of_degree(s, dd, word_cap) for dd in range(d - 1)}
    for rel in relations:
        dr = word_degree(next(iter(rel)))
        if dr < 2:
            raise ParameterError("relations start in degree 2")
        if dr > d:
            continue
        for du in range(d - dr + 1):
            dv = d - dr - du
            for u in by_degree[du]:
                for v in by_degree[dv]:
                    row = {}
                    for w, c in rel.items():
                        key = u + w + v
                        row[key] = row.get(key, 0) + c
                    reducer.insert({k: c for k, c in row.items() if c})
    return len(words) - reducer.rank


def surface_id(surface):
    return "-".join(map(str, surface))


GEN_S110 = SurfaceParams(genus=1, boundary=0, strands=1)
GEN_S120 = SurfaceParams(genus=1, boundary=0, strands=2)


class TestGenerators:
    def test_census(self):
        gens = symp_generators(SurfaceParams(1, 1, 2))
        assert ("A", 1, 1) in gens and ("B", 1, 2) in gens
        assert ("Z", 1, 2) in gens
        assert ("Zb", 3, 1) in gens and ("Zb", 3, 2) in gens
        assert len(gens) == 4 + 1 + 2

    def test_fiber_order(self):
        # strand by strand; on each strand its chords come before its beads
        assert symp_generators(SurfaceParams(1, 1, 2)) == [
            ("Zb", 3, 1), ("A", 1, 1), ("B", 1, 1),
            ("Z", 1, 2), ("Zb", 3, 2), ("A", 1, 2), ("B", 1, 2),
        ]

    def test_degrees(self):
        assert generator_degree(("A", 1, 1)) == 1
        assert generator_degree(("Z", 1, 2)) == 2
        assert generator_degree(("Zb", 3, 1)) == 2
        assert word_degree((("A", 1, 1), ("Z", 1, 2))) == 3


class TestRelations:
    def test_single_strand_torus(self):
        rels = symp_relations(GEN_S110, 2)
        assert rels == [{(("A", 1, 1), ("B", 1, 1)): 1, (("B", 1, 1), ("A", 1, 1)): -1}]

    def test_twist_relation_present(self):
        rels = symp_relations(GEN_S120, 2)
        twist = {
            (("A", 1, 1), ("B", 1, 2)): 1,
            (("B", 1, 2), ("A", 1, 1)): -1,
            (("Z", 1, 2),): -1,
        }
        assert twist in rels

    def test_infinitesimal_braid_present(self):
        rels = symp_relations(SurfaceParams(0, 1, 3), 4)
        four_t = {
            (("Z", 1, 2), ("Z", 2, 3)): 1,
            (("Z", 2, 3), ("Z", 1, 2)): -1,
            (("Z", 1, 2), ("Z", 1, 3)): 1,
            (("Z", 1, 3), ("Z", 1, 2)): -1,
        }
        assert four_t in rels

    def test_homogeneous(self):
        for s in (GEN_S120, SurfaceParams(1, 1, 2), SurfaceParams(0, 2, 3)):
            for rel in symp_relations(s, 6):
                degs = {word_degree(w) for w in rel}
                assert len(degs) == 1

    def test_degree_floor(self):
        with pytest.raises(ParameterError):
            symp_relations(GEN_S120, 1)


class TestDimensions:
    def test_degree_zero_is_one(self):
        for s in (GEN_S110, GEN_S120, SurfaceParams(0, 2, 2)):
            assert symp_graded_dim(s, 0) == 1

    def test_degree_one_counts_handle_generators(self):
        for g, n in ((1, 1), (1, 2), (2, 2), (2, 3)):
            s = SurfaceParams(genus=g, boundary=0, strands=n)
            assert symp_graded_dim(s, 1) == 2 * g * n

    def test_torus_one_strand_degree_two(self):
        assert symp_graded_dim(GEN_S110, 2) == 3

    def test_matches_brute_force_somewhere(self):
        # spot checks here; the full parameter grid runs in the acceptance
        # suite; closed genus >= 2 has no product formula, so this oracle
        # is its check
        for s, d in [
            (GEN_S110, 3),
            (GEN_S120, 2),
            (SurfaceParams(0, 1, 2), 4),
            (SurfaceParams(1, 1, 1), 2),
            (SurfaceParams(2, 0, 1), 4),
            (SurfaceParams(2, 0, 2), 3),
            (SurfaceParams(3, 0, 1), 3),
        ]:
            assert symp_graded_dim(s, d) == brute_graded_dim(s, d), (s, d)

    @pytest.mark.parametrize("surface, dmax", [
        ((1, 0, 2), 12), ((1, 1, 3), 10), ((1, 1, 2), 12), ((0, 2, 3), 12),
        ((2, 1, 2), 10), ((1, 2, 2), 10), ((0, 1, 4), 10), ((0, 3, 3), 10),
    ], ids=["closed-torus", "bounded", "1-1-2", "0-2-3", "2-1-2", "1-2-2",
            "0-1-4", "0-3-3"])
    def test_matches_hilbert_series(self, surface, dmax):
        s = SurfaceParams(*surface)
        dims = [int(line.split()[1]) for line in dims_table(s, dmax).splitlines()]
        assert dims == oracles.hilbert_series(*surface, dmax)
        assert symp_graded_dim(s, dmax) == dims[dmax]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 3), st.integers(1, 3), st.integers(0, 12))
    def test_matches_hilbert_series_at_random(self, g, p, n, d):
        assume(p >= 1 or g == 1)
        dim = symp_graded_dim(SurfaceParams(g, p, n), d)
        assert dim == oracles.hilbert_series(g, p, n, d)[d]

    @pytest.mark.parametrize("surface", [(1, 0, 3), (2, 0, 2), (3, 0, 1)], ids=surface_id)
    def test_closed_surfaces_match_rank_oracle(self, surface):
        # no product formula off the closed torus: the rank is the oracle
        s = SurfaceParams(*surface)
        for d in range(6):
            assert symp_graded_dim(s, d) == rank_graded_dim(s, d), (surface, d)

    def test_completion_that_never_closes(self):
        # ABA = BAB gains a rule in almost every degree; completion to degree
        # d is still exact in degree d
        a, b = ("A", 1, 1), ("B", 1, 1)
        rel = [{(a, b, a): 1, (b, a, b): -1}]
        dims = [symplectic._completion(GEN_S110, d, rel).normal_word_counts(d)[d]
                for d in range(9)]
        assert dims == [1, 2, 4, 7, 12, 20, 33, 54, 88]
        assert dims == [rank_graded_dim(GEN_S110, d, relations=rel) for d in range(9)]

    @pytest.mark.parametrize("surface", [
        (1, 0, 2), (1, 1, 2), (0, 2, 3), (1, 1, 3), (2, 1, 2), (1, 0, 3), (2, 0, 2),
    ], ids=surface_id)
    def test_completion_is_quadratic(self, surface):
        # every leading word is a chord or two letters, none above degree 4,
        # and the overlap check passes in every degree completed
        system = symplectic._completion(SurfaceParams(*surface), 8)
        assert max(len(lead) for lead in system.rules) <= 2
        assert max(system.degree(lead) for lead in system.rules) <= 4
        assert system.unresolved(8) == []

    def test_more_relations_cannot_raise_dimension(self):
        s = GEN_S120
        for d in (2, 3, 4):
            full = symp_relations(s, d)
            partial = full[: len(full) // 2]
            assert symplectic._completion(s, d, partial).normal_word_counts(d)[d] >= \
                symplectic._completion(s, d, full).normal_word_counts(d)[d]

    def test_word_cap(self):
        with pytest.raises(ResourceLimitError):
            words_of_degree(SurfaceParams(2, 0, 3), 4, word_cap=10)

    def test_classical_disk_comparison(self):
        # g = p = 0 regraded: our degree-2c piece must match the classical
        # chord algebra in chord count c, computed by an independent oracle
        # over chord words modulo the four-term and far-commutation rows only
        for n in (2, 3):
            s = SurfaceParams(0, 1, n)  # boundary loop count p-1 = 0: chords only
            chords = [("Z", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            for c in (0, 1, 2):
                words = list(itertools.product(chords, repeat=c))
                rows = []
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        for k in range(1, n + 1):
                            if k in (i, j):
                                continue
                            zij = ("Z", i, j)
                            zjk = ("Z", min(j, k), max(j, k))
                            zik = ("Z", min(i, k), max(i, k))
                            rel = {
                                (zij, zjk): 1, (zjk, zij): -1,
                                (zij, zik): 1, (zik, zij): -1,
                            }
                            for du in range(c - 1):
                                for u in itertools.product(chords, repeat=du):
                                    for v in itertools.product(chords, repeat=c - 2 - du):
                                        row = {}
                                        for w, cf in rel.items():
                                            key = u + w + v
                                            row[key] = row.get(key, 0) + cf
                                        rows.append(row)
                classical = len(words) - brute_rank(rows)
                assert symp_graded_dim(s, 2 * c) == classical, (n, c)


class TestTwistRedundancy:
    def test_redundant_for_torus_strands(self):
        assert symp_twist_redundancy(SurfaceParams(1, 0, 2))
        assert symp_twist_redundancy(SurfaceParams(1, 0, 3))

    @pytest.mark.parametrize("surface", [(1, 0, 2), (1, 1, 3), (2, 0, 2), (1, 2, 2)])
    def test_agrees_with_elimination(self, surface):
        # each chord in the span of the degree-2 relations and of every
        # word of two degree-1 generators
        s = SurfaceParams(*surface)
        reducer = ExactReducer()
        for rel in symp_relations(s, 2):
            reducer.insert(dict(rel))
        for w in words_of_degree(s, 2):
            if all(generator_degree(g) == 1 for g in w):
                reducer.insert({w: 1})
        expected = all(reducer.contains({(("Z", i, j),): 1})
                       for i in range(1, s.strands + 1) for j in range(i + 1, s.strands + 1))
        assert symp_twist_redundancy(s) == expected

    def test_needs_genus(self):
        with pytest.raises(HypothesisError):
            symp_twist_redundancy(SurfaceParams(0, 1, 2))
        with pytest.raises(HypothesisError):
            symp_twist_redundancy(SurfaceParams(1, 0, 1))


class TestDimsTable:
    def test_plain(self):
        body = dims_table(GEN_S110, 2)
        assert body == "0 1\n1 2\n2 3\n"

    def test_one_completion_for_every_degree(self, monkeypatch):
        s = SurfaceParams(1, 1, 2)
        calls = []
        real = symplectic.complete
        monkeypatch.setattr(symplectic, "complete",
                            lambda *a: calls.append(a) or real(*a))
        body = dims_table(s, 6)
        assert len(calls) == 1
        monkeypatch.undo()
        assert body == "".join(f"{d} {symp_graded_dim(s, d)}\n" for d in range(7))

    def test_negative_degree(self):
        with pytest.raises(ParameterError):
            dims_table(GEN_S110, -1)
