"""Graded algebra of handle generators and chords: dimensions and redundancy."""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from surfbraid import symplectic
from surfbraid.errors import HypothesisError, ParameterError, ResourceLimitError
from surfbraid.surface import SurfaceParams
from surfbraid.symplectic import (
    DIMS_FORMAT_TAG,
    dims_table,
    format_symp_word,
    generator_degree,
    symp_generators,
    symp_graded_dim,
    symp_relations,
    symp_twist_redundancy,
    word_degree,
    words_of_degree,
)


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


GEN_S110 = SurfaceParams(genus=1, boundary=0, strands=1)
GEN_S120 = SurfaceParams(genus=1, boundary=0, strands=2)


class TestGenerators:
    def test_census(self):
        gens = symp_generators(SurfaceParams(1, 1, 2))
        assert ("A", 1, 1) in gens and ("B", 1, 2) in gens
        assert ("Z", 1, 2) in gens
        assert ("Zb", 3, 1) in gens and ("Zb", 3, 2) in gens
        assert len(gens) == 4 + 1 + 2

    def test_degrees(self):
        assert generator_degree(("A", 1, 1)) == 1
        assert generator_degree(("Z", 1, 2)) == 2
        assert generator_degree(("Zb", 3, 1)) == 2
        assert word_degree((("A", 1, 1), ("Z", 1, 2))) == 3

    def test_format(self):
        assert format_symp_word(()) == "1"
        assert format_symp_word((("A", 1, 2), ("Z", 1, 2), ("Zb", 3, 1))) == \
            "A1^2 Z(1,2) Z(3,1)b"


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
        # spot checks here; the full parameter grid runs in the acceptance suite
        for s, d in [
            (GEN_S110, 3),
            (GEN_S120, 2),
            (SurfaceParams(0, 1, 2), 4),
            (SurfaceParams(1, 1, 1), 2),
        ]:
            assert symp_graded_dim(s, d) == brute_graded_dim(s, d), (s, d)

    def test_more_relations_cannot_raise_dimension(self):
        s = GEN_S120
        for d in (2, 3, 4):
            full = symp_relations(s, d)
            partial = full[: len(full) // 2]
            assert symp_graded_dim(s, d, relations=partial) >= \
                symp_graded_dim(s, d, relations=full)

    def test_word_cap(self):
        with pytest.raises(ResourceLimitError):
            words_of_degree(SurfaceParams(2, 0, 3), 4, word_cap=10)
        with pytest.raises(ResourceLimitError):
            symp_graded_dim(SurfaceParams(2, 0, 3), 4, word_cap=10)

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

    def test_needs_genus(self):
        with pytest.raises(HypothesisError):
            symp_twist_redundancy(SurfaceParams(0, 1, 2))
        with pytest.raises(HypothesisError):
            symp_twist_redundancy(SurfaceParams(1, 0, 1))


class TestDimsTable:
    def test_plain(self):
        body = dims_table(GEN_S110, 2)
        assert body == "0 1\n1 2\n2 3\n"

    def test_cache_round_trip(self, tmp_path):
        body1 = dims_table(GEN_S110, 2, cache_dir=tmp_path)
        cached = list(tmp_path.iterdir())
        assert len(cached) == 1
        assert cached[0].name == "dims_g1_p0_n1_d2.txt"
        content1 = cached[0].read_bytes()
        assert content1.decode().startswith(DIMS_FORMAT_TAG + "\n")
        body2 = dims_table(GEN_S110, 2, cache_dir=tmp_path)
        assert body2 == body1
        assert cached[0].read_bytes() == content1

    def test_interrupted_write_leaves_no_cache(self, tmp_path, monkeypatch):
        write_text = Path.write_text

        def cut_short(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", cut_short)
        with pytest.raises(OSError):
            dims_table(GEN_S110, 2, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()

        calls = []
        compute = symplectic.dims_table_text
        monkeypatch.setattr(symplectic, "dims_table_text",
                            lambda *a: calls.append(a) or compute(*a))
        assert dims_table(GEN_S110, 2, cache_dir=tmp_path) == "0 1\n1 2\n2 3\n"
        assert len(calls) == 1
        path = tmp_path / "dims_g1_p0_n1_d2.txt"
        assert path.read_text() == DIMS_FORMAT_TAG + "\n0 1\n1 2\n2 3\n"

    def test_stale_header_recomputed(self, tmp_path):
        path = tmp_path / "dims_g1_p0_n1_d2.txt"
        path.write_text("old-format\ngarbage\n")
        body = dims_table(GEN_S110, 2, cache_dir=tmp_path)
        assert body == "0 1\n1 2\n2 3\n"
        assert path.read_text().startswith(DIMS_FORMAT_TAG)
