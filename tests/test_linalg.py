"""Exact sparse elimination, provenance, rank, and elementary divisors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid.linalg import ExactReducer, _dense_smith, elementary_divisors, span_rank


def random_row(rng, cols, width):
    row = {}
    for c in rng.sample(range(cols), rng.randint(1, width)):
        row[c] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if not row[c]:
            del row[c]
    return row


# entries with a denominator above 1, so inserted and queried rows are
# rescaled to integers before elimination
FRACTIONS = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.integers(2, 5)
).filter(lambda f: f.denominator > 1)
SPARSE_ROWS = st.dictionaries(st.integers(0, 7), FRACTIONS, min_size=1, max_size=4)


def combine(rows: dict, combo: dict) -> dict:
    total: dict = {}
    for tag, c in combo.items():
        for col, v in rows[tag].items():
            total[col] = total.get(col, 0) + c * v
    return {col: v for col, v in total.items() if v}


def brute_reduce(rows, target):
    """Fraction Gaussian elimination oracle: remainder of target modulo the
    row span, eliminating by smallest column."""
    basis = []
    for row in rows:
        work = dict(row)
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
            basis.sort(key=lambda t: t[0])
    work = dict(target)
    for piv, body in basis:
        if piv in work:
            f = work[piv] / body[piv]
            for c, v in body.items():
                w = work.get(c, 0) - f * v
                if w:
                    work[c] = w
                elif c in work:
                    del work[c]
    return work


class TestExactReducer:
    def test_insert_dependent_returns_false(self):
        r = ExactReducer()
        assert r.insert({0: 1, 1: 2})
        assert not r.insert({0: 2, 1: 4})
        assert r.rank == 1

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for trial in range(30):
            rows = [random_row(rng, 8, 4) for _ in range(rng.randint(1, 8))]
            r = ExactReducer()
            for row in rows:
                r.insert(dict(row))
            for _ in range(5):
                target = random_row(rng, 8, 5)
                rem, _ = r.reduce(dict(target))
                oracle = brute_reduce(rows, target)
                assert bool(rem) == bool(oracle), (trial, rows, target)
                assert r.contains(dict(target)) == (not oracle)

    def test_member_combo_reconstructs_input(self):
        rng = random.Random(9)
        for trial in range(30):
            rows = {f"r{i}": random_row(rng, 10, 4) for i in range(rng.randint(2, 8))}
            r = ExactReducer()
            for tag, row in rows.items():
                r.insert(dict(row), tag=tag)
            # random rational combination of the inserted rows is a member
            combo_true = {tag: Fraction(rng.randint(-3, 3)) for tag in rows}
            target: dict = {}
            for tag, c in combo_true.items():
                for col, v in rows[tag].items():
                    target[col] = target.get(col, 0) + c * v
            target = {c: v for c, v in target.items() if v}
            rem, combo = r.reduce(dict(target))
            assert not rem
            rebuilt: dict = {}
            for tag, c in combo.items():
                for col, v in rows[tag].items():
                    rebuilt[col] = rebuilt.get(col, 0) + c * v
            rebuilt = {c: v for c, v in rebuilt.items() if v}
            assert rebuilt == target

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(SPARSE_ROWS, st.sampled_from([None, "t", "u"])),
                    min_size=1, max_size=8),
           st.lists(st.integers(-3, 3), min_size=8, max_size=8),
           SPARSE_ROWS)
    def test_combination_rebuilds_every_query(self, inserted, coefs, other):
        # `unique` tags every row by its position, `shared` by a tag drawn
        # from three (repeats included): the shared combination must be the
        # unique one summed over each tag
        rows = {i: row for i, (row, _) in enumerate(inserted)}
        unique, shared = ExactReducer(), ExactReducer()
        for i, (row, tag) in enumerate(inserted):
            unique.insert(dict(row), tag=i)
            shared.insert(dict(row), tag=tag)
        member = combine(rows, {i: Fraction(c, 2) for i, c in zip(rows, coefs)})
        for query in (member, other):
            rem, combo = unique.reduce(dict(query))
            rebuilt = combine(rows, combo)
            for col, v in rem.items():
                rebuilt[col] = rebuilt.get(col, 0) + v
            assert {col: v for col, v in rebuilt.items() if v} == query
            by_tag: dict = {}
            for i, c in combo.items():
                tag = inserted[i][1]
                by_tag[tag] = by_tag.get(tag, 0) + c
            assert shared.reduce(dict(query)) == (
                rem, {tag: c for tag, c in by_tag.items() if c})
        rem, combo = unique.reduce(dict(member))
        assert rem == {}
        assert combine(rows, combo) == member

    def test_nonzero_remainder_is_exact(self):
        r = ExactReducer()
        r.insert({0: 2, 1: 3}, tag="row")
        rem, combo = r.reduce({0: 1})
        # remainder = input - combo . rows
        rebuilt = dict(rem)
        for tag, c in combo.items():
            assert tag == "row"
            for col, v in {0: 2, 1: 3}.items():
                rebuilt[col] = rebuilt.get(col, 0) + c * v
        assert {c: v for c, v in rebuilt.items() if v} == {0: 1}

    def test_contains_expands_nothing(self, monkeypatch):
        r = ExactReducer()
        r.insert({0: 2, 1: 3}, tag="row")
        r.insert({1: Fraction(1, 2), 2: 1}, tag="other")

        def refuse(self, chain, scale):
            raise AssertionError("contains expanded a combination")

        monkeypatch.setattr(ExactReducer, "_expand", refuse)
        assert r.contains({0: 2, 1: 4, 2: 2})
        assert not r.contains({0: 1})
        assert r.rank == 2

    def test_no_provenance_mode(self):
        r = ExactReducer(track_provenance=False)
        r.insert({0: 1, 1: 1}, tag="t")
        rem, combo = r.reduce({0: 2, 1: 2})
        assert not rem and combo == {}

    def test_fractional_rows(self):
        r = ExactReducer()
        r.insert({0: Fraction(1, 2), 1: Fraction(1, 3)}, tag="half")
        rem, combo = r.reduce({0: 3, 1: 2})
        assert not rem
        assert combo == {"half": Fraction(6)}

    @pytest.mark.parametrize("names", [
        [f"k{9 - c}" for c in range(10)],           # sorts in reverse
        [((7 * c) % 10, "x") for c in range(10)],   # sorts scrambled
    ], ids=["str", "tuple"])
    def test_keys_out_of_sort_order(self, names):
        # the reducer pivots in first-seen order, the oracle in index order:
        # a first reduce shows every column in index order, so the two
        # remainders agree exactly, and must come back under the caller's keys
        rng = random.Random(41)
        for trial in range(30):
            rows = [random_row(rng, 10, 4) for _ in range(rng.randint(1, 8))]
            r = ExactReducer()
            r.reduce({name: 1 for name in names})
            for row in rows:
                r.insert({names[c]: v for c, v in row.items()})
            for _ in range(5):
                target = random_row(rng, 10, 5)
                rem, _ = r.reduce({names[c]: v for c, v in target.items()})
                oracle = brute_reduce(rows, target)
                assert rem == {names[c]: v for c, v in oracle.items()}, trial


class TestSpanRank:
    def test_known_ranks(self):
        assert span_rank([]) == 0
        assert span_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
        assert span_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2

    def test_matches_reducer(self):
        rng = random.Random(17)
        for _ in range(20):
            rows = [random_row(rng, 6, 3) for _ in range(rng.randint(1, 7))]
            r = ExactReducer(track_provenance=False)
            for row in rows:
                r.insert(dict(row))
            assert span_rank([dict(x) for x in rows]) == r.rank


class TestElementaryDivisors:
    def to_rows(self, mat):
        return [
            {j: v for j, v in enumerate(row) if v}
            for row in mat
            if any(row)
        ]

    def test_diagonal(self):
        assert elementary_divisors(self.to_rows([[1, 0], [0, 2]])) == [1, 2]
        assert elementary_divisors(self.to_rows([[2, 0], [0, 3]])) == [1, 6]

    def test_classic(self):
        # gcd of entries 2, |det| = 8
        assert elementary_divisors(self.to_rows([[2, 4], [6, 8]])) == [2, 4]
        assert elementary_divisors(self.to_rows([[3, 6], [3, 6]])) == [3]
        assert elementary_divisors([]) == []
        assert elementary_divisors([{0: 2}]) == [2]

    def test_unit_rows_do_not_create_torsion(self):
        rows = [{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: -1}]
        assert elementary_divisors(rows) == [1, 1]

    def test_product_equals_determinant(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 4)
            mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            det = self._det(mat)
            divs = elementary_divisors(self.to_rows(mat))
            if det:
                prod = 1
                for d in divs:
                    prod *= d
                assert len(divs) == n and prod == abs(det)
            else:
                assert len(divs) < n

    def test_matches_dense_smith_on_mixed_rows(self):
        # unit differences (contracted by union-find), repeated (negated) rows and
        # general integer rows, over string column keys
        rng = random.Random(29)
        for trial in range(60):
            ncols = rng.randint(2, 7)
            rows = []
            for _ in range(rng.randint(1, 9)):
                kind = rng.random()
                if kind < 0.4:
                    c1, c2 = rng.sample(range(ncols), 2)
                    u = rng.choice((1, -1, 1, -1, 2))
                    rows.append({c1: u, c2: -u})
                elif kind < 0.6 and rows:
                    rows.append({c: -v for c, v in rng.choice(rows).items()})
                else:
                    cols = rng.sample(range(ncols), rng.randint(1, ncols))
                    row = {c: rng.randint(-4, 4) for c in cols}
                    rows.append({c: v for c, v in row.items() if v} or {0: 3})
            dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
            keyed = [{f"col{c}": v for c, v in row.items()} for row in rows]
            divs = elementary_divisors(keyed)
            assert sorted(divs) == sorted(_dense_smith(dense)), (trial, rows)

    def _det(self, mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * self._det(minor)
        return total
