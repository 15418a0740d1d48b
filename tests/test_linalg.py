"""Exact sparse elimination, remainders, rank, and elementary divisors."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfbraid
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


def combine(rows: dict, coefs: dict) -> dict:
    total: dict = {}
    for i, c in coefs.items():
        for col, v in rows[i].items():
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
                rem = r.reduce(dict(target))
                oracle = brute_reduce(rows, target)
                assert bool(rem) == bool(oracle), (trial, rows, target)
                assert r.contains(dict(target)) == (not oracle)

    def test_nonzero_remainder_is_exact(self):
        r = ExactReducer()
        r.insert({0: 2, 1: 3})
        rem = r.reduce({0: 1})
        # {0: 1} = rem + (1/2) * {0: 2, 1: 3}, and rem has no pivot column
        assert rem == {1: Fraction(-3, 2)}
        assert r.contains({0: 1, 1: Fraction(3, 2)})
        assert not r.contains({0: 1})

    def test_fractional_rows(self):
        r = ExactReducer()
        assert r.insert({0: Fraction(1, 2), 1: Fraction(1, 3)})
        assert r.rank == 1
        assert r.reduce({0: 3, 1: 2}) == {}
        assert r.contains({0: 3, 1: 2})
        assert not r.insert({0: 3, 1: 2})
        # {0: 1} = rem + (2/3) * {0: 1/2, 1: 1/3}
        assert r.reduce({0: 1}) == {1: Fraction(-2, 3)}

    @pytest.mark.parametrize("names", [
        [f"k{9 - c}" for c in range(10)],           # sorts in reverse
        [((7 * c) % 10, "x") for c in range(10)],   # sorts scrambled
    ], ids=["str", "tuple"])
    def test_keys_out_of_sort_order(self, names):
        # the oracle pivots in index order; a warm-up query over `names`
        # interns them in that order, so the two remainders agree exactly,
        # and must come back under the caller's keys
        rng = random.Random(41)
        for trial in range(30):
            rows = [random_row(rng, 10, 4) for _ in range(rng.randint(1, 8))]
            r = ExactReducer()
            r.contains({name: 1 for name in names})
            for row in rows:
                r.insert({names[c]: v for c, v in row.items()})
            for _ in range(5):
                target = random_row(rng, 10, 5)
                rem = r.reduce({names[c]: v for c, v in target.items()})
                oracle = brute_reduce(rows, target)
                assert rem == {names[c]: v for c, v in oracle.items()}, trial

    @settings(max_examples=150, deadline=None)
    @given(st.lists(SPARSE_ROWS, min_size=1, max_size=8),
           st.permutations(range(8)),
           st.lists(st.integers(-3, 3), min_size=8, max_size=8),
           SPARSE_ROWS)
    def test_column_order_keeps_the_span(self, inserted, order, coefs, other):
        # any column order gives the same rank and membership as first-seen
        # order, and its remainders are the oracle's when it pivots in that
        # order: exact, with the query minus the remainder in the span
        rows = dict(enumerate(inserted))
        first_seen, ordered = ExactReducer(), ExactReducer()
        ordered.contains({c: 1 for c in order})
        assert ordered.col_keys == list(order) and ordered.rank == 0
        for row in rows.values():
            assert first_seen.insert(dict(row)) == ordered.insert(dict(row))
        assert ordered.rank == first_seen.rank
        position = {c: k for k, c in enumerate(order)}
        relabelled = [{position[c]: v for c, v in row.items()} for row in inserted]
        member = combine(rows, {i: Fraction(c, 2) for i, c in zip(rows, coefs)})
        assert ordered.reduce(dict(member)) == {}
        for query in (member, other):
            assert ordered.contains(dict(query)) == first_seen.contains(dict(query))
            rem = ordered.reduce(dict(query))
            oracle = brute_reduce(relabelled, {position[c]: v for c, v in query.items()})
            assert rem == {order[k]: v for k, v in oracle.items()}
            diff = dict(query)
            for col, v in rem.items():
                diff[col] = diff.get(col, 0) - v
            assert first_seen.contains({col: v for col, v in diff.items() if v})

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.dictionaries(st.integers(0, 11), st.integers(-3, 3).filter(bool),
                                    min_size=1, max_size=6),
                    min_size=1, max_size=12),
           st.permutations(range(12)))
    def test_pivots_strictly_increase_along_a_chain(self, inserted, order):
        # the pivot columns one elimination looks up strictly increase and
        # the remainder keeps no pivot column: together that is the sequence
        # a rescan for the least pivot column would choose (a column skipped
        # once never comes back, since later rows start at larger pivots), so
        # a pivot heap that pops out of order, pops a column twice or misses
        # one fails here
        class Lookups(dict):
            # logs every pivot row that elimination looks up
            def __getitem__(self, col):
                self.log.append(col)
                return super().__getitem__(col)

        class Recording(ExactReducer):
            def __init__(self):
                super().__init__()
                self.pivots = Lookups()

            def _eliminate(self, work):
                self.pivots.log = []
                alpha = super()._eliminate(work)
                pivots = self.pivots.log
                assert pivots == sorted(set(pivots)), pivots
                assert not set(work) & set(self.pivots), work
                return alpha

        for columns in ((), order):
            r = Recording()
            r.contains({c: 1 for c in columns})
            for row in inserted:
                r.insert(dict(row))
            for row in inserted:
                assert r.contains({c: 2 * v for c, v in row.items()})
            r.reduce({c: 1 for c in range(12)})


class TestSpanRank:
    def test_known_ranks(self):
        assert span_rank([]) == 0
        assert span_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
        assert span_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2

    def test_matches_reducer(self):
        rng = random.Random(17)
        for _ in range(20):
            rows = [random_row(rng, 6, 3) for _ in range(rng.randint(1, 7))]
            r = ExactReducer()
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


def test_no_module_of_the_package_imports_linalg():
    # linalg is the tests' oracle: every answer of the package comes from a
    # completion, so no module may lean on it
    offenders = []
    for path in sorted(Path(surfbraid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "linalg" for name in names):
                offenders.append(path.name)
    assert offenders == []
