"""Exact sparse linear algebra over the rationals and the integers.

Two tools live here:

* ``ExactReducer`` — an incremental fraction-free row echelon form that
  answers rank, membership and the exact remainder of a query modulo the
  span.  Stored rows carry integer entries (denominators cleared, content
  gcd stripped) and elimination is division-free, keeping the hot path in
  pure integer arithmetic.  Column keys may be arbitrary hashable objects;
  each is interned once to an integer id, rows are stored over those ids,
  and remainders are mapped back to the caller's keys.  Ids go to keys in
  first-seen order, and that order is the pivot order, so a caller whose
  columns have a natural order gets less fill-in by presenting them in it
  first.  Every stored row's pivot is its least column id, so elimination
  always moves to strictly larger ids and terminates without
  back-substitution; the next pivot comes off a heap of the work row's
  pivot columns, never from a rescan of the row.

* ``elementary_divisors`` — integer Smith normal form over columns
  interned the same way.  Unit two-term rows ``{c1: u, c2: -u}`` with
  ``|u| = 1`` are contracted first by union-find (each merge is a divisor
  1); a sparse phase then repeatedly eliminates on entries equal to +-1
  (choosing the entry of least fill-in) and a dense textbook phase handles
  whatever remains.  Exact throughout; no floating point anywhere.

No module of the package calls either: membership, the torsion report and
the chord redundancy check are proven by completions (``rewriting``), and
the tests check them against these two as oracles.  The module stays in
the package only because the benchmark's tracer (``bench/tracing.py``)
imports it and wraps ``ExactReducer.insert``/``reduce`` and
``elementary_divisors`` by name; once the benchmark stops tracing them
(ROADMAP.md, "The bench follows the engine") it can move under ``tests/``.

Callers hand over rows keyed by any hashable objects: how columns are
identified and how unit rows are eliminated is decided here alone.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .rewriting import _quotient


class ExactReducer:
    """Incremental fraction-free row echelon form.

    insert(row) adds a row and says whether it enlarged the span;
    reduce(row) returns the exact remainder of ``row`` modulo the span;
    contains(row) answers membership.  Row values may be ints or Fractions.

    Column keys get ids in first-seen order.  A stored row's pivot is its
    least column id, so that order decides the pivots, and with them the
    stored rows and the remainders, but never the span, the rank or whether
    a row is a member.
    """

    def __init__(self):
        self.rows: list[dict] = []   # column id -> int, content gcd 1, pivot > 0
        self.pivots: dict = {}       # column id -> row index
        self.col_keys: list = []     # column id -> key
        self.col_ids: dict = {}      # column key -> id, in first-seen order

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _to_int_row(self, row: dict) -> tuple[dict, int]:
        """Clear denominators and intern the columns: returns (int_row, den)
        with int_row = den * row, keyed by column id."""
        den = 1
        for v in row.values():
            if isinstance(v, Fraction):
                den = den * v.denominator // math.gcd(den, v.denominator)
        col_ids, col_keys = self.col_ids, self.col_keys
        out: dict = {}
        for c, v in row.items():
            iv = int(v * den)
            if iv:
                cid = col_ids.get(c)
                if cid is None:
                    cid = col_ids[c] = len(col_keys)
                    col_keys.append(c)
                out[cid] = iv
        return out, den

    def _eliminate(self, work: dict) -> int:
        """Division-free elimination against the stored pivot rows; mutates
        ``work`` into the scaled remainder and returns the scale ``alpha``:
        ``alpha * input - work`` lies in the span.

        The next pivot is the least column of ``work`` that has a stored row,
        taken from a heap of those columns instead of a scan of the row.  A
        stored row only contains column ids >= its pivot, so the eliminated
        column strictly increases and never comes back: popping an entry
        that has since left ``work`` skips it, and pushing each column that
        a subtraction brings in keeps every candidate on the heap.  The pivot
        sequence is therefore the one a full scan for the minimum would
        choose, and the loop terminates."""
        alpha = 1
        pivots, rows = self.pivots, self.rows
        heap = [c for c in work if c in pivots]
        heapq.heapify(heap)
        while heap:
            col = heapq.heappop(heap)
            f = work.get(col)
            if f is None:
                continue
            row = rows[pivots[col]]
            p = row[col]
            g = math.gcd(f, p)
            m_work = p // g
            m_row = f // g
            if m_work != 1:
                for c in work:
                    work[c] *= m_work
                alpha *= m_work
            for c, v in row.items():
                old = work.get(c)
                if old is None:
                    work[c] = -m_row * v
                    if c in pivots:
                        heapq.heappush(heap, c)
                else:
                    nv = old - m_row * v
                    if nv:
                        work[c] = nv
                    else:
                        del work[c]
        return alpha

    def contains(self, row: dict) -> bool:
        """Whether ``row`` lies in the span."""
        work, _ = self._to_int_row(row)
        self._eliminate(work)
        return not work

    def reduce(self, row: dict) -> dict:
        """Exact remainder of ``row`` modulo the span, under the caller's
        column keys: ``row - remainder`` lies in the span."""
        work, den = self._to_int_row(row)
        scale = self._eliminate(work) * den
        keys = self.col_keys
        return {keys[c]: _quotient(v, scale) for c, v in work.items()}

    def insert(self, row: dict) -> bool:
        """Add a row; returns True iff it enlarged the span."""
        work, _ = self._to_int_row(row)
        self._eliminate(work)
        if not work:
            return False
        pivot = min(work)
        g = 0
        for v in work.values():
            g = math.gcd(g, v)
        if work[pivot] < 0:
            g = -g
        if g != 1:
            work = {c: v // g for c, v in work.items()}
        self.pivots[pivot] = len(self.rows)
        self.rows.append(work)
        return True


# ---------------------------------------------------------------------------
# integer Smith normal form
# ---------------------------------------------------------------------------


def elementary_divisors(rows) -> list[int]:
    """Elementary divisors (including 1s) of the integer matrix whose rows
    are the given sparse ``{column: int}`` maps."""
    col_ids: dict = {}
    parent: list[int] = []  # union-find over column ids

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    # a unit difference {c1: u, c2: -u} with |u| = 1 merges the classes of
    # c1 and c2; each merge is a pivot with divisor 1
    divisors: list[int] = []
    general: list[dict] = []
    for row in rows:
        r: dict = {}
        for c, v in row.items():
            if v:
                cid = col_ids.get(c)
                if cid is None:
                    cid = col_ids[c] = len(parent)
                    parent.append(cid)
                r[cid] = int(v)
        if len(r) == 2:
            (c1, v1), (c2, v2) = r.items()
            if v1 == -v2 and v1 in (1, -1):
                r1, r2 = find(c1), find(c2)
                if r1 != r2:
                    parent[max(r1, r2)] = min(r1, r2)
                    divisors.append(1)
                continue
        if r:
            general.append(r)

    work: dict[int, dict] = {}
    col_rows: dict = {}
    for i, r in enumerate(general):
        acc: dict = {}
        for c, v in r.items():
            root = find(c)
            acc[root] = acc.get(root, 0) + v
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            work[i] = acc
            for c in acc:
                col_rows.setdefault(c, set()).add(i)

    # sparse phase: eliminate on +-1 entries, least fill-in first
    while True:
        best = None  # (fill, row, col)
        for i, row in work.items():
            for c, v in row.items():
                if v in (1, -1):
                    fill = (len(row) - 1) * (len(col_rows[c]) - 1)
                    if best is None or fill < best[0]:
                        best = (fill, i, c)
                        if fill == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, i, c = best
        piv_row = work.pop(i)
        piv = piv_row[c]
        for cc in piv_row:
            col_rows[cc].discard(i)
        for j in list(col_rows.get(c, ())):
            row_j = work[j]
            q = row_j[c] * piv  # piv is +-1 so this clears the column exactly
            for cc, v in piv_row.items():
                nv = row_j.get(cc, 0) - q * v
                if nv:
                    row_j[cc] = nv
                    col_rows.setdefault(cc, set()).add(j)
                else:
                    if row_j.pop(cc, None) is not None:
                        col_rows[cc].discard(j)
            if not row_j:
                del work[j]
        col_rows.pop(c, None)
        divisors.append(1)

    if not work:
        return divisors

    # dense phase on the residue
    cols = sorted({c for row in work.values() for c in row})
    col_index = {c: k for k, c in enumerate(cols)}
    mat = []
    for row in work.values():
        dense = [0] * len(cols)
        for c, v in row.items():
            dense[col_index[c]] = v
        mat.append(dense)
    divisors.extend(_dense_smith(mat))
    return divisors


def _dense_smith(mat: list[list[int]]) -> list[int]:
    m = [row[:] for row in mat]
    divs: list[int] = []
    while m and m[0]:
        best = None
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        i0, j0, _ = best
        m[0], m[i0] = m[i0], m[0]
        for row in m:
            row[0], row[j0] = row[j0], row[0]
        while True:
            p = m[0][0]
            restart = False
            for i in range(1, len(m)):
                if m[i][0] % p:
                    q = m[i][0] // p
                    for j in range(len(m[0])):
                        m[i][j] -= q * m[0][j]
                    m[0], m[i] = m[i], m[0]
                    restart = True
                    break
            if restart:
                continue
            for j in range(1, len(m[0])):
                if m[0][j] % p:
                    q = m[0][j] // p
                    for i in range(len(m)):
                        m[i][j] -= q * m[i][0]
                    for row in m:
                        row[0], row[j] = row[j], row[0]
                    restart = True
                    break
            if not restart:
                break
        p = m[0][0]
        for i in range(1, len(m)):
            if m[i][0]:
                q = m[i][0] // p
                for j in range(len(m[0])):
                    m[i][j] -= q * m[0][j]
        for j in range(1, len(m[0])):
            if m[0][j]:
                q = m[0][j] // p
                for i in range(len(m)):
                    m[i][j] -= q * m[i][0]
        offender = None
        for i in range(1, len(m)):
            for j in range(1, len(m[0])):
                if m[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(len(m[0])):
                m[0][j] += m[offender][j]
            continue
        divs.append(abs(p))
        m = [row[1:] for row in m[1:]]
    return divs
