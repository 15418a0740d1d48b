"""Exact sparse linear algebra over the rationals and the integers.

Two tools live here:

* ``ExactReducer`` — an incremental fraction-free row echelon form with
  optional provenance: every stored row remembers how it arose from the
  originally inserted rows, so a successful reduction of a query vector
  yields an explicit rational certificate.  Stored rows carry integer
  entries (denominators cleared, content gcd stripped) and elimination is
  division-free, keeping the hot path in pure integer arithmetic; the
  rational bookkeeping is left to one reverse sweep per reduction, which
  expands the elimination chain over the original rows.  Column keys
  may be arbitrary hashable objects; each is interned once to an integer
  id, rows are stored over those ids, and remainders are mapped back to
  the caller's keys.  Ids go to keys in first-seen order, and that order
  is the pivot order, so a caller whose columns have a natural order gets
  less fill-in by presenting them in it first.  Every stored row's pivot
  is its least column id, so elimination always moves to strictly larger
  ids and terminates without back-substitution; the next pivot comes off
  a heap of the work row's pivot columns, never from a rescan of the row.

* ``elementary_divisors`` — integer Smith normal form over columns
  interned the same way.  Unit two-term rows ``{c1: u, c2: -u}`` with
  ``|u| = 1`` are contracted first by union-find (each merge is a divisor
  1); a sparse phase then repeatedly eliminates on entries equal to +-1
  (choosing the entry of least fill-in) and a dense textbook phase handles
  whatever remains.  Exact throughout; no floating point anywhere.

No module of the package calls either: membership, the torsion report and
the chord redundancy check are proven by completions (``rewriting``), and
the tests check them against these two as oracles.

Callers hand over rows keyed by any hashable objects: how columns are
identified and how unit rows are eliminated is decided here alone.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

_ZERO = Fraction(0)


class ExactReducer:
    """Incremental fraction-free row echelon form with provenance tracking.

    insert(row, tag) adds an original row; reduce(row) returns a remainder
    and the combination of original rows that was subtracted, so that
    ``row = remainder + sum(combo[tag] * original[tag])``; contains(row)
    answers membership alone.  Row values may be ints or Fractions.

    Provenance is stored as integers: each stored row keeps its own tag,
    its integer scaling and the elimination chain (multiplier, row index)
    it went through.  A reduction expands its chain over the tags in one
    sweep from the newest stored row it names down to row 0; a chain only
    names older rows, so each row is visited once, after every row that
    refers to it, at a cost of O(rank + chain steps).

    Column keys get ids in first-seen order.  A stored row's pivot is its
    least column id, so that order decides the pivots, and with them the
    stored rows, chains and certificates, but never the span, the rank or
    whether a row is a member.
    """

    def __init__(self, track_provenance: bool = True):
        self.track = track_provenance
        self.rows: list[dict] = []   # column id -> int, content gcd 1, pivot > 0
        self.links: list = []        # (tag, num, scl, ((beta, idx), ...))
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

    def _eliminate(self, work: dict) -> tuple[int, list]:
        """Division-free elimination against the stored pivot rows; mutates
        ``work`` into the scaled remainder and returns (alpha, chain) with

            alpha * input = work + sum(beta * rows[idx] for beta, idx in chain).

        The next pivot is the least column of ``work`` that has a stored row,
        taken from a heap of those columns instead of a scan of the row.  A
        stored row only contains column ids >= its pivot, so the eliminated
        column strictly increases and never comes back: popping an entry
        that has since left ``work`` skips it, and pushing each column that
        a subtraction brings in keeps every candidate on the heap.  The pivot
        sequence is therefore the one a full scan for the minimum would
        choose, and the loop terminates."""
        alpha = 1
        chain: list[list] = []
        pivots, rows = self.pivots, self.rows
        heap = [c for c in work if c in pivots]
        heapq.heapify(heap)
        while heap:
            col = heapq.heappop(heap)
            f = work.get(col)
            if f is None:
                continue
            i = pivots[col]
            row = rows[i]
            p = row[col]
            g = math.gcd(f, p)
            m_work = p // g
            m_row = f // g
            if m_work != 1:
                for c in work:
                    work[c] *= m_work
                alpha *= m_work
                for entry in chain:
                    entry[0] *= m_work
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
            chain.append([m_row, i])
        return alpha, chain

    def _expand(self, chain, scale: int) -> dict:
        """Tag-level combination of ``sum(beta / scale * rows[idx])`` over a
        chain, by one sweep over the stored rows from the newest down.

        Stored row ``idx`` is ``(num * original[tag] - sum(beta' * rows[j]))
        / scl`` over its own chain, and that chain names only older rows, so
        once the sweep reaches ``idx`` its coefficient is final: it is added
        to the row's tag (tags may repeat) and pushed onto its chain.  Every
        index below the chain's largest is visited, so the cost is
        O(rank + chain steps)."""
        coef: dict = {}
        for beta, idx in chain:
            coef[idx] = Fraction(beta, scale)
        links = self.links
        combo: dict = {}
        for idx in range(max(coef, default=-1), -1, -1):
            c = coef.get(idx)
            if not c:
                continue
            tag, num, scl, sub = links[idx]
            c /= scl
            combo[tag] = combo.get(tag, _ZERO) + c * num
            for beta, j in sub:
                coef[j] = coef.get(j, _ZERO) - c * beta
        return {t: v for t, v in combo.items() if v}

    def contains(self, row: dict) -> bool:
        """Whether ``row`` lies in the span: ``reduce`` without expanding the
        combination, so a query that is not a member costs one elimination."""
        work, _ = self._to_int_row(row)
        self._eliminate(work)
        return not work

    def reduce(self, row: dict) -> tuple[dict, dict]:
        """Remainder of ``row`` modulo the span, plus the combination used:
        ``row = remainder + sum(combo[tag] * original[tag])``.  The
        combination is returned whenever provenance is tracked, whether or
        not the remainder is zero; without tracking it is ``{}``."""
        work, den = self._to_int_row(row)
        alpha, chain = self._eliminate(work)
        scale = alpha * den
        combo = self._expand(chain, scale) if self.track else {}
        keys = self.col_keys
        return {keys[c]: Fraction(v, scale) if scale != 1 else v
                for c, v in work.items()}, combo

    def insert(self, row: dict, tag=None) -> bool:
        """Add an original row; returns True iff it enlarged the span."""
        work, den = self._to_int_row(row)
        alpha, chain = self._eliminate(work)
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
        idx = len(self.rows)
        self.rows.append(work)
        # stored = (alpha * den * row - sum(beta * rows)) / g
        self.links.append(
            (tag, alpha * den, g, tuple((b, j) for b, j in chain))
            if self.track else None
        )
        self.pivots[pivot] = idx
        return True


def span_rank(rows) -> int:
    """Rank of a collection of sparse rows (no provenance kept)."""
    red = ExactReducer(track_provenance=False)
    for row in rows:
        red.insert(row)
    return red.rank


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
