"""The symplectic chord-diagram algebra: graded dimensions by counting normal
words.

Generators (all on ``n`` strands, genus ``g``, ``p`` boundary components):

* ``A(s, k)``, ``B(t, k)`` — handle beads on strand ``k``, degree 1;
* ``Z(i, j)`` — a chord between strands ``i < j``, degree 2;
* ``Zb(alpha, k)`` — a boundary chord between boundary label
  ``alpha in {n+1 .. n+p}`` and strand ``k``, degree 2.

The relations follow one locality rule.  A generator's points are its
strand for a bead and its two ends for a chord; a boundary label counts as a
point.  Two generators on disjoint points commute, except ``A(s, i)`` and
``B(s, j)``, whose commutator is the chord ``Z(i, j)`` (the twist).  On top
come three sums: 4T over a chord and a third strand, the sum per strand, and
a handle letter at both ends of a strand chord.  The rule yields these
families (each instance homogeneous):

* extended infinitesimal: ``[Z_ij, Z_kl] = 0`` for disjoint pairs,
  ``[Z_ij, Z_jk + Z_ik] = 0`` for distinct ``i, j, k``, plus the boundary
  variants ``[Zb_aj, Z_kl] = 0`` (j off the chord), ``[Zb_aj, Zb_bk] = 0``
  (fully disjoint), ``[Zb_aj, Zb_ak + Z_jk] = 0`` (j != k); 4T on a strand
  chord with a boundary third point is not imposed, as the other two 4T
  instances of that triple sum to it;
* fundamental-group: ``[A_s^i, A_r^k] = [B_s^i, B_r^k] = 0`` for ``i != k``,
  ``[A_s^i, B_r^j] = 0`` for ``r != s`` and ``i != j``, and per strand ``k``
  the sum ``sum_s [A_s^k, B_s^k] + sum_{j != k} Z_jk + sum_a Zb_ak = 0``;
* mixed: ``[Z_jk, X_s^i] = 0`` for ``i`` off the chord and
  ``[Zb_ak, X_s^i] = 0`` for ``i != k``, for ``X`` either ``A`` or ``B``,
  and ``[X_s^j + X_s^k, Z_jk] = 0``;
* twist (genus >= 1 only): ``[A_s^i, B_s^j] = Z_ij`` for ``i != j``.

``symp_graded_dim`` computes dim of the degree-``d`` piece by counting normal
words.  The generators are ordered by fiber: each belongs to the largest
strand it touches (``A/B(h, k)`` and ``Zb(alpha, k)`` to ``k``, ``Z(i, j)`` to
``j``), strand 1 comes first, and within a fiber chords come before handle
beads.  A relation leads with its lex-least word, a monomial order because
every relation is homogeneous.  ``rewriting.complete`` resolves every
ambiguity up to degree ``d``, so by the diamond lemma the words free of
leading words are a basis of each degree up to ``d``, and
``normal_word_counts`` counts them.  No word list is built and no rank
taken.  Everything is deterministic and exact.
"""

from __future__ import annotations

import functools

from .errors import HypothesisError, ParameterError, ResourceLimitError, SurfbraidError
from .rewriting import _add, complete
from .surface import SurfaceParams

# generator symbols: ("A", s, k), ("B", t, k), ("Zb", alpha, k), ("Z", i, j)


def symp_generators(s: SurfaceParams) -> list[tuple]:
    """The generators in fiber order: strand by strand, each strand's chords
    (to lower strands, then to the boundary) before its handle beads."""
    n = s.strands
    out: list[tuple] = []
    for k in range(1, n + 1):
        out.extend(("Z", i, k) for i in range(1, k))
        out.extend(("Zb", alpha, k) for alpha in range(n + 1, n + s.boundary + 1))
        for h in range(1, s.genus + 1):
            out.append(("A", h, k))
            out.append(("B", h, k))
    return out


def generator_degree(sym: tuple) -> int:
    return 1 if sym[0] in ("A", "B") else 2


def word_degree(word: tuple) -> int:
    return sum(generator_degree(sym) for sym in word)


def _zc(i: int, j: int) -> tuple:
    return ("Z", min(i, j), max(i, j))


def _points(sym: tuple) -> set:
    """A bead's strand, or a chord's two ends (a boundary label is a point)."""
    return {sym[2]} if generator_degree(sym) == 1 else {sym[1], sym[2]}


def _comm(xs, ys) -> dict:
    """The commutator ``[sum xs, sum ys]``."""
    acc: dict = {}
    for x in xs:
        for y in ys:
            _add(acc, (x, y), 1)
            _add(acc, (y, x), -1)
    return acc


def symp_relations(s: SurfaceParams, max_degree: int) -> list[dict]:
    """All relation instances of degree <= max_degree, each a homogeneous
    word -> coefficient map, from the locality rule of the module docstring;
    none of a higher degree is built.

    ``complete`` takes the relations of one degree in the order they come,
    which sets its time but not its answer.  The per-strand and bead-chord
    sums come first, then the commutators of the pairs on disjoint points,
    then the 4T sums.  The pairs are scanned over the generators listed as
    boundary chords, strand chords, ``A`` beads and ``B`` beads, strand by
    strand; that list also orients each pair.  Of the orders tried this one
    took the fewest rewriting steps, over the benchmark's dimension tables
    and over six of the tests' surfaces in degrees 6 to 8: 1150 and 2515,
    against 1334 and 2785 with the sums after the pairs, and 1150 and 3161
    with the pairs scanned in fiber order."""
    if max_degree < 2:
        raise ParameterError("relations start in degree 2")
    n = s.strands
    strands = range(1, n + 1)
    handles = range(1, s.genus + 1)
    strand_chords = [("Z", i, j) for i in strands for j in range(i + 1, n + 1)]
    chords = [("Zb", alpha, k) for alpha in range(n + 1, n + s.boundary + 1) for k in strands]
    chords += strand_chords
    gens = chords + [(kind, h, k) for kind in "AB" for k in strands for h in handles]
    rels: list[dict] = []
    for k in strands:
        rel = {(c,): 1 for c in chords if k in _points(c)}
        for h in handles:
            rel.update(_comm([("A", h, k)], [("B", h, k)]))
        if rel not in rels:  # with no handle or boundary, n = 2 gives Z(1,2) twice
            rels.append(rel)
    if max_degree >= 3:
        rels += [_comm([(kind, h, i), (kind, h, j)], [("Z", i, j)])
                 for _, i, j in strand_chords for kind in "AB" for h in handles]
    for a, x in enumerate(gens):
        for y in gens[a + 1:]:
            if word_degree((x, y)) <= max_degree and not _points(x) & _points(y):
                rel = _comm([x], [y])
                if x[0] == "A" and y[:2] == ("B", x[1]):
                    _add(rel, (_zc(x[2], y[2]),), -1)  # the twist
                rels.append(rel)
    if max_degree >= 4:
        rels += [_comm([c], [("Zb", e, k) if e > n else _zc(e, k) for e in _points(c)])
                 for c in chords for k in strands if k not in _points(c)]
    out = []
    for rel in rels:
        degs = {word_degree(w) for w in rel}
        if len(degs) > 1:
            raise SurfbraidError("internal error: inhomogeneous relation instance")
        if degs and degs.pop() <= max_degree:
            out.append(rel)
    return out


# ---------------------------------------------------------------------------
# graded dimensions
# ---------------------------------------------------------------------------


def _word_count(gens: list, d: int) -> int:
    counts = [0] * (d + 1)
    counts[0] = 1
    for total in range(1, d + 1):
        counts[total] = sum(
            counts[total - generator_degree(g)]
            for g in gens
            if generator_degree(g) <= total
        )
    return counts[d]


def words_of_degree(s: SurfaceParams, d: int, word_cap: int = 200000) -> list[tuple]:
    """All degree-d words in the free algebra on the generators, in
    lexicographic order of the generators as ``symp_generators`` lists them;
    guarded by a word-count cap.

    No path of the package calls it: the dimensions count normal words, and
    only the tests' rank oracle lists words.  It and ``_word_count`` stay in
    the package only because the benchmark's tracer (``bench/tracing.py``)
    rebinds ``words_of_degree`` by name, until the benchmark stops tracing
    it (ROADMAP.md, "The bench follows the engine")."""
    if d < 0:
        raise ParameterError("degree must be non-negative")
    gens = symp_generators(s)
    if _word_count(gens, d) > word_cap:
        raise ResourceLimitError(
            f"{_word_count(gens, d)} words of degree {d} exceed the cap {word_cap}"
        )

    @functools.lru_cache(maxsize=None)
    def rec(rem: int) -> tuple:
        if rem == 0:
            return ((),)
        out = []
        for g in gens:
            dg = generator_degree(g)
            if dg <= rem:
                out.extend((g,) + w for w in rec(rem - dg))
        return tuple(out)

    return list(rec(d))


def _completion(s: SurfaceParams, max_degree: int, relations=None):
    """The relations (all of ``symp_relations`` by default) completed to
    max_degree; letter ``x`` stands for ``symp_generators(s)[x]``.  Given
    relations are homogeneous, of degree >= 2, over the surface's
    generators."""
    if max_degree < 0:
        raise ParameterError("degree must be non-negative")
    gens = symp_generators(s)
    letter = {g: x for x, g in enumerate(gens)}
    if relations is None:
        relations = symp_relations(s, max_degree) if max_degree >= 2 else []
    rows = [{tuple(letter[g] for g in w): c for w, c in rel.items()} for rel in relations]
    return complete([generator_degree(g) for g in gens], rows, max_degree)


def symp_graded_dim(s: SurfaceParams, d: int) -> int:
    """Dimension of the degree-d graded piece of the presented algebra: the
    number of degree-d normal words once ``symp_relations`` is completed to
    degree d."""
    return _completion(s, d).normal_word_counts(d)[d]


def symp_twist_redundancy(s: SurfaceParams) -> bool:
    """Whether every strand chord Z(i,j) is expressible in degree-1
    generators modulo the degree-2 relation span (needs genus >= 1, n >= 2):
    with every word of two degree-1 generators added to the relations, the
    completion to degree 2 reduces each chord to zero."""
    if s.genus < 1:
        raise HypothesisError("chord redundancy requires genus >= 1")
    if s.strands < 2:
        raise HypothesisError("chord redundancy requires at least 2 strands")
    gens = symp_generators(s)
    beads = [g for g in gens if generator_degree(g) == 1]
    system = _completion(s, 2, symp_relations(s, 2) + [{(g, h): 1} for g in beads for h in beads])
    return not any(
        system.reduce({(gens.index(_zc(i, j)),): 1})
        for i in range(1, s.strands + 1) for j in range(i + 1, s.strands + 1)
    )


def dims_table(s: SurfaceParams, max_degree: int) -> str:
    """Two-column ``degree dimension`` table for degrees 0..max_degree, from
    one completion to max_degree."""
    counts = _completion(s, max_degree).normal_word_counts(max_degree)
    return "".join(f"{d} {c}\n" for d, c in enumerate(counts))
