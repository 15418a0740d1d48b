"""The symplectic chord-diagram algebra: graded dimensions by exact rank.

Generators (all on ``n`` strands, genus ``g``, ``p`` boundary components):

* ``A(s, k)``, ``B(t, k)`` — handle beads on strand ``k``, degree 1;
* ``Z(i, j)`` — a chord between strands ``i < j``, degree 2;
* ``Zb(alpha, k)`` — a boundary chord between boundary label
  ``alpha in {n+1 .. n+p}`` and strand ``k``, degree 2.

Relation families (each instance homogeneous):

* extended infinitesimal: ``[Z_ij, Z_kl] = 0`` for disjoint pairs,
  ``[Z_ij, Z_jk + Z_ik] = 0`` for distinct ``i, j, k``, plus the boundary
  variants ``[Zb_aj, Z_kl] = 0`` (j off the chord), ``[Zb_aj, Zb_bk] = 0``
  (fully disjoint), ``[Zb_aj, Zb_ak + Z_jk] = 0`` (j != k);
* fundamental-group: ``[A_s^i, A_r^k] = [B_s^i, B_r^k] = 0`` for ``i != k``,
  ``[A_s^i, B_r^j] = 0`` for ``r != s`` and ``i != j``, and per strand ``k``
  the sum ``sum_s [A_s^k, B_s^k] + sum_{j != k} Z_jk + sum_a Zb_ak = 0``;
* mixed: ``[Z_jk, X_s^i] = 0`` for ``i`` off the chord and
  ``[Zb_ak, X_s^i] = 0`` for ``i != k``, for ``X`` either ``A`` or ``B``
  (the two families are symmetric in the handle pairing, so the ``B``
  versions are imposed alongside the ``A`` ones), and
  ``[X_s^j + X_s^k, Z_jk] = 0``;
* twist (genus >= 1 only): ``[A_s^i, B_s^j] = Z_ij`` for ``i != j``.

``symp_graded_dim`` computes dim of the degree-``d`` piece as (number of
degree-``d`` words) minus the exact rank of all relation rows ``u * r * v``
of total degree ``d``.  The rank is taken with the columns in lexicographic
word order (generators in ``symp_generators`` order, as ``words_of_degree``
lists them), so every pivot is the lex-least word of its row and a
commutator row reduces like a rewrite, which keeps fill-in low.
Everything is deterministic and rational.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

from .errors import HypothesisError, ParameterError, ResourceLimitError
from .linalg import ExactReducer
from .surface import SurfaceParams

DIMS_FORMAT_TAG = "surfbraid-dims-v1"

# generator symbols: ("A", s, k), ("B", t, k), ("Zb", alpha, k), ("Z", i, j)


def symp_generators(s: SurfaceParams) -> list[tuple]:
    n = s.strands
    out: list[tuple] = []
    for h in range(1, s.genus + 1):
        for k in range(1, n + 1):
            out.append(("A", h, k))
            out.append(("B", h, k))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(("Z", i, j))
    for alpha in range(n + 1, n + s.boundary + 1):
        for k in range(1, n + 1):
            out.append(("Zb", alpha, k))
    return out


def generator_degree(sym: tuple) -> int:
    return 1 if sym[0] in ("A", "B") else 2


def word_degree(word: tuple) -> int:
    return sum(generator_degree(sym) for sym in word)


def format_symp_word(word: tuple) -> str:
    if not word:
        return "1"
    parts = []
    for sym in word:
        if sym[0] in ("A", "B"):
            parts.append(f"{sym[0]}{sym[1]}^{sym[2]}")
        elif sym[0] == "Z":
            parts.append(f"Z({sym[1]},{sym[2]})")
        else:
            parts.append(f"Z({sym[1]},{sym[2]})b")
    return " ".join(parts)


def _zc(i: int, j: int) -> tuple:
    return ("Z", min(i, j), max(i, j))


def _add(acc: dict, word: tuple, coef: int):
    c = acc.get(word, 0) + coef
    if c:
        acc[word] = c
    else:
        acc.pop(word, None)


def _comm(x: tuple, y: tuple) -> dict:
    acc: dict = {}
    _add(acc, (x, y), 1)
    _add(acc, (y, x), -1)
    return acc


def symp_relations(s: SurfaceParams, max_degree: int) -> list[dict]:
    """All relation instances of degree <= max_degree, each a homogeneous
    word -> coefficient map."""
    if max_degree < 2:
        raise ParameterError("relations start in degree 2")
    n, g, p = s.strands, s.genus, s.boundary
    alphas = range(n + 1, n + p + 1)
    out: list[dict] = []

    def emit(acc: dict):
        if not acc:
            return
        degs = {word_degree(w) for w in acc}
        if len(degs) != 1:
            raise ParameterError("internal error: inhomogeneous relation instance")
        if degs.pop() <= max_degree:
            out.append(acc)

    # extended infinitesimal braid relations
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(i, n + 1):
                for l in range(k + 1, n + 1):
                    if (k, l) <= (i, j) or {i, j} & {k, l}:
                        continue
                    emit(_comm(_zc(i, j), _zc(k, l)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                acc: dict = {}
                for other in (_zc(j, k), _zc(i, k)):
                    for w, c in _comm(_zc(i, j), other).items():
                        _add(acc, w, c)
                emit(acc)
    for alpha in alphas:
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(k + 1, n + 1):
                    if j in (k, l):
                        continue
                    emit(_comm(("Zb", alpha, j), _zc(k, l)))
    for alpha in alphas:
        for beta in alphas:
            if beta <= alpha:
                continue
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    if j == k:
                        continue
                    emit(_comm(("Zb", alpha, j), ("Zb", beta, k)))
    for alpha in alphas:
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if j == k:
                    continue
                acc = {}
                for other in (("Zb", alpha, k), _zc(j, k)):
                    for w, c in _comm(("Zb", alpha, j), other).items():
                        _add(acc, w, c)
                emit(acc)

    # relations from the fundamental group of the surface
    for kind in ("A", "B"):
        for h1 in range(1, g + 1):
            for h2 in range(1, g + 1):
                for i in range(1, n + 1):
                    for k in range(i + 1, n + 1):
                        emit(_comm((kind, h1, i), (kind, h2, k)))
    for h1 in range(1, g + 1):
        for h2 in range(1, g + 1):
            if h1 == h2:
                continue
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    emit(_comm(("A", h1, i), ("B", h2, j)))
    for k in range(1, n + 1):
        acc = {}
        for h in range(1, g + 1):
            for w, c in _comm(("A", h, k), ("B", h, k)).items():
                _add(acc, w, c)
        for j in range(1, n + 1):
            if j != k:
                _add(acc, (_zc(j, k),), 1)
        for alpha in alphas:
            _add(acc, (("Zb", alpha, k),), 1)
        emit(acc)

    # mixed relations (A and B versions alike)
    for kind in ("A", "B"):
        for h in range(1, g + 1):
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    for i in range(1, n + 1):
                        if i in (j, k):
                            continue
                        emit(_comm((_zc(j, k)), (kind, h, i)))
            for alpha in alphas:
                for k in range(1, n + 1):
                    for i in range(1, n + 1):
                        if i == k:
                            continue
                        emit(_comm(("Zb", alpha, k), (kind, h, i)))
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    acc = {}
                    for strand in (j, k):
                        for w, c in _comm((kind, h, strand), _zc(j, k)).items():
                            _add(acc, w, c)
                    emit(acc)

    # twist relation (genus >= 1)
    if g >= 1:
        for h in range(1, g + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    acc = _comm(("A", h, i), ("B", h, j))
                    _add(acc, (_zc(i, j),), -1)
                    emit(acc)

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
    guarded by a word-count cap."""
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


def symp_graded_dim(
    s: SurfaceParams, d: int, relations=None, word_cap: int = 200000
) -> int:
    """Dimension of the degree-d graded piece of the presented algebra."""
    if d < 0:
        raise ParameterError("degree must be non-negative")
    if d == 0:
        return 1
    words = words_of_degree(s, d, word_cap)
    if d == 1:
        return len(words)
    if relations is None:
        relations = symp_relations(s, d)
    reducer = ExactReducer(track_provenance=False, columns=words)
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


def symp_twist_redundancy(s: SurfaceParams, word_cap: int = 200000) -> bool:
    """Whether every strand chord Z(i,j) is expressible in degree-1
    generators modulo the degree-2 relation span (needs genus >= 1, n >= 2)."""
    if s.genus < 1:
        raise HypothesisError("chord redundancy requires genus >= 1")
    if s.strands < 2:
        raise HypothesisError("chord redundancy requires at least 2 strands")
    reducer = ExactReducer(track_provenance=False)
    for rel in symp_relations(s, 2):
        reducer.insert(dict(rel))
    for w in words_of_degree(s, 2, word_cap):
        if all(generator_degree(g) == 1 for g in w):
            reducer.insert({w: 1})
    for i in range(1, s.strands + 1):
        for j in range(i + 1, s.strands + 1):
            if not reducer.contains({(_zc(i, j),): 1}):
                return False
    return True


# ---------------------------------------------------------------------------
# dimension tables with a plain-text cache
# ---------------------------------------------------------------------------


def dims_table_text(s: SurfaceParams, max_degree: int, word_cap: int = 200000) -> str:
    lines = []
    for d in range(max_degree + 1):
        lines.append(f"{d} {symp_graded_dim(s, d, word_cap=word_cap)}")
    return "\n".join(lines) + "\n"


def dims_table(
    s: SurfaceParams,
    max_degree: int,
    cache_dir=None,
    word_cap: int = 200000,
) -> str:
    """Two-column ``degree dimension`` table, cached as versioned plain text
    keyed by (genus, boundary, strands, max degree).  The cache file is
    written beside its final name and renamed into place, so an interrupted
    write never leaves a partial table behind."""
    if cache_dir is None:
        return dims_table_text(s, max_degree, word_cap)
    path = Path(cache_dir) / (
        f"dims_g{s.genus}_p{s.boundary}_n{s.strands}_d{max_degree}.txt"
    )
    if path.exists():
        content = path.read_text()
        header, _, body = content.partition("\n")
        if header.strip() == DIMS_FORMAT_TAG:
            return body
    body = dims_table_text(s, max_degree, word_cap)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(DIMS_FORMAT_TAG + "\n" + body)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return body
