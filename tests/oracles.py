"""Reference implementations the tests compare the package against: the
completed rule table of the bead normal form, a wreath-product element as
a diagram, and closed-form counts of normal words and of graded
dimensions.  Not a test module; test modules import it."""

import functools
import itertools
from dataclasses import replace
from math import comb

from surfbraid.diagrams import (
    Truncation,
    WreathDiagram,
    _bead_normal_form,
    _CodedSystem,
    bead,
    chord,
    relation_instances,
)
from surfbraid.rewriting import complete
from surfbraid.surface import SurfaceParams


def symbols(s: SurfaceParams) -> tuple:
    """Every bead and chord symbol of ``s``: beads from the last strand down,
    each strand's letters in reverse, then chords."""
    n = s.strands
    return tuple([bead(i, let) for i in range(n, 0, -1) for let in reversed(s.pi1_letters())]
                 + [chord(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


@functools.lru_cache(maxsize=None)
def rule_table(s: SurfaceParams) -> _CodedSystem:
    """The rules of the bead normal form, completed (``rewriting.complete``)
    from the relation instances with at most one chord and two beads, and
    ClosedSum among them only on the closed torus: on closed genus >= 2 it
    does not close.  The symbols are coded in the order of ``symbols``, so
    the completion orients the rules thus: an inverse bead pair on one
    strand cancels (BeadGroup), a bead slides right across a chord, onto
    the chord's other strand when it sits on the chord (BeadPush, BeadFar),
    beads on different strands sort by strand (BeadBead), and on the closed
    torus the swaps ``b1^e a1^d -> a1^d b1^e`` carry a strand on to its
    exponent form ``a1^m b1^k``.  Every rule has a leading word of two symbols; the completion
    finds the torus swaps with an inverse letter through rules of degree 3
    (``b1^-1 a1 b1 -> a1``), whose ambiguities need degree 4."""
    codes = symbols(s)
    table = _CodedSystem(codes, {sym: x for x, sym in enumerate(codes)})
    insts = tuple(inst for inst in relation_instances(s, Truncation(1, 2))
                  if inst.family != "ClosedSum" or s.genus == 1)
    relations = [{word(table, mono): c for mono, c in inst.mono_terms()} for inst in insts]
    return replace(table, system=complete([1] * len(codes), relations, 4), instances=insts)


def word(table: _CodedSystem, mono) -> tuple:
    """``mono`` coded by ``table``, unpadded."""
    return tuple(map(table.code.__getitem__, mono))


def table_normal_form(mono, s: SurfaceParams):
    """The normal form of ``mono`` under ``rule_table(s)``."""
    table = rule_table(s)
    (form,) = table.system.reduce({word(table, mono): 1})
    return table.mono(form)


def embed_wreath(w, trunc: Truncation) -> WreathDiagram:
    """The wreath-product element ``w`` as one diagram term: its beads as one
    monomial, strand 1 first, with its permutation; raises on bead-length
    overflow."""
    mono = trunc.check(tuple(bead(i, let) for i, word in enumerate(w.beads, 1) for let in word))
    return WreathDiagram(w.surface.strands, trunc, {(mono, w.perm): 1})


def fixed_point_counts(s: SurfaceParams, chords: int, max_beads: int) -> list[int]:
    """By bead length 0..max_beads, the monomials with exactly ``chords``
    chords (0 or 1) that ``_bead_normal_form`` leaves as they are, out of
    every such monomial."""
    beads = [sym for sym in symbols(s) if sym[0] == "B"]
    found = [0] * (max_beads + 1)
    for k in range(max_beads + 1):
        for run in itertools.product(beads, repeat=k):
            if chords == 0:
                found[k] += _bead_normal_form(run, s, 1, None) == run
                continue
            for z in symbols(s)[len(beads):]:
                for cut in range(k + 1):
                    mono = run[:cut] + (z,) + run[cut:]
                    found[k] += _bead_normal_form(mono, s, 1, None) == mono
    return found


def strand_series(s: SurfaceParams, max_degree: int) -> list[int]:
    """Gamma(t), the normal bead words of one strand by length: the growth
    series ``1 + sum 2m (2m-1)^(k-1) t^k`` of the free group of rank ``m =
    2g + p - 1`` on a surface with boundary, ``(1+t)^2 / (1-t)^2`` on the
    closed torus (the words ``a1^m b1^k``), 1 on the sphere."""
    if s.closed and s.genus == 1:
        return [1] + [4 * k for k in range(1, max_degree + 1)]
    m = 0 if s.closed else 2 * s.genus + s.boundary - 1
    return [1] + [2 * m * (2 * m - 1) ** (k - 1) for k in range(1, max_degree + 1)]


def power_series_product(a: list, b: list) -> list:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def bead_word_series(s: SurfaceParams, chords: int, max_degree: int) -> list[int]:
    """``Gamma(t)^n`` without a chord, ``C(n,2) Gamma(t)^n`` with one: the
    normal chord-degree <= 1 monomials by bead length are a chord followed
    by one normal word per strand."""
    out = [1] + [0] * max_degree
    for _ in range(s.strands):
        out = power_series_product(out, strand_series(s, max_degree))
    return [comb(s.strands, 2) ** chords * c for c in out]


def surface_group_growth(genus: int, max_degree: int) -> list[int]:
    """The growth series of pi_1 of the closed surface of genus ``genus`` in
    its standard generators (Cannon; Floyd-Plotnick, Invent. Math. 88,
    1987): ``N(t) / D(t)`` with ``N = 1 + 2t + ... + 2t^(2g-1) + t^(2g)``
    and ``D = 1 - (4g-2)(t + ... + t^(2g-1)) + t^(2g)``."""
    top = 2 * genus
    num = [1] + [2] * (top - 1) + [1]
    den = [1] + [-(4 * genus - 2)] * (top - 1) + [1]
    out: list[int] = []
    for k in range(max_degree + 1):
        acc = num[k] if k <= top else 0
        acc -= sum(den[i] * out[k - i] for i in range(1, min(k, top) + 1))
        out.append(acc)
    return out


def hilbert_series(g, p, n, dmax):
    """Coefficients up to t^dmax of the closed-form Hilbert series (the
    Fadell-Neuwirth fibration, one free fiber per strand):
    ``prod_{k=1..n} 1/(1 - 2g t - (k+p-2) t^2)`` for p >= 1, and
    ``(1-t)^-2 prod_{k=2..n} 1/(1 - 2t - (k-2) t^2)`` for the closed torus.
    Closed surfaces of other genus have no such product."""
    if p >= 1:
        factors = [(2 * g, k + p - 2) for k in range(1, n + 1)]
    elif g == 1:
        factors = [(1, 0), (1, 0)] + [(2, k - 2) for k in range(2, n + 1)]
    else:
        raise ValueError("no product formula for a closed surface of genus != 1")
    series = [1] + [0] * dmax
    for a, b in factors:
        # multiply by 1 / (1 - a t - b t^2): out[d] = series[d] + a out[d-1] + b out[d-2]
        out = []
        for d, v in enumerate(series):
            out.append(v + (a * out[d - 1] if d >= 1 else 0)
                       + (b * out[d - 2] if d >= 2 else 0))
        series = out
    return series
