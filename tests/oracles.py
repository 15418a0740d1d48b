"""Reference implementations the tests compare the package against: the
rewriting kernel before its leading words were indexed, desingularization
by every sign choice, the completed rule table of the bead normal form, a
wreath-product element as a diagram, and closed-form counts of normal words
and of graded dimensions.  Not a test module; test modules import it."""

import functools
import heapq
import itertools
from dataclasses import replace
from math import comb, prod

from surfbraid.diagrams import (
    Truncation,
    WreathDiagram,
    _bead_normal_form,
    _CodedSystem,
    bead,
    chord,
    relation_instances,
)
from surfbraid import rewriting
from surfbraid.rewriting import RewritingSystem, _add, _occurs, _quotient, complete
from surfbraid.surface import SurfaceParams, free_reduce


class OracleSystem(RewritingSystem):
    """A rewriting system whose ``reduce`` tries every lead length at every
    position, slicing, and takes each word's degree afresh: the package's
    ``reduce`` must take the same steps to the same normal form."""

    def __init__(self, weights, rules=None):
        self._order: dict[int, int] = {}  # lead length -> number of rules
        super().__init__(weights, rules)

    def add_rule(self, lead, tail):
        super().add_rule(lead, tail)
        self._order[len(lead)] = self._order.get(len(lead), 0) + 1

    def remove_rule(self, lead):
        self._order[len(lead)] -= 1
        if not self._order[len(lead)]:
            del self._order[len(lead)]
        return super().remove_rule(lead)

    def _match(self, word):
        """The first position and leading word occurring in ``word``, or None."""
        for i in range(len(word) + 1):
            for k in self._order:
                factor = word[i:i + k]
                if len(factor) == k and factor in self.rules:
                    return i, factor
        return None

    def reduce(self, comb, steps=None):
        out: dict = {}
        work: dict = {}
        heap: list = []
        for w, c in comb.items():
            if c:
                work[w] = c
                heapq.heappush(heap, (self.order_key(w), w))
        while heap:
            _, w = heapq.heappop(heap)
            c = work.pop(w, 0)
            if not c:
                continue
            hit = self._match(w)
            if hit is None:
                _add(out, w, c)
                continue
            if steps is not None:
                i, lead = hit
                steps.append((c, w[:i], lead, w[i + len(lead):]))
            for v, cv in self._rewrite(w, *hit, coef=c).items():
                if v not in work:
                    heapq.heappush(heap, (self.order_key(v), v))
                _add(work, v, cv)
        return out


def oracle_complete(weights, relations, bound) -> OracleSystem:
    """``rewriting.complete`` on an ``OracleSystem``, searching every rule
    for the ones that contain a new leading word or overlap it."""
    system = OracleSystem(weights)
    inside = rewriting._inside(bound, system)
    pending: list = []
    tick = itertools.count()

    def push(comb: dict, derivation):
        if comb and all(map(inside, comb)):
            deg = max(map(system.degree, comb))
            heapq.heappush(pending, (deg, next(tick), comb, derivation))

    for index, rel in enumerate(relations):
        push({w: c for w, c in rel.items() if c}, ((1, (), index, ()),))
    while pending:
        _, _, comb, derivation = heapq.heappop(pending)
        steps: list = []
        comb = system.reduce(comb, steps)
        if not comb:
            continue
        lead = min(comb, key=system.order_key)
        head = comb.pop(lead)
        if head not in (1, -1) and system.non_unit_lead is None:
            system.non_unit_lead = head
        tail = {w: _quotient(-c, head) for w, c in comb.items()}
        for old in [m for m in system.rules if len(m) > len(lead) and _occurs(lead, m)]:
            old_rel = {old: 1}
            for w, c in system.remove_rule(old).items():
                _add(old_rel, w, -c)
            push(old_rel, ((1, (), old, ()),))
        system.add_rule(lead, tail)
        system.derivations[lead] = tuple(
            (_quotient(c, head), left, src, right) for c, left, src, right in derivation
        ) + tuple((_quotient(-c, head), left, src, right) for c, left, src, right in steps)
        for word, i, one, j, other in system._ambiguities_of(lead, system.rules, inside):
            push(system._difference(word, i, one, j, other),
                 ((-1, word[:i], one, word[i + len(one):]),
                  (1, word[:j], other, word[j + len(other):])))
    return system


def desingularize_by_signs(word) -> dict:
    """The signed sum over all 2^d sign choices of the d singular crossings,
    each resolution freely reduced on its own."""
    crossings = [pos for pos, letter in enumerate(word) if letter[0] == "x"]
    out: dict = {}
    for signs in itertools.product((1, -1), repeat=len(crossings)):
        resolved = list(word)
        for pos, sign in zip(crossings, signs):
            resolved[pos] = ("s", word[pos][1], sign)
        _add(out, free_reduce(tuple(resolved)), prod(signs))
    return out


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
