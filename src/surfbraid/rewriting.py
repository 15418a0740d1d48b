"""Rewriting systems on words: normal forms, bounded completion with
derivations, and counting normal words.

A word is a tuple of int letters; letter ``x`` weighs ``weights[x]`` and a
word's degree is the sum of its letters' weights.  A combination is a dict
word -> exact coefficient (int or Fraction).  A rule rewrites its leading
word, wherever it occurs as a factor, to a combination of other words.

``complete`` orients relations by a monomial order: the higher degree leads,
and within one degree the lexicographically least word leads (deglex with
the letter order reversed; words of one degree never prefix one another, so
lex order is compatible with multiplication).  It is a noncommutative
Buchberger completion (Mora, TCS 134, 1994) that resolves every overlap and
inclusion ambiguity whose word lies inside a bound: a degree, or any test
such as a box of letter counts.  For relations homogeneous in the bound's
gradings that is exact in every graded piece inside the bound, whether or
not the system ever closes: by Bergman's diamond lemma (Adv. Math. 29,
1978), piece by piece as in the truncated Groebner bases of La Scala and
Levandovskyy (J. Symb. Comput. 44, 2009), the words that contain no
leading word as a factor, the normal words, form a basis of each graded
piece of the quotient.  ``normal_word_counts`` counts them per degree
by dynamic programming over the automaton of leading words (Ufnarovski's
graph of normal words), so leading words of any length are handled.

The diamond lemma holds over any commutative ring, so over the integers
too when every rule's leading coefficient is +-1.  ``complete`` divides each
new rule by its leading coefficient and records on the system it returns
the first one that is not +-1 (``non_unit_lead``, None if there is none):
from integer relations, None means every rule is integral and the normal
words are a basis over the integers, so the quotient has no torsion in the
completed degrees.

The system finds its work through indexes of its leading words, kept by
``add_rule`` and ``remove_rule``, and they change no rule, derivation,
normal form or step.  ``reduce`` tries at each position of a word only the
lengths of the leading words that start with its letter, in the order the
lengths first appeared, so it finds the leftmost leading word that trying
every length at every position finds.  Each rule carries, for each word of
its tail, the degree that word drops from the lead, so a rewritten word's
heap key is its parent's plus that drop.  ``complete`` looks for the rules
that contain a new leading word or overlap it only among the rules that
share a letter with it (each letter keeps its leading words with their
insertion ticks), in the order of ``rules``, so its pending elements and
their ticks are the ones a search of every rule gives.

``unresolved`` is the overlap check on its own: given rules that terminate,
an empty answer proves their normal words a basis, whatever order produced
the rules.  Everything is exact; no floating point anywhere.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
from collections import deque
from fractions import Fraction

from .errors import ParameterError, ResourceLimitError

# the most rules a completion may hold: past it ``complete`` refuses
MAX_RULES = 2000


def _add(acc: dict, word: tuple, coef) -> None:
    c = acc.get(word, 0) + coef
    if c:
        acc[word] = c
    else:
        acc.pop(word, None)


def _quotient(a, b):
    """a / b, exact, as an int whenever it is one."""
    if b in (1, -1):
        return a * b
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


def _coefficient(c):
    """``c`` as an exact coefficient: an int when it is integral, else a
    Fraction.  Raises ParameterError on anything that is not rational, a
    binary floating-point value above all, which would pass for its exact
    binary expansion."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if not isinstance(c, numbers.Rational):
            raise ParameterError(f"coefficient {c!r} is not exact: give an int or a Fraction")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _occurs(factor: tuple, word: tuple) -> bool:
    k = len(factor)
    return any(word[i:i + k] == factor for i in range(len(word) - k + 1))


def _inside(bound, system):
    """The test of a bound: None bounds nothing, an int caps the degree, and
    anything else is already a test ``word -> bool``."""
    if callable(bound):
        return bound
    return lambda word: bound is None or system.degree(word) <= bound


class RewritingSystem:
    """Rules ``lead -> tail`` over int letters with per-letter weights."""

    def __init__(self, weights, rules=None):
        self.weights = tuple(weights)
        self.rules: dict[tuple, dict] = {}
        # set by ``complete``: the first leading coefficient other than +-1
        # that it divided by, or None when every one was a unit
        self.non_unit_lead = None
        # leading word -> derivation, as ``complete`` records it (see there)
        self.derivations: dict[tuple, tuple] = {}
        # lead length -> number of rules, in the order the lengths appeared:
        # at one position, the lengths are tried in this order
        self._lengths: dict[int, int] = {}
        # first letter -> {lead length: number of rules}, in ``_lengths`` order
        self._starts: dict[int, dict[int, int]] = {}
        # lead -> its tail as (word, coef, lead degree - word degree)
        self._carried: dict[tuple, tuple] = {}
        # letter -> {lead holding it: insertion tick}
        self._holding: dict[int, dict[tuple, int]] = {}
        self._ticks = itertools.count()
        for lead, tail in (rules or {}).items():
            self.add_rule(lead, tail)

    def degree(self, word: tuple) -> int:
        return sum(map(self.weights.__getitem__, word))

    def order_key(self, word: tuple) -> tuple:
        """The least key leads: higher degree first, then lex-least."""
        return (-self.degree(word), word)

    def add_rule(self, lead: tuple, tail: dict) -> None:
        self.rules[lead] = tail = dict(tail)
        k = len(lead)
        self._lengths[k] = self._lengths.get(k, 0) + 1
        if lead:
            starts = self._starts.get(lead[0], {})
            if k in starts:
                starts[k] += 1
            else:
                self._starts[lead[0]] = {m: starts.get(m, 0) + (m == k)
                                         for m in self._lengths if m in starts or m == k}
        tick = next(self._ticks)
        for x in set(lead):
            self._holding.setdefault(x, {})[lead] = tick
        d = self.degree(lead)
        self._carried[lead] = tuple((w, c, d - self.degree(w)) for w, c in tail.items() if c)

    def remove_rule(self, lead: tuple) -> dict:
        tail = self.rules.pop(lead)
        del self._carried[lead]
        k = len(lead)
        self._lengths[k] -= 1
        if not self._lengths[k]:
            del self._lengths[k]
        if lead:
            starts = self._starts[lead[0]]
            starts[k] -= 1
            if not starts[k]:
                del starts[k]
        for x in set(lead):
            del self._holding[x][lead]
        return tail

    def _sharing(self, lead: tuple) -> list:
        """The leading words that share a letter with ``lead``, in the order
        of ``rules``, and every one if ``lead`` is empty: besides an empty
        leading word, which ``complete`` never keeps beside another rule (it
        reduces every word to zero), only they can overlap ``lead``, contain
        it or lie in it."""
        if not lead:
            return list(self.rules)
        found: dict = {}
        for x in set(lead):
            found.update(self._holding.get(x, {}))
        return sorted(found, key=found.__getitem__)

    def _rewrite(self, word: tuple, i: int, lead: tuple, coef=1) -> dict:
        """One step: ``coef * word`` with the occurrence of ``lead`` at ``i``
        replaced by its tail."""
        left, right = word[:i], word[i + len(lead):]
        return {left + w + right: coef * c for w, c in self.rules[lead].items()}

    def reduce(self, comb: dict, steps: list | None = None) -> dict:
        """The normal form of a combination: no word of it contains a leading
        word.  Words are rewritten leading word first, each once per time it
        appears, so any terminating set of rules reaches the end.

        A word is rewritten at its leftmost leading word, and at one position
        the lead lengths are tried in the order they first appeared.  The scan
        tries at each position only the lengths of the leads that start with
        its letter (``_starts``, kept in that order), and an empty leading
        word matches at position 0; so it finds the lead that trying every
        length at every position would.  A rewritten word's degree is its
        parent's less the drop from the lead to the tail word, carried with
        each rule, so words leave the heap (by ``order_key``) in the same
        order and the steps are the same.

        Each step appends ``(coef, left, lead, right)`` to ``steps`` if given:
        ``coef * left lead right`` became ``coef * left tail right``, so
        ``comb`` minus its normal form is the sum over the steps of
        ``coef * left (lead - tail) right``."""
        carried, starts, lengths = self._carried, self._starts, self._lengths
        empty = () in carried
        out: dict = {}
        work: dict = {}
        heap: list = []  # (-degree, word): the order of ``order_key``
        for w, c in comb.items():
            if c:
                work[w] = c
                heapq.heappush(heap, (-self.degree(w), w))
        while heap:
            key, w = heapq.heappop(heap)
            c = work.pop(w, 0)
            if not c:
                continue
            n = len(w)
            tails = None
            if empty:
                i = 0
                k = next(k for k in lengths if k <= n and w[:k] in carried)
                tails = carried[w[:k]]
            else:
                for i, x in enumerate(w):
                    for k in starts.get(x, ()):
                        if i + k <= n:
                            tails = carried.get(w[i:i + k])
                            if tails is not None:
                                break
                    if tails is not None:
                        break
            if tails is None:
                _add(out, w, c)
                continue
            left, right = w[:i], w[i + k:]
            if steps is not None:
                steps.append((c, left, w[i:i + k], right))
            for mid, cm, drop in tails:
                v = left + mid + right
                cv = c * cm
                old = work.get(v)
                if old is None:
                    heapq.heappush(heap, (key + drop, v))
                    work[v] = cv
                elif old + cv:
                    work[v] = old + cv
                else:
                    del work[v]
        return out

    def _ambiguities_of(self, lead: tuple, others, inside):
        """Ambiguities of ``lead`` against each rule of ``others`` whose word
        is ``inside``, as ``(word, i, one, j, other)``: leading word ``one``
        occurs in ``word`` at ``i`` and ``other`` at ``j``."""
        for other in others:
            pairs = ((lead, other),) if other == lead else ((lead, other), (other, lead))
            for first, second in pairs:
                # overlaps: a proper suffix of first is a prefix of second
                for k in range(1, min(len(first), len(second))):
                    if first[-k:] == second[:k]:
                        word = first + second[k:]
                        if inside(word):
                            yield word, 0, first, len(first) - k, second
                # inclusions: first a proper factor of second
                if len(first) < len(second) and inside(second):
                    for i in range(len(second) - len(first) + 1):
                        if second[i:i + len(first)] == first:
                            yield second, 0, second, i, first

    def _difference(self, word: tuple, i: int, one: tuple, j: int, other: tuple) -> dict:
        diff = self._rewrite(word, i, one)
        for w, c in self._rewrite(word, j, other).items():
            _add(diff, w, -c)
        return diff

    def unresolved(self, max_degree=None) -> list[tuple]:
        """Words of the overlap and inclusion ambiguities (each pair of rules
        once, inside ``max_degree`` if given, a bound as for ``complete``)
        whose two rewrites reduce to different normal forms; empty means the
        diamond lemma applies."""
        inside = _inside(max_degree, self)
        leads = list(self.rules)
        return [amb[0] for i, lead in enumerate(leads)
                for amb in self._ambiguities_of(lead, leads[:i + 1], inside)
                if self.reduce(self._difference(*amb))]

    def proof(self, steps) -> dict:
        """The input relations behind rewriting steps ``(coef, left, lead,
        right)`` by rules with derivations: ``(left, index, right) -> coef``,
        the framed input relations summing to what the steps took away.  A
        derivation names only earlier leading words, so one sweep from the
        newest expands each framed rule once, after everything using it."""
        framed: dict = {}  # lead -> {(left, right): coef}
        for coef, left, lead, right in steps:
            _add(framed.setdefault(lead, {}), (left, right), coef)
        rows: dict = {}
        for lead in reversed(self.derivations):
            for (left, right), coef in framed.pop(lead, {}).items():
                for c, inner_left, src, inner_right in self.derivations[lead]:
                    outer = (left + inner_left, inner_right + right)
                    if isinstance(src, tuple):
                        _add(framed.setdefault(src, {}), outer, coef * c)
                    else:
                        _add(rows, (outer[0], src, outer[1]), coef * c)
        return rows

    def normal_word_counts(self, max_degree: int) -> list[int]:
        """Number of normal words of each degree 0..max_degree
        (``normal_word_counts`` of the weights and leading words)."""
        return normal_word_counts(self.weights, self.rules, max_degree)


def normal_word_counts(weights, leads, max_degree: int) -> list[int]:
    """Number of normal words of each degree 0..max_degree, by dynamic
    programming over the Aho-Corasick automaton of the leading words.  A
    state is the longest suffix of the word read so far that is a proper
    prefix of a leading word; a letter that completes a leading word
    leads nowhere."""
    goto: list[dict] = [{}]
    dead = [False]
    for lead in leads:
        state = 0
        for x in lead:
            nxt = goto[state].get(x)
            if nxt is None:
                nxt = goto[state][x] = len(goto)
                goto.append({})
                dead.append(False)
            state = nxt
        dead[state] = True
    letters = range(len(weights))
    fail = [0] * len(goto)
    delta: list[list[int]] = [[0] * len(weights) for _ in goto]
    for x in letters:
        delta[0][x] = goto[0].get(x, 0)
    queue = deque(goto[0].values())
    while queue:
        state = queue.popleft()
        dead[state] = dead[state] or dead[fail[state]]
        for x in letters:
            nxt = goto[state].get(x)
            if nxt is None:
                delta[state][x] = delta[fail[state]][x]
            else:
                fail[nxt] = delta[fail[state]][x]
                delta[state][x] = nxt
                queue.append(nxt)
    dp: list[dict] = [{} for _ in range(max_degree + 1)]
    if not dead[0]:
        dp[0][0] = 1
    for d in range(max_degree + 1):
        for state, count in dp[d].items():
            row = delta[state]
            for x in letters:
                e = d + weights[x]
                t = row[x]
                if e <= max_degree and not dead[t]:
                    dp[e][t] = dp[e].get(t, 0) + count
    return [sum(layer.values()) for layer in dp]


def complete(weights, relations, bound) -> RewritingSystem:
    """Buchberger completion of ``relations`` (combinations, each meaning
    ``= 0``) that resolves every ambiguity whose word lies inside ``bound``
    (an int caps the degree, a callable tests the word).

    Pending elements are taken lowest degree first and reduced; a nonzero
    remainder becomes a rule from its leading word, after which every rule
    whose leading word contains the new one gives way and goes back to the
    pending elements, and the new rule's ambiguities join them.  The first
    leading coefficient other than +-1 is kept as ``non_unit_lead``.  Past
    ``MAX_RULES`` rules the completion refuses with ``ResourceLimitError``.

    ``derivations[lead]`` keeps terms ``(coef, left, source, right)`` whose
    framed sources sum to ``lead - tail``; a source is the index of an input
    relation or the leading word of an earlier rule.  A leading word that
    gave way contains a current one, so it never leads again and keys its
    derivation for good."""
    system = RewritingSystem(weights)
    inside = _inside(bound, system)
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
        for old in [m for m in system._sharing(lead) if len(m) > len(lead) and _occurs(lead, m)]:
            old_rel = {old: 1}
            for w, c in system.remove_rule(old).items():
                _add(old_rel, w, -c)
            push(old_rel, ((1, (), old, ()),))
        system.add_rule(lead, tail)
        if len(system.rules) > MAX_RULES:
            raise ResourceLimitError(f"the completion passed {MAX_RULES} rules")
        system.derivations[lead] = tuple(
            (_quotient(c, head), left, src, right) for c, left, src, right in derivation
        ) + tuple((_quotient(-c, head), left, src, right) for c, left, src, right in steps)
        for word, i, one, j, other in system._ambiguities_of(lead, system._sharing(lead), inside):
            push(system._difference(word, i, one, j, other),
                 ((-1, word[:i], one, word[i + len(one):]),
                  (1, word[:j], other, word[j + len(other):])))
    return system
