"""Singular words, crossing-difference expansion, and J-expressions."""

import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid.errors import ParameterError, ParseError
from surfbraid.group_algebra import (
    JSummand,
    desingularize,
    format_algebra_element,
    parse_jexpr,
    parse_singular_word,
)
from surfbraid.surface import SurfaceParams

from oracles import desingularize_by_signs

S2 = SurfaceParams(0, 1, 2)
S3 = SurfaceParams(0, 1, 3)

S1 = ("s", 1, 1)
S1I = ("s", 1, -1)
X1 = ("x", 1, 1)


def test_format():
    assert format_algebra_element({(): -2, (S1, S1): 1}) == "-2 * 1\n1 * s1 s1"
    assert format_algebra_element({}) == "0"


class TestSingularWords:
    def test_parse(self):
        assert parse_singular_word("s1 x1 s1^-1", S2) == (S1, X1, S1I)
        assert parse_singular_word("1", S2) == ()

    def test_rejects_inverse_singular(self):
        with pytest.raises(ParseError):
            parse_singular_word("x1^-1", S2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParseError):
            parse_singular_word("x2", S2)


class TestDesingularize:
    def test_single_crossing(self):
        assert desingularize((X1,)) == {(S1,): 1, (S1I,): -1}

    def test_double_crossing(self):
        # (s1 - s1^-1)^2 = s1^2 - 2 + s1^-2
        got = desingularize((X1, X1))
        assert got == {(S1, S1): 1, (): -2, (S1I, S1I): 1}
        assert {type(c) for c in got.values()} == {int}

    def test_framed(self):
        got = desingularize((S1, X1))
        assert got == {(S1, S1): 1, (): -1}

    def test_words_come_out_freely_reduced(self):
        assert desingularize((S1, S1I)) == {(): 1}
        assert desingularize((S1I, X1, S1)) == {(S1,): 1, (S1I,): -1}

    def test_resolutions_of_one_word_merge(self):
        # s1 (s1 - s1^-1) s1^-1 = s1 - s1^-1, so the conjugated crossing
        # squares like x1 x1
        assert desingularize((S1, X1, S1I, X1)) == desingularize((X1, X1))

    @pytest.mark.parametrize("d", range(6))
    def test_a_power_of_one_crossing_is_binomial(self, d):
        # (s1 - s1^-1)^d = sum_k (-1)^k C(d, k) s1^(d - 2k)
        def power(e):
            return (S1,) * e if e >= 0 else (S1I,) * -e

        expected = {power(d - 2 * k): (-1) ** k * comb(d, k) for k in range(d + 1)}
        assert desingularize((X1,) * d) == expected

    def test_sixteen_crossings_merge_to_seventeen_terms(self):
        # 2^16 sign choices, but (s1 - s1^-1)^16 has one term per power of s1
        got = desingularize(parse_singular_word(" ".join(["x1"] * 16), S2))
        assert len(got) == 17 and got[()] == comb(16, 8)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([("s", 1, 1), ("s", 1, -1), ("s", 2, 1), ("s", 2, -1),
                                     ("a", 1, 1), ("a", 1, -1), ("x", 1, 1), ("x", 2, 1)]),
                    max_size=10))
    def test_agrees_with_every_sign_choice(self, word):
        assert desingularize(tuple(word)) == desingularize_by_signs(tuple(word))

    def test_sums_to_the_augmentation(self):
        # sending every s_i to 1 sends each crossing to 1 - 1 = 0; at most
        # 2^d resolutions survive, each with coefficient +-1 before merging
        letters = [("s", 1, 1), ("s", 1, -1), ("s", 2, 1), ("x", 1, 1), ("x", 2, 1)]
        for length in range(5):
            for word in itertools.product(letters, repeat=length):
                got = desingularize(word)
                crossings = sum(1 for letter in word if letter[0] == "x")
                assert sum(got.values()) == (0 if crossings else 1), word
                assert sum(map(abs, got.values())) <= 2 ** crossings, word
                assert all(type(c) is int and c != 0 for c in got.values()), word

    def test_is_multiplicative(self):
        # the expansion of a concatenation is the free-group-ring product
        # of the expansions
        def product(x, y):
            out = {}
            for (u, a), (v, b) in itertools.product(x.items(), y.items()):
                w = list(u)
                for letter in v:
                    if w and w[-1] == (letter[0], letter[1], -letter[2]):
                        w.pop()
                    else:
                        w.append(letter)
                w = tuple(w)
                out[w] = out.get(w, 0) + a * b
            return {w: c for w, c in out.items() if c}

        rng = random.Random(23)
        letters = [("s", i, e) for i in (1, 2) for e in (1, -1)] + [("x", 1, 1), ("x", 2, 1)]
        for _ in range(200):
            u = tuple(rng.choice(letters) for _ in range(rng.randrange(5)))
            v = tuple(rng.choice(letters) for _ in range(rng.randrange(5)))
            assert desingularize(u + v) == product(desingularize(u), desingularize(v)), (u, v)

    def _nested_expansion(self, word):
        """Independent oracle: resolve the first singular letter, recurse,
        and free-reduce with a local stack."""

        def reduce_word(w):
            out = []
            for let in w:
                if out and out[-1] == (let[0], let[1], -let[2]):
                    out.pop()
                else:
                    out.append(let)
            return tuple(out)

        for pos, let in enumerate(word):
            if let[0] == "x":
                acc = {}
                for sign in (1, -1):
                    rest = self._nested_expansion(
                        word[:pos] + (("s", let[1], sign),) + word[pos + 1:]
                    )
                    for w, c in rest.items():
                        c2 = acc.get(w, 0) + sign * c
                        if c2:
                            acc[w] = c2
                        elif w in acc:
                            del acc[w]
                return acc
        return {reduce_word(word): 1}

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_nested_expansion(self, n):
        s = SurfaceParams(0, 1, n)
        letters = []
        for i in range(1, n):
            letters += [("s", i, 1), ("s", i, -1), ("x", i, 1)]
        for length in range(0, 4):
            for word in itertools.product(letters, repeat=length):
                assert desingularize(word) == self._nested_expansion(word), word


class TestJExpressions:
    def test_integral_coefficients_are_ints(self):
        assert type(JSummand(Fraction(4, 2), (), 1, ()).coef) is int
        assert JSummand(Fraction(2, 4), (), 1, ()).coef == Fraction(1, 2)

    @pytest.mark.parametrize("value", [0.1, 0.5, 2j, "1/2"], ids=repr)
    def test_an_inexact_coefficient_is_refused(self, value):
        with pytest.raises(ParameterError, match=re.escape(repr(value))):
            JSummand(value, (), 1, ())

    def test_parse(self):
        summands = parse_jexpr("1 | | 1 | s1", S2)
        assert summands == [JSummand(1, (), 1, (S1,))]
        summands = parse_jexpr("2 | s1 | 1 | ; -1 | | 1 |", S2)
        assert summands == [
            JSummand(2, (S1,), 1, ()),
            JSummand(-1, (), 1, ()),
        ]

    def test_parse_exact_coefficients(self):
        # decimals parse exactly; integral values come out as ints
        (half, two) = parse_jexpr("0.5 | | 1 | ; 4/2 | | 1 |", S2)
        assert half.coef == Fraction(1, 2) and type(two.coef) is int and two.coef == 2

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_jexpr("1 | s1 | 1", S2)
        with pytest.raises(ParseError):
            parse_jexpr("q | | 1 | ", S2)
        with pytest.raises(ParseError):
            parse_jexpr("1 | | 7 | ", S2)
        with pytest.raises(ParseError):
            parse_jexpr("1 | x1 | 1 | ", S2)
