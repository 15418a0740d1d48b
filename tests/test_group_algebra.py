"""Group-algebra elements, singular words, and crossing-difference expansion."""

import itertools
import re
from fractions import Fraction

import pytest

from surfbraid.errors import ParameterError, ParseError
from surfbraid.group_algebra import (
    AlgebraElement,
    JSummand,
    desingularize,
    format_algebra_element,
    jexpr_value,
    parse_jexpr,
    parse_singular_word,
    singular_degree,
)
from surfbraid.surface import SurfaceParams

S2 = SurfaceParams(0, 1, 2)
S3 = SurfaceParams(0, 1, 3)

S1 = ("s", 1, 1)
S1I = ("s", 1, -1)
X1 = ("x", 1, 1)


def elem(*terms):
    return AlgebraElement({word: coef for word, coef in terms})


class TestAlgebraElement:
    def test_words_free_reduce(self):
        x = AlgebraElement({(S1, S1I): 1})
        assert x == AlgebraElement.one()

    def test_zero_coefficients_drop(self):
        assert AlgebraElement({(S1,): 0}).is_zero
        assert (elem(((S1,), 1)) - elem(((S1,), 1))).is_zero

    def test_ring_ops(self):
        x = elem(((S1,), 1), ((S1I,), -1))
        y = elem(((S1,), 1), ((S1I,), 1))
        assert x * y == elem(((S1, S1), 1), ((S1I, S1I), -1))
        assert x + y == elem(((S1,), 2))
        assert -x == elem(((S1,), -1), ((S1I,), 1))
        assert x.scale(3) == elem(((S1,), 3), ((S1I,), -3))

    def test_one_and_zero(self):
        one = AlgebraElement.one()
        zero = AlgebraElement.zero()
        x = elem(((S1,), 5))
        assert one * x == x
        assert zero * x == zero
        assert x - x == zero

    def test_integral_coefficients_are_ints(self):
        x = elem(((S1,), Fraction(4, 2)), ((S1I,), Fraction(1, 2)))
        y = x * x + x.scale(Fraction(2, 3)) + elem(((S1I,), Fraction(2, 3)))
        assert {type(c) for c in x.scale(2).terms.values()} == {int}
        assert y.terms == {(S1, S1): 4, (S1I, S1I): Fraction(1, 4), (S1,): Fraction(4, 3),
                           (S1I,): 1, (): 2}
        assert type(y.terms[()]) is type(y.terms[(S1I,)]) is int

    @pytest.mark.parametrize("value", [0.1, 0.5, 2j], ids=repr)
    def test_an_inexact_coefficient_is_refused(self, value):
        with pytest.raises(ParameterError, match=re.escape(repr(value))):
            AlgebraElement({(): value})
        with pytest.raises(ParameterError, match=re.escape(repr(value))):
            AlgebraElement.from_word((S1,), value)
        with pytest.raises(ParameterError, match=re.escape(repr(value))):
            elem(((S1,), 1)).scale(value)

    def test_format(self):
        x = elem(((), -2), ((S1, S1), 1))
        assert format_algebra_element(x) == "-2 * 1\n1 * s1 s1"
        assert format_algebra_element(AlgebraElement.zero()) == "0"


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

    def test_degree(self):
        assert singular_degree((S1, X1, X1)) == 2
        assert singular_degree((S1,)) == 0


class TestDesingularize:
    def test_single_crossing(self):
        assert desingularize((X1,)) == elem(((S1,), 1), ((S1I,), -1))

    def test_double_crossing(self):
        # (s1 - s1^-1)^2 = s1^2 - 2 + s1^-2
        got = desingularize((X1, X1))
        assert got == elem(((S1, S1), 1), ((), -2), ((S1I, S1I), 1))

    def test_framed(self):
        got = desingularize((S1, X1))
        assert got == elem(((S1, S1), 1), ((), -1))

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
                if singular_degree(word) > 3:
                    continue
                got = desingularize(word)
                assert got.terms == self._nested_expansion(word), word


class TestJExpressions:
    def test_value_of_crossing_difference(self):
        # 1 * eps . x1 . s1  ->  s1^2 - 1
        val = jexpr_value([JSummand(1, (), 1, (S1,))])
        assert val == elem(((S1, S1), 1), ((), -1))

    def test_value_framed_sum(self):
        val = jexpr_value([
            JSummand(1, (), 1, ()),
            JSummand(-1, (S1,), 1, ()),
        ])
        direct = desingularize((X1,)) - elem(((S1,),  1)) * desingularize((X1,))
        assert val == direct

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

    def test_round_trip_through_value(self):
        text = "1 | | 1 | s1 ; -1 | s1 | 1 | s1^-1"
        val = jexpr_value(parse_jexpr(text, S2))
        manual = (
            desingularize((X1,)) * elem(((S1,), 1))
            - elem(((S1,), 1)) * desingularize((X1,)) * elem(((S1I,), 1))
        )
        assert val == manual
