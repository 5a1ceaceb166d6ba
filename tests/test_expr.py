from fractions import Fraction

import pytest

from germ.expr import ExprError, eval_str, names_in, parse


def _eval(text, env=None):
    return eval_str(text, env or {}, Fraction)


def test_precedence_and_parentheses():
    assert _eval("1+2*3") == 7
    assert _eval("(1+2)*3") == 9
    assert _eval("2^3^2") == 64  # chained powers bind left to right
    assert _eval("-2^2") == -4
    assert _eval("6/4") == Fraction(3, 2)


def test_names_resolve_through_the_environment():
    assert _eval("x*y + 2", {"x": Fraction(3), "y": Fraction(5)}) == 17
    node = parse("a*b + c^2")
    assert sorted(names_in(node)) == ["a", "b", "c"]


def test_unknown_name_is_an_error():
    with pytest.raises(ExprError):
        _eval("nope + 1")


def test_error_positions_are_one_based():
    with pytest.raises(ExprError) as info:
        parse("1 + * 2")
    assert info.value.line == 1
    assert info.value.col == 5
    with pytest.raises(ExprError) as info:
        parse("(1 + 2")
    assert "line 1" in str(info.value)


def test_division_by_zero_reported_with_position():
    with pytest.raises(ExprError):
        _eval("1/0")
    with pytest.raises(ExprError):
        _eval("1/(2-2)")


def test_power_needs_a_literal_integer_exponent():
    with pytest.raises(ExprError):
        _eval("x^y", {"x": Fraction(2), "y": Fraction(2)})



def test_long_chains_evaluate_in_a_loop():
    # a chain nests to the left as deep as it is long, far past the
    # recursion limit; the operations still apply left to right
    n = 3000
    two = {"x": Fraction(2)}
    assert _eval("+".join(["x"] * n), two) == 2 * n
    assert _eval("-".join(["x"] * n), two) == 2 - 2 * (n - 1)
    assert _eval("*".join(["x"] * n), two) == 2 ** n
    assert _eval("/".join(["x"] * n), two) == Fraction(1, 2 ** (n - 2))
    assert _eval("x" + "^1" * n + "*3-1", two) == 5
    with pytest.raises(ExprError, match="unknown name 'y'"):
        _eval("+".join(["x"] * n) + "+y", two)
    names = [f"a{i % 7}" for i in range(n)]
    assert names_in(parse("+".join(names) + "*(b-c)^2")) == \
        [f"a{i}" for i in range(7)] + ["b", "c"]
