import itertools
import math
import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys import galoistools as gt
from sympy.polys.domains import QQ, ZZ

from germ.exactfield import (
    PRIME_LIMIT,
    FieldError,
    FunctionField,
    _is_prime,
    _prime_above,
    _prime_factors,
    descend_scalar,
    is_pth_power,
    make_extension,
    make_field,
)

Q = make_field("Q")
X = sympy.Symbol("x")
F2 = make_field("F2")
F3 = make_field("F3")
F5 = make_field("F5")


def test_field_spellings_round_trip():
    for text in ("Q", "F3", "F3[b]/(b^2+1)", "Q[a]/(a^2-2)", "F3(s)"):
        field = make_field(text)
        assert repr(make_field(repr(field))) == repr(field)


def test_prime_field_arithmetic_tables():
    elems = list(F5.elements())
    assert len(elems) == 5
    for a in elems:
        assert (a + F5.zero) == a
        assert (a * F5.one) == a
        assert (a - a).is_zero()
        if not a.is_zero():
            assert (a / a) == F5.one
            assert (a * a.inverse()) == F5.one


def test_rational_arithmetic_is_exact():
    third = Q.from_int(1) / Q.from_int(3)
    assert str(third * Q.from_int(3)) == "1"
    assert str(Q.from_int(2) ** 10) == "1024"
    with pytest.raises(ZeroDivisionError):
        Q.one / Q.zero


@pytest.mark.parametrize("seed", range(5))
def test_field_axioms_sampled(seed):
    rng = random.Random(seed)
    for field in (Q, F3, make_field("F3[b]/(b^2+1)")):
        pool = (list(field.elements()) if field.is_finite()
                else [field.from_int(rng.randrange(-9, 10)) for _ in range(12)])
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a - a == field.zero * c


def test_quadratic_extension_embed_and_descend():
    ext = make_extension(Q, "a^2-2")
    a = ext.top.generator_env()["a"]
    assert (a * a) == ext.top.from_int(2)
    two = ext.embed(Q.from_int(2))
    assert ext.descend(two) == Q.from_int(2)
    assert ext.descend(a) is None
    assert descend_scalar(a + two, ext) is None
    coords = ext.coordinates(a)
    assert str(coords[1]) == "1"


def test_finite_extension_has_the_right_size():
    ext9 = make_extension(F3, "b^2+1")
    assert ext9.top.size() == 9
    assert len(list(ext9.top.elements())) == 9
    ext27 = make_extension(F3, "c^3+2*c+1")
    assert ext27.top.size() == 27
    # every base element embeds injectively
    images = {ext9.embed(e).key() for e in F3.elements()}
    assert len(images) == 3


def test_extension_arithmetic_matches_minpoly():
    ext = make_extension(F3, "b^2+1")
    b = ext.top.generator_env()["b"]
    assert (b * b + ext.top.one).is_zero()
    inv = b.inverse()
    assert (b * inv) == ext.top.one


def test_reducible_minpoly_rejected():
    with pytest.raises(FieldError, match="reducible"):
        make_extension(F3, "b^2-1")
    with pytest.raises(FieldError, match="reducible"):
        make_field("F3[b]/(b^2-1)")
    with pytest.raises(FieldError, match="reducible"):
        make_extension(Q, "a^2-1")


def test_unsupported_towers_rejected():
    sqrt2 = make_extension(Q, "a^2-2")
    with pytest.raises(FieldError):
        make_extension(sqrt2.top, "c^2-3")
    f3s = make_field("F3(s)")
    with pytest.raises(FieldError):
        make_extension(f3s, "u^2-s")


def test_finite_tower_is_allowed():
    f4 = make_extension(F2, "b^2+b+1").top
    up = make_extension(f4, "c^2+c+b")
    assert up.top.size() == 16


def test_function_field_arithmetic():
    f3s = make_field("F3(s)")
    s = f3s.generator_env()["s"]
    expr = (s + f3s.one) / s
    assert (expr * s) == s + f3s.one
    assert not f3s.is_finite()


def test_function_field_strings_and_keys_are_pinned():
    f3s = make_field("F3(s)")
    s = f3s.generator
    e = (s ** 2 + 1) / (s + 2)
    assert repr(f3s) == "F3(s)" and f3s.base == F3 and f3s.char == 3
    assert str(e) == "(s^2+1)/(s+2)"
    assert e.key() == ((1, 0, 1), (2, 1))
    assert f3s.from_int(4).key() == ((1,), (1,)) and f3s.from_int(3).key() == ((), (1,))
    assert str(2 * s / (2 * s ** 2 + 2)) == "(s)/(s^2+1)"


def test_function_field_over_any_base():
    qu = FunctionField(Q, "u")
    u = qu.generator
    assert repr(qu) == "Q(u)" and qu.char == 0
    assert (u ** 2 - 1) / (u - 1) == u + 1
    assert str((u + 1) / (2 * u)) == "((1/2)*u+1/2)/(u)"
    assert qu.from_int(3) == qu.embed(Q.from_int(3))
    f9 = make_extension(F3, "b^2+1").top
    f9c = FunctionField(f9, "c")
    b, c = f9c.generator_env()["b"], f9c.generator
    assert b == f9c.embed(f9.generator_env()["b"])
    assert (c ** 2 + 1) / (c - b) == c + b and f9c.char == 3
    with pytest.raises(FieldError, match="base field"):
        qu.embed(F3.one)
    with pytest.raises(FieldError, match="not supported"):
        is_pth_power(c ** 3, 3)


# The parent's output for minimal-polynomial text, recorded before minimal
# polynomials were evaluated in FunctionField; the only changes since are
# marked: a quotient that cancels to a polynomial is accepted, and a zero
# divisor reads "inverse of zero" as it does for scalars and jets
MINPOLY_CASES = [
    ("Q", "a^2-2", ("Q[a]/(a^2-2)", "a^2-2")),
    ("Q", "a^2/2-1", ("FieldError", "minimal polynomial must be monic")),
    ("Q", "1/a+a^2", ("FieldError", "cannot divide by a non-constant polynomial")),
    ("Q", "x+y", ("FieldError", "expected exactly one new variable in 'x+y', found ['x', 'y']")),
    ("Q", "a^^2", ("ExprError", "line 1, col 3: exponent must be a non-negative integer")),
    ("Q", "(a^2+a)/(a+1)", ("Q[a]/(a)", "a")),  # changed: was refused
    ("Q", "a/0", ("ExprError", "line 1, col 2: division not available here: "
                               "inverse of zero")),  # changed: was "division by zero"
    ("Q", "2*a^3-4", ("FieldError", "minimal polynomial must be monic")),
    ("Q", "(a-1)*(a+1)", ("FieldError", "minimal polynomial a^2-1 is reducible")),
    ("Q", "a^9+a+1", ("FieldError", "minimal polynomial degree must be 1..8")),
    ("Q", "a-a+1", ("FieldError", "minimal polynomial degree must be 1..8")),
    ("Q", "a^2+1/2", ("Q[a]/(a^2+1/2)", "a^2+1/2")),
    ("F3", "a^2+1", ("F3[a]/(a^2+1)", "a^2+1")),
    ("F3", "a^2-1", ("FieldError", "minimal polynomial a^2+2 is reducible")),
    ("F3", "a^3-a+1", ("F3[a]/(a^3+2*a+1)", "a^3+2*a+1")),
    ("F3", "a^2/2+1", ("FieldError", "minimal polynomial must be monic")),
    ("F3", "a^2+a/a", ("F3[a]/(a^2+1)", "a^2+1")),  # changed: was refused
    ("F3[b]/(b^2+1)", "c^2+c+b", ("F3[b]/(b^2+1)[c]/(c^2+c+b)", "c^2+c+b")),
    ("F3[b]/(b^2+1)", "c^2-b", ("FieldError", "minimal polynomial c^2+2*b is reducible")),
    ("F3[b]/(b^2+1)", "c^2+c/b+1",
     ("FieldError", "minimal polynomial c^2+2*b*c+1 is reducible")),
    ("F3[b]/(b^2+1)", "b^2+1",
     ("FieldError", "expected exactly one new variable in 'b^2+1', found []")),
    ("F3[b]/(b^2+1)", "c/(b+1)+c^2",
     ("FieldError", "minimal polynomial c^2+(b+2)*c is reducible")),
]


@pytest.mark.parametrize("base, text, expected", MINPOLY_CASES)
def test_minimal_polynomial_text_is_pinned(base, text, expected):
    try:
        top = make_extension(make_field(base), text).top
        got = (repr(top), top.minpoly_str())
    except ValueError as e:
        got = (type(e).__name__, str(e))
    assert got == expected


def test_pth_power_detection():
    # finite fields: Frobenius is onto, every element has a cube root
    for e in F3.elements():
        root = is_pth_power(e, 3)
        assert root is not None and root ** 3 == e
    f27 = make_extension(F3, "c^3+2*c+1").top
    c = f27.generator_env()["c"]
    root = is_pth_power(c, 3)
    assert root is not None and root ** 3 == c
    # the rational function s is not a cube, but s^3 is
    f3s = make_field("F3(s)")
    s = f3s.generator_env()["s"]
    assert is_pth_power(s, 3) is None
    again = is_pth_power(s ** 3, 3)
    assert again == s
    # characteristic must match
    with pytest.raises(FieldError):
        is_pth_power(Q.one, 3)


def test_keys_sort_deterministically():
    elems = sorted(make_extension(F3, "b^2+1").top.elements(),
                   key=lambda e: e.key())
    once = [str(e) for e in elems]
    again = [str(e) for e in sorted(make_extension(F3, "b^2+1").top.elements(),
                                    key=lambda e: e.key())]
    assert once == again
    assert len(set(once)) == 9



def test_pth_root_is_checked_before_it_is_returned(monkeypatch):
    f9 = make_extension(F3, "b^2+1").top
    b = f9.generator_env()["b"]
    # a wrong field size gives the wrong exponent: b^9 = b is no cube root
    monkeypatch.setattr(f9, "size", lambda: 27)
    with pytest.raises(FieldError, match="root"):
        is_pth_power(b, 3)


# -- primality -----------------------------------------------------------------

def test_miller_rabin_matches_trial_division():
    got = [n for n in range(20000) if _is_prime(n)]
    want = [n for n in range(2, 20000)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert got == want


@pytest.mark.parametrize("n,prime", [
    (3215031751, False),             # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),    # strong pseudoprime to bases 2..23
    (2 ** 61 - 1, True),
    (10 ** 18 + 3, True),
])
def test_miller_rabin_on_strong_pseudoprimes_and_large_primes(n, prime):
    assert _is_prime(n) == prime


def test_prime_factors_match_sympy():
    # 2 * 1000003 leaves a prime cofactor above the trial-division limit
    for n in list(range(1, 3000)) + [2 * 1000003, 10 ** 18 + 2]:
        assert _prime_factors(n) == sorted(sympy.primefactors(n)), n


@pytest.mark.parametrize("n", [1000003 * 1000033, 2 * (2 ** 89 - 1)])
def test_prime_factors_refuse_a_cofactor_they_cannot_certify(n):
    # a composite with no factor up to the trial-division limit, and a
    # prime above PRIME_LIMIT
    with pytest.raises(FieldError, match="not provably prime"):
        _prime_factors(n)


def test_a_large_prime_field_is_built_at_once():
    start = time.perf_counter()
    field = make_field("F1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert field.size() == 10 ** 18 + 3
    assert (field.from_int(2) ** (10 ** 18 + 2)) == field.one


@pytest.mark.parametrize("text", ["F1000000000000000000000000000057",
                                  "F1000000000000000000000000000057(s)",
                                  f"F{PRIME_LIMIT + 1}"])
def test_prime_fields_at_the_miller_rabin_limit_are_refused(text):
    with pytest.raises(FieldError, match=r"p < 3\.3e24"):
        make_field(text)


@pytest.mark.parametrize("n", [1, 6, 10 ** 6, PRIME_LIMIT // 2 - 1,
                               PRIME_LIMIT, 10 ** 40, 10 ** 60])
def test_prime_above_is_prime_and_least_below_the_limit(n):
    p = _prime_above(n)
    assert p > n and sympy.isprime(p)
    if 2 * n < PRIME_LIMIT:
        assert p == sympy.nextprime(n)


# -- irreducibility of minimal polynomials over Q ------------------------------

@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block after ``seconds`` of wall time."""
    def expire(*_):
        raise TimeoutError(f"no verdict within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _q_verdict(poly):
    """Whether make_extension accepts the sympy Poly ``poly`` over Q (made
    monic), within one second."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in poly.monic().all_coeffs()[::-1]]
    with _deadline(1.0):
        try:
            make_extension(Q, tuple(Q.from_int(c.numerator) / Q.from_int(c.denominator)
                                    for c in coeffs), "a")
        except FieldError as e:
            assert "reducible" in str(e)
            return False
    return True


Q_PINNED = [
    (X**4 + 1, True),
    (X**4 - 10 * X**2 + 1, True),
    # the minimal polynomial of sqrt 2 + sqrt 3 + sqrt 5: reducible mod every prime
    (X**8 - 40 * X**6 + 352 * X**4 - 960 * X**2 + 576, True),
    (sympy.cyclotomic_poly(15, X), True),
    (X**3 - 2, True),
    ((X**2 - 2) * (X**2 - 3), False),
    ((X**2 + 1) ** 2, False),
    ((X**4 + 1) * (X**4 + 2), False),
    # 1249, the least prime above the factor bound, divides the discriminant
    (X**6 + 34 * X**5 + 5 * X**4 + X**3 + 33 * X**2 + 23 * X - 31, True),
    # factor bounds above PRIME_LIMIT, so the test prime is a Pocklington prime
    (X**2 - (10**30 + 1), True),
    (X**2 - 10**30, False),
    ((X**2 - 3 * 10**20) * (X**2 + 10**21 + 7), False),
    (X**2 - sympy.Rational(1, 3**60), False),
]


@pytest.mark.parametrize("expr,irreducible", Q_PINNED, ids=[str(e) for e, _ in Q_PINNED])
def test_q_irreducibility_pinned_cases(expr, irreducible):
    poly = sympy.Poly(expr, X, domain=QQ)
    assert poly.is_irreducible == irreducible
    assert _q_verdict(poly) == irreducible


# a factor of degree 1-4 with coefficients n/m, |n| <= 30, 1 <= m <= 9
Q_FACTOR = st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)),
                    min_size=2, max_size=5).filter(lambda cs: cs[-1] != 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(Q_FACTOR, min_size=1, max_size=3).filter(
    lambda fs: 2 <= sum(len(f) - 1 for f in fs) <= 8))
def test_q_irreducibility_matches_sympy(factors):
    poly = sympy.Poly(1, X, domain=QQ)
    for cs in factors:
        poly *= sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in cs[::-1]],
                           X, domain=QQ)
    assert _q_verdict(poly) == poly.is_irreducible


# -- irreducibility of minimal polynomials over finite fields ----------------


def _sympy_irreducible(coeffs, p):
    return sympy.Poly(coeffs[::-1], X, modulus=p).is_irreducible


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_irreducibility_matches_sympy(p):
    rng = random.Random(p)
    field = make_field(f"F{p}")
    polys = [[rng.randrange(p) for _ in range(deg)] + [1]
             for deg in range(2, 9) for _ in range(6)]
    if p == 101:
        polys += [[5, 1, 0, 0, 0, 0, 0, 0, 1], [3, 1, 0, 0, 0, 0, 1]]
    verdicts = set()
    for coeffs in polys:
        try:
            make_extension(field, tuple(field.from_int(c) for c in coeffs), "b")
            got = True
        except FieldError:
            got = False
        assert got == _sympy_irreducible(coeffs, p), coeffs
        verdicts.add(got)
    assert verdicts == {True, False}


def test_degree_eight_over_f101_is_accepted():
    assert _sympy_irreducible([5, 1, 0, 0, 0, 0, 0, 0, 1], 101)
    assert make_field("F101[b]/(b^8+b+5)").size() == 101 ** 8


# verdicts over F4 = F2[b]/(b^2+b+1), recorded with the exhaustive factor
# search that Rabin's test replaced
TOWER_VERDICTS = [
    ("c^2+c+1", False), ("c^2+c+b", True), ("c^2+b", False),
    ("c^3+b", True), ("c^3+c+1", True), ("c^4+c+1", False),
    ("c^2+b*c+1", True), ("c^3+b*c+b", False), ("c^4+c+b", False),
]


@pytest.mark.parametrize("text,irreducible", TOWER_VERDICTS)
def test_tower_irreducibility_is_unchanged(text, irreducible):
    f4 = make_extension(F2, "b^2+b+1").top
    if irreducible:
        ext = make_extension(f4, text)
        assert ext.top.size() == 4 ** ext.degree
    else:
        with pytest.raises(FieldError, match="reducible"):
            make_extension(f4, text)


# -- an arithmetic oracle for extension fields -----------------------------

# name -> (p, minimal polynomial, its coefficients mod p, descending)
FINITE = {
    "F9": (3, "b^2+1", [1, 0, 1]),
    "F25": (5, "b^2+2", [1, 0, 2]),
    "F27": (3, "c^3+2*c+1", [1, 0, 2, 1]),
}
FINITE_EXT = {name: make_extension(make_field(f"F{p}"), text)
              for name, (p, text, _) in FINITE.items()}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FINITE)), st.data())
def test_finite_extension_arithmetic_matches_galoistools(name, data):
    p, _, mod = FINITE[name]
    ext = FINITE_EXT[name]
    elems = list(ext.top.elements())
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    n = data.draw(st.integers(-30, 60))

    def coords(e):
        return tuple(c.key() for c in ext.coordinates(e))

    def reduced(poly):
        rem = gt.gf_rem(poly, mod, p, ZZ)[::-1]
        return tuple(rem) + (0,) * (ext.degree - len(rem))

    A, B = (gt.gf_strip(list(coords(e))[::-1]) for e in (a, b))
    assert coords(a + b) == reduced(gt.gf_add(A, B, p, ZZ))
    assert coords(a - b) == reduced(gt.gf_sub(A, B, p, ZZ))
    assert coords(a * b) == reduced(gt.gf_mul(A, B, p, ZZ))
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            b.inverse()
        return
    s, _, h = gt.gf_gcdex(B, mod, p, ZZ)
    assert h == [1]
    assert coords(b.inverse()) == reduced(s)
    assert coords(a / b) == reduced(gt.gf_mul(A, s, p, ZZ))
    assert coords(b ** n) == reduced(gt.gf_pow_mod(s if n < 0 else B, abs(n), mod, p, ZZ))


QSQRT2 = make_extension(Q, "a^2-2")
SQRT2_MOD = sympy.Poly(X**2 - 2, X, domain=QQ)
SMALL_FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(SMALL_FRACTIONS, min_size=4, max_size=4), st.integers(-6, 12))
def test_sqrt2_arithmetic_matches_sympy_remainders(cs, n):
    gen = QSQRT2.top.generator

    def elem(c0, c1):
        q0, q1 = (Q.from_int(c.numerator) / Q.from_int(c.denominator) for c in (c0, c1))
        e = QSQRT2.embed(q0) + QSQRT2.embed(q1) * gen
        assert coords(e) == (c0, c1)
        return e

    def coords(e):
        return tuple(c.key() for c in QSQRT2.coordinates(e))

    def poly(c0, c1):
        return sympy.Poly([sympy.Rational(c1.numerator, c1.denominator),
                           sympy.Rational(c0.numerator, c0.denominator)], X, domain=QQ)

    def reduced(pl):
        rem = [Fraction(int(c.p), int(c.q)) for c in pl.rem(SQRT2_MOD).all_coeffs()[::-1]]
        return tuple(rem) + (Fraction(0),) * (2 - len(rem))

    a, b = elem(cs[0], cs[1]), elem(cs[2], cs[3])
    A, B = poly(cs[0], cs[1]), poly(cs[2], cs[3])
    assert coords(a + b) == reduced(A + B)
    assert coords(a * b) == reduced(A * B)
    if b.is_zero():
        return
    inv = B.invert(SQRT2_MOD)
    assert coords(b.inverse()) == reduced(inv)
    assert coords(a / b) == reduced(A * inv)
    assert coords(b ** n) == reduced((inv if n < 0 else B) ** abs(n))


F16 = make_extension(make_extension(F2, "b^2+b+1").top, "c^2+c+b").top
F16_ELEMS = list(F16.elements())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(F16_ELEMS), st.sampled_from(F16_ELEMS),
       st.sampled_from(F16_ELEMS))
def test_tower_arithmetic_obeys_the_field_axioms(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + F16.zero == a and a * F16.one == a
    assert (a - a).is_zero() and a + a == F16.zero
    assert a ** 16 == a
    if not a.is_zero():
        assert a * a.inverse() == F16.one
        assert a ** 15 == F16.one


# str, key() and coordinates in elements() order, recorded before extension
# elements were stored as tuples of raw base-field representations
PINNED_STR = {
    "F9": ["0", "b", "2*b", "1", "b+1", "2*b+1", "2", "b+2", "2*b+2"],
    "F27": ["0", "c^2", "2*c^2", "c", "c^2+c", "2*c^2+c", "2*c", "c^2+2*c",
            "2*c^2+2*c", "1", "c^2+1", "2*c^2+1", "c+1", "c^2+c+1",
            "2*c^2+c+1", "2*c+1", "c^2+2*c+1", "2*c^2+2*c+1", "2", "c^2+2",
            "2*c^2+2", "c+2", "c^2+c+2", "2*c^2+c+2", "2*c+2", "c^2+2*c+2",
            "2*c^2+2*c+2"],
}


@pytest.mark.parametrize("name", sorted(PINNED_STR))
def test_element_strings_keys_and_coordinates_are_pinned(name):
    ext = FINITE_EXT[name]
    elems = list(ext.top.elements())
    # the recorded keys are the coordinate tuples in lexicographic order
    keys = list(itertools.product(range(3), repeat=ext.degree))
    assert [str(e) for e in elems] == PINNED_STR[name]
    assert [e.key() for e in elems] == keys
    for e, key in zip(elems, keys):
        coords = ext.coordinates(e)
        assert all(c.field == F3 for c in coords)
        assert tuple(c.key() for c in coords) == key
        assert [str(c) for c in coords] == [str(k) for k in key]


# -- primitive elements ------------------------------------------------------

def _multiplicative_order(z):
    k, power = 1, z
    while power != z.field.one:
        power, k = power * z, k + 1
    return k


PRIMITIVE_FIELDS = {
    "F2": F2,
    "F4": make_extension(F2, "b^2+b+1").top,
    "F9": FINITE_EXT["F9"].top,
    "F16": F16,
    "F25": FINITE_EXT["F25"].top,
    "F27": FINITE_EXT["F27"].top,
    "F101": make_field("F101"),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_FIELDS))
def test_primitive_element_has_full_multiplicative_order(name):
    field = PRIMITIVE_FIELDS[name]
    z = field.primitive_element()
    assert z.field is field
    assert _multiplicative_order(z) == field.size() - 1
    # the first generator in elements() order, found once per field
    first = next(e for e in field.elements()
                 if not e.is_zero() and _multiplicative_order(e) == field.size() - 1)
    assert z == first
    assert field.primitive_element() is z


def test_primitive_element_of_a_degree_six_field_over_f101_is_immediate():
    field = make_extension(make_field("F101"), "b^6+b+3").top
    start = time.perf_counter()
    z = field.primitive_element()
    assert time.perf_counter() - start < 1.0
    q = field.size()
    # q - 1 = 2^3 * 3^2 * 5^2 * 7 * 13 * 17 * 37 * 10303
    assert q - 1 == 2 ** 3 * 3 ** 2 * 5 ** 2 * 7 * 13 * 17 * 37 * 10303
    assert z ** (q - 1) == field.one
    for r in (2, 3, 5, 7, 13, 17, 37, 10303):
        assert z ** ((q - 1) // r) != field.one


def test_infinite_fields_have_no_primitive_element():
    with pytest.raises(FieldError, match="not finite"):
        Q.primitive_element()
