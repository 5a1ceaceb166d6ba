"""Exact coefficient fields with canonical element representations.

An element is a ``FieldElem(field, rep)``.  Each field stores its raw
representation (``rep``) in a canonical form, so that equality of elements
is literal equality of the reps:

* ``Rationals`` — `fractions.Fraction`;
* ``PrimeField(p)`` — ints in ``range(p)``;
* ``ExtensionField(base, a, minpoly)`` — a tuple of exactly d raw base reps,
  the coordinates in the power basis ``1, a, ..., a^(d-1)``: ints over F_p,
  Fractions over Q, and over a finite tower (an extension of an extension)
  tuples of such tuples.  No ``FieldElem`` sits inside a rep.  A product
  folds the high coefficients of the schoolbook product back with reduction
  rows a^(d+k) mod minpoly (k = 0..d-2), built once per field; an inverse
  runs extended Euclid on raw reps;
* ``FunctionField(base, s)`` — rational functions in s over any of these
  fields, stored as a reduced fraction of dense coefficient tuples of raw
  base reps with monic denominator.  ``make_field`` builds them over F_p
  only, to realize imperfect-field phenomena, and they cannot be extended;
  over any base they are where minimal-polynomial text is evaluated.

Every field does its arithmetic on raw reps (``_add``, ``_neg``, ``_mul``,
``_inv``, ``_is_zero`` and the raw constants ``_zero``, ``_one``), and
``FieldElem`` wraps the results.  One set of dense univariate polynomial
helpers (``poly_*``) works on tuples of raw reps over any such field; it
serves extension fields, the irreducibility test and the rational function
fields.  ``power`` is the one square-and-multiply loop of scalars, jets and
polynomials in unknowns.

Minimal polynomials are checked for irreducibility: over finite fields by
Rabin's test, over the rationals by Zassenhaus's big-prime test (factor
modulo a prime above twice the leading coefficient times a Landau–Mignotte
bound, then try every product of modular factors of at most half the
degree as an integer factor).  Primes are certified by deterministic
Miller–Rabin, exact below ``PRIME_LIMIT`` = 3.3·10^24; prime fields at or
above it are refused, and a test prime above it is certified by
Pocklington's theorem.  Degrees above 8 are rejected — the whole library is
sized for exact desk-scale work.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Union

from . import expr

MAX_MINPOLY_DEGREE = 8


class FieldError(ValueError):
    pass


_TRIAL_LIMIT = 10**6


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1 in increasing order, by trial
    division up to _TRIAL_LIMIT; a cofactor left above its square must be
    certified prime by ``_is_prime``, else FieldError."""
    out, d, m = [], 2, n
    while d * d <= n:
        if d > _TRIAL_LIMIT:
            if n >= PRIME_LIMIT or not _is_prime(n):
                raise FieldError(f"cannot factor {m}: the cofactor {n} has no prime "
                                 f"factor up to {_TRIAL_LIMIT} and is not provably prime")
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# Miller–Rabin to these bases is exact below 3,317,044,064,679,887,385,961,981,
# the least strong pseudoprime to all of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 33 * 10**23


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller–Rabin to the bases 2..41; exact for
    n < PRIME_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_above(n: int) -> int:
    """A prime p > n: the least one while Miller–Rabin is exact.  Above
    that, p = 2hq + 1 for a prime q with q^2 > p, which Pocklington's theorem
    proves prime when 2^(p-1) = 1 mod p and gcd(2^(2h) - 1, p) = 1."""
    if 2 * n < PRIME_LIMIT:  # Bertrand: (n, 2n] holds a prime
        p = n + 1
        while not _is_prime(p):
            p += 1
        return p
    q = _prime_above(math.isqrt(2 * n))
    h = n // (2 * q) + 1
    while True:
        p = 2 * h * q + 1
        if q * q > p and pow(2, p - 1, p) == 1 and math.gcd(pow(2, 2 * h, p) - 1, p) == 1:
            return p
        h += 1


def power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, ``one`` the unit of its
    ring: the one power loop of scalars, jets and polynomials."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


class FieldElem:
    """An element of one of the fields below; thin wrapper over (field, rep)."""

    __slots__ = ("field", "rep")

    def __init__(self, field: "Field", rep):
        self.field = field
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise FieldError(
                    f"elements of different fields: {self.field} vs {other.field}"
                )
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction) and isinstance(self.field, Rationals):
            return FieldElem(self.field, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.field, self.field._add(self.rep, other.rep))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, self.field._neg(self.rep))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.field, self.field._mul(self.rep, other.rep))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FieldElem(self.field, self.field._inv(self.rep))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return power(self.inverse(), -n, self.field.one)
        return power(self, n, self.field.one)

    def is_zero(self) -> bool:
        return self.field._is_zero(self.rep)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            coerced = self._coerce(other)
            if coerced is None:
                return NotImplemented
            other = coerced
        if not isinstance(other, FieldElem):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.rep == other.rep)

    def __hash__(self):
        return hash((self.field, self.rep))

    def key(self):
        """Deterministic sort key (ints/Fractions only, recursively)."""
        return self.field._key(self.rep)

    def __str__(self):
        return self.field._fmt(self.rep)

    def __repr__(self):
        return f"<{self.field._fmt(self.rep)} in {self.field}>"


class Field:
    """Common interface: canonical arithmetic on raw representations."""

    char: int = 0

    @cached_property
    def zero(self) -> FieldElem:
        return self.from_int(0)

    @cached_property
    def one(self) -> FieldElem:
        return self.from_int(1)

    def from_int(self, n: int) -> FieldElem:
        raise NotImplementedError

    def is_finite(self) -> bool:
        return False

    def size(self) -> int:
        raise FieldError(f"{self} is not finite")

    def elements(self) -> Iterator[FieldElem]:
        raise FieldError(f"{self} is not finite; cannot enumerate")

    def generator_env(self) -> dict:
        """Named scalars (extension generators etc.) usable in expressions."""
        return {}

    def primitive_element(self) -> FieldElem:
        """The first element in ``elements()`` order that generates the
        multiplicative group of this finite field, cached on the field.

        z generates exactly when z^((q-1)/r) != 1 for every prime r dividing
        q-1, so each candidate costs one power per such r, not an order search.
        """
        if "_primitive" not in self.__dict__:
            if not self.is_finite():
                raise FieldError(f"{self} is not finite; no primitive element")
            q = self.size()
            exps = [(q - 1) // r for r in _prime_factors(q - 1)]
            self._primitive = next(z for z in self.elements() if not z.is_zero()
                                   and all(z ** e != self.one for e in exps))
        return self._primitive

    def embed_base(self, c: FieldElem) -> FieldElem:
        # coefficient-domain protocol shared with polynomial domains
        if not isinstance(c, FieldElem) or (c.field is not self and c.field != self):
            raise FieldError(f"scalar of {getattr(c, 'field', type(c))} used over {self}")
        return c

    def parse(self, text: str) -> FieldElem:
        value = expr.eval_str(text, self.generator_env(), self.from_int)
        if not isinstance(value, FieldElem) or value.field != self:
            raise FieldError(f"not a scalar of {self}: {text!r}")
        return value


class Rationals(Field):
    char = 0
    _zero = Fraction(0)
    _one = Fraction(1)

    def from_int(self, n):
        return FieldElem(self, Fraction(n))

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return 1 / a

    def _is_zero(self, a):
        return a == 0

    def _key(self, a):
        return a

    def _fmt(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    _zero = 0
    _one = 1

    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise FieldError(f"prime fields need p < 3.3e24, got {p}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.char = p
        self.p = p

    def from_int(self, n):
        return FieldElem(self, n % self.p)

    def is_finite(self):
        return True

    def size(self):
        return self.p

    def elements(self):
        for n in range(self.p):
            yield FieldElem(self, n)

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        return pow(a, self.p - 2, self.p)

    def _is_zero(self, a):
        return a == 0

    def _key(self, a):
        return a

    def _fmt(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"F{self.p}"


# Dense univariate polynomials over a field F, on raw reps of F: ascending
# coefficient tuples, trimmed, the zero polynomial is the empty tuple.  Only
# F's raw operations are used, so no FieldElem is built.

def poly_trim(coeffs, F: Field) -> tuple:
    coeffs = list(coeffs)
    while coeffs and F._is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


def poly_add(a, b, F: Field) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = F._add(out[i], y)
    return poly_trim(out, F)


def poly_neg(a, F: Field) -> tuple:
    return tuple(map(F._neg, a))


def poly_scale(a, c, F: Field) -> tuple:
    """c * a for a nonzero scalar c."""
    return tuple(F._mul(x, c) for x in a)


def poly_mul(a, b, F: Field) -> tuple:
    if not a or not b:
        return ()
    add, mul, is_zero = F._add, F._mul, F._is_zero
    out = [F._zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return poly_trim(out, F)


def poly_divmod(a, b, F: Field):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    add, mul, is_zero = F._add, F._mul, F._is_zero
    rem = list(a)
    quot = [F._zero] * max(0, len(a) - len(b) + 1)
    inv_lead = F._inv(b[-1])
    while len(rem) >= len(b):
        c = mul(rem[-1], inv_lead)
        k = len(rem) - len(b)
        quot[k] = c
        neg = F._neg(c)
        for i, bc in enumerate(b):
            rem[k + i] = add(rem[k + i], mul(neg, bc))
        while rem and is_zero(rem[-1]):
            rem.pop()
    return poly_trim(quot, F), tuple(rem)


def poly_gcd(a, b, F: Field) -> tuple:
    """The monic gcd (the zero polynomial when both are zero)."""
    a, b = poly_trim(a, F), poly_trim(b, F)
    while b:
        a, b = b, poly_divmod(a, b, F)[1]
    return poly_scale(a, F._inv(a[-1]), F) if a else a


def poly_invmod(a, m, F: Field) -> Optional[tuple]:
    """u with u*a = 1 modulo m and deg u < deg m, by extended Euclid; None
    when a and m have a common factor."""
    r0, r1 = poly_trim(m, F), poly_trim(a, F)
    u0, u1 = (), (F._one,)
    while r1:
        q, r = poly_divmod(r0, r1, F)
        r0, r1 = r1, r
        u0, u1 = u1, poly_add(u0, poly_neg(poly_mul(q, u1, F), F), F)
    if len(r0) != 1:
        return None
    return poly_scale(u0, F._inv(r0[0]), F)


def poly_powmod(a, n: int, m, F: Field) -> tuple:
    """a^n modulo m, by repeated squaring."""
    result = poly_divmod((F._one,), m, F)[1]
    a = poly_divmod(a, m, F)[1]
    while n:
        if n & 1:
            result = poly_divmod(poly_mul(result, a, F), m, F)[1]
        a = poly_divmod(poly_mul(a, a, F), m, F)[1]
        n >>= 1
    return result


def poly_deriv(a, F: Field) -> tuple:
    """The formal derivative of a."""
    return poly_trim([F._mul(F.from_int(i).rep, c) for i, c in enumerate(a)][1:], F)


def _poly_fmt(coeffs, var: str, F: Field) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if F._is_zero(c):
            continue
        cs = F._fmt(c)
        if i == 0:
            parts.append(cs)
        else:
            power = var if i == 1 else f"{var}^{i}"
            if cs == "1":
                parts.append(power)
            else:
                if any(op in cs[1:] for op in "+-") or "/" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{power}")
    return "+".join(parts).replace("+-", "-")


class ExtensionField(Field):
    """Simple extension base[a]/(minpoly), elements in the power basis.

    ``minpoly`` is the ascending tuple of raw base reps of a monic
    irreducible polynomial of degree 1..MAX_MINPOLY_DEGREE.
    """

    def __init__(self, base: Field, var: str, minpoly: tuple):
        if isinstance(base, FunctionField):
            raise FieldError("rational function fields cannot be extended")
        if len(minpoly) - 1 < 1 or len(minpoly) - 1 > MAX_MINPOLY_DEGREE:
            raise FieldError(
                f"minimal polynomial degree must be 1..{MAX_MINPOLY_DEGREE}"
            )
        if minpoly[-1] != base._one:
            raise FieldError("minimal polynomial must be monic")
        if not _is_irreducible(minpoly, base):
            raise FieldError(f"minimal polynomial {_poly_fmt(minpoly, var, base)} is reducible")
        self.base = base
        self.var = var
        self.minpoly = tuple(minpoly)
        self.degree = d = len(minpoly) - 1
        self.char = base.char
        self._zero = (base._zero,) * d
        self._one = self._pad((base._one,))
        # a^(d+k) mod minpoly for k = 0..d-2, each as the (index, coefficient)
        # pairs of its nonzero coordinates
        top = poly_neg(self.minpoly[:d], base)  # a^d
        row, rows = top, []
        for _ in range(d - 1):
            rows.append(tuple((i, c) for i, c in enumerate(row) if not base._is_zero(c)))
            lead = row[-1]
            row = (base._zero,) + row[:-1]
            if not base._is_zero(lead):
                row = tuple(base._add(x, base._mul(lead, t)) for x, t in zip(row, top))
        self._fold = tuple(rows)

    @property
    def generator(self) -> FieldElem:
        if self.degree == 1:
            # a = -c0 in a degree-one extension
            return FieldElem(self, (self.base._neg(self.minpoly[0]),))
        return FieldElem(self, self._pad((self.base._zero, self.base._one)))

    def _pad(self, coeffs) -> tuple:
        return tuple(coeffs) + (self.base._zero,) * (self.degree - len(coeffs))

    def from_int(self, n):
        return FieldElem(self, self._pad((self.base.from_int(n).rep,)))

    def embed(self, c: FieldElem) -> FieldElem:
        if c.field is not self.base and c.field != self.base:
            raise FieldError("embed: element not in the base field")
        return FieldElem(self, self._pad((c.rep,)))

    def is_finite(self):
        return self.base.is_finite()

    def size(self):
        return self.base.size() ** self.degree

    def elements(self):
        base_reps = [e.rep for e in self.base.elements()]
        for combo in itertools.product(base_reps, repeat=self.degree):
            yield FieldElem(self, combo)

    def generator_env(self):
        env = {self.var: self.generator}
        for name, val in self.base.generator_env().items():
            env[name] = self.embed(val)
        return env

    def _add(self, a, b):
        return tuple(map(self.base._add, a, b))

    def _neg(self, a):
        return tuple(map(self.base._neg, a))

    def _mul(self, a, b):
        F = self.base
        add, mul, is_zero = F._add, F._mul, F._is_zero
        d = self.degree
        # reps have length d, so the product has a fixed length and, unlike
        # poly_mul, needs no trimming before the high part is folded back
        prod = [F._zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if is_zero(x):
                continue
            for j, y in enumerate(b):
                prod[i + j] = add(prod[i + j], mul(x, y))
        out = prod[:d]
        for c, row in zip(prod[d:], self._fold):
            if is_zero(c):
                continue
            for i, r in row:
                out[i] = add(out[i], mul(c, r))
        return tuple(out)

    def _inv(self, a):
        u = poly_invmod(a, self.minpoly, self.base)
        if u is None:
            raise FieldError("element not invertible; minimal polynomial not irreducible?")
        return self._pad(u)

    def _is_zero(self, a):
        return a == self._zero

    def _key(self, a):
        return tuple(map(self.base._key, a))

    def _fmt(self, a):
        return _poly_fmt(poly_trim(a, self.base), self.var, self.base)

    def minpoly_str(self) -> str:
        """The defining polynomial as parseable text, e.g. ``b^2+1``."""
        return _poly_fmt(self.minpoly, self.var, self.base)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.var == self.var
            and other.minpoly == self.minpoly
        )

    def __hash__(self):
        return hash(("ext", self.base, self.var, len(self.minpoly)))

    def __repr__(self):
        base = "Q" if isinstance(self.base, Rationals) else repr(self.base)
        return f"{base}[{self.var}]/({self.minpoly_str()})"


class FunctionField(Field):
    """Rational functions base(var), reduced with monic denominator."""

    def __init__(self, base: Field, var: str):
        self.base = base
        self.var = var
        self.char = base.char
        self._zero = ((), (base._one,))
        self._one = ((base._one,), (base._one,))

    def _canon(self, num, den):
        F = self.base
        num, den = poly_trim(num, F), poly_trim(den, F)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return self._zero
        g = poly_gcd(num, den, F)
        if len(g) > 1:
            num = poly_divmod(num, g, F)[0]
            den = poly_divmod(den, g, F)[0]
        inv_lead = F._inv(den[-1])
        return (poly_scale(num, inv_lead, F), poly_scale(den, inv_lead, F))

    @property
    def generator(self) -> FieldElem:
        return FieldElem(self, ((self.base._zero, self.base._one), (self.base._one,)))

    def from_int(self, n):
        return self.embed(self.base.from_int(n))

    def embed(self, c: FieldElem) -> FieldElem:
        if c.field is not self.base and c.field != self.base:
            raise FieldError("embed: element not in the base field")
        return FieldElem(self, (poly_trim((c.rep,), self.base), (self.base._one,)))

    def generator_env(self):
        env = {name: self.embed(val) for name, val in self.base.generator_env().items()}
        env[self.var] = self.generator
        return env

    def _add(self, a, b):
        F = self.base
        (na, da), (nb, db) = a, b
        num = poly_add(poly_mul(na, db, F), poly_mul(nb, da, F), F)
        return self._canon(num, poly_mul(da, db, F))

    def _neg(self, a):
        num, den = a
        return (poly_neg(num, self.base), den)

    def _mul(self, a, b):
        F = self.base
        (na, da), (nb, db) = a, b
        return self._canon(poly_mul(na, nb, F), poly_mul(da, db, F))

    def _inv(self, a):
        num, den = a
        return self._canon(den, num)

    def _is_zero(self, a):
        return not a[0]

    def _key(self, a):
        return tuple(tuple(map(self.base._key, c)) for c in a)

    def _fmt(self, a):
        num, den = a
        num_s = _poly_fmt(num, self.var, self.base)
        if den == (self.base._one,):
            return num_s
        return f"({num_s})/({_poly_fmt(den, self.var, self.base)})"

    def __eq__(self, other):
        return (
            isinstance(other, FunctionField)
            and other.base == self.base
            and other.var == self.var
        )

    def __hash__(self):
        return hash(("ratfun", self.base, self.var))

    def __repr__(self):
        return f"{self.base!r}({self.var})"


def _is_irreducible(minpoly: tuple, base: Field) -> bool:
    deg = len(minpoly) - 1
    if deg == 1:
        return True
    if isinstance(base, Rationals):
        return _is_irreducible_over_q(minpoly)
    if base.is_finite():
        # Rabin's test: a monic f of degree d over F_q is irreducible iff
        # x^(q^d) = x mod f and gcd(x^(q^(d/r)) - x, f) = 1 for every prime
        # r dividing d.
        q = base.size()
        x = (base._zero, base._one)
        frob = [x]  # x^(q^k) mod f, k = 0..deg
        for _ in range(deg):
            frob.append(poly_powmod(frob[-1], q, minpoly, base))
        if frob[deg] != x:
            return False
        for r in range(2, deg + 1):
            if deg % r == 0 and _is_prime(r):
                diff = poly_add(frob[deg // r], poly_neg(x, base), base)
                if len(poly_gcd(diff, minpoly, base)) != 1:
                    return False
        return True
    raise FieldError(f"cannot test irreducibility over {base}")


def _is_irreducible_over_q(minpoly: tuple) -> bool:
    """Zassenhaus's big-prime test for a monic minpoly over Q of degree d >= 2.

    Let F in Z[x] be minpoly with its denominators cleared, primitive, with
    leading coefficient c.  Every factor G of F in Z[x] of degree < d has
    coefficients |g_j| <= C(deg G, j) M(G) <= B = C(d-1, (d-1)//2)(|F|_2 + 1),
    as M(G) <= M(F) <= |F|_2 (Mignotte, Landau).  Modulo a prime p > 2cB with
    F mod p squarefree, F = c f_1...f_r with distinct monic irreducible f_i,
    and (c / lc G) G, of coefficients at most cB < p/2, is the symmetric lift
    of c times the product of some of the f_i.  So F is reducible exactly
    when, for some f_i of total degree <= d/2, the primitive part of that
    lift divides F.
    """
    Q = Rationals()
    if len(poly_gcd(minpoly, poly_deriv(minpoly, Q), Q)) > 1:
        return False  # a repeated factor
    d = len(minpoly) - 1
    den = math.lcm(*(c.denominator for c in minpoly))
    ints = [c.numerator * (den // c.denominator) for c in minpoly]
    content = math.gcd(*ints)
    F = [c // content for c in ints]
    lc = F[-1]
    bound = math.comb(d - 1, (d - 1) // 2) * (math.isqrt(sum(c * c for c in F)) + 1)
    p = 2 * lc * bound
    while True:
        p = _prime_above(p)  # p > lc, so F mod p keeps degree d
        Fp = _ProvenPrimeField(p)
        f = poly_scale(tuple(c % p for c in F), Fp._inv(lc % p), Fp)
        if len(poly_gcd(f, poly_deriv(f, Fp), Fp)) == 1:
            break
    factors = _factor_mod_p(f, Fp)
    for size in range(1, len(factors)):
        for subset in itertools.combinations(factors, size):
            if sum(len(g) - 1 for g in subset) > d // 2:
                continue
            G = (lc % p,)
            for g in subset:
                G = poly_mul(G, g, Fp)
            G = [c - p if 2 * c > p else c for c in G]
            g_content = math.gcd(*G)
            if not poly_divmod(minpoly, tuple(Fraction(c // g_content) for c in G), Q)[1]:
                return False
    return True


class _ProvenPrimeField(PrimeField):
    """F_p for a p the caller has proven prime, of any size."""

    def __init__(self, p: int):
        self.char = self.p = p


def _factor_mod_p(f: tuple, Fp: PrimeField) -> list:
    """The monic irreducible factors of a monic squarefree f over F_p, p odd:
    distinct-degree splitting by gcd(f, x^(p^i) - x), then Cantor–Zassenhaus
    equal-degree splitting with a fixed seed."""
    x = (0, 1)
    rng = random.Random(0)
    out, h, i = [], x, 0
    while len(f) - 1 >= 2 * (i + 1):
        i += 1
        h = poly_powmod(h, Fp.p, f, Fp)  # x^(p^i) mod f
        g = poly_gcd(f, poly_add(h, poly_neg(x, Fp), Fp), Fp)
        if len(g) > 1:
            out += _split_equal_degree(g, i, Fp, rng)
            f = poly_divmod(f, g, Fp)[0]
            h = poly_divmod(h, f, Fp)[1]
    if len(f) > 1:
        out.append(f)
    return out


def _split_equal_degree(g: tuple, i: int, Fp: PrimeField, rng: random.Random) -> list:
    """The monic irreducible factors of a monic squarefree g over F_p, p odd,
    when all of them have degree i: gcd(g, a^((p^i - 1)/2) - 1) for a random
    a splits g with probability at least 1/2."""
    n = len(g) - 1
    if n == i:
        return [g]
    e = (Fp.p ** i - 1) // 2
    while True:
        a = poly_trim([rng.randrange(Fp.p) for _ in range(n)], Fp)
        s = poly_gcd(g, poly_add(poly_powmod(a, e, g, Fp), (Fp.p - 1,), Fp), Fp)
        if 1 < len(s) < len(g):
            return (_split_equal_degree(s, i, Fp, rng)
                    + _split_equal_degree(poly_divmod(g, s, Fp)[0], i, Fp, rng))


def _parse_upoly(field: Field, text: str, var: Optional[str] = None):
    """Parse univariate polynomial text over ``field``, evaluated in
    ``FunctionField(field, var)``; returns (var, raw coefficient tuple)."""
    ast = expr.parse(text)
    reserved = field.generator_env()
    names = [n for n in expr.names_in(ast) if n not in reserved]
    if var is None:
        if len(names) != 1:
            raise FieldError(
                f"expected exactly one new variable in {text!r}, found {names}"
            )
        var = names[0]
    elif names and names != [var]:
        raise FieldError(f"unexpected names {names} in {text!r}")
    K = FunctionField(field, var)
    num, den = expr.evaluate(ast, K.generator_env(), K.from_int).rep
    if den != (field._one,):
        raise FieldError("cannot divide by a non-constant polynomial")
    return var, num


class Extension:
    """A simple extension k ⊂ K with its power basis bookkeeping."""

    __slots__ = ("base", "top")

    def __init__(self, base: Field, top: ExtensionField):
        if top.base != base:
            raise FieldError("extension mismatch")
        self.base = base
        self.top = top

    @property
    def degree(self) -> int:
        return self.top.degree

    def embed(self, c: FieldElem) -> FieldElem:
        return self.top.embed(c)

    def coordinates(self, e: FieldElem) -> tuple:
        """Coordinates of e in the basis 1, a, ..., a^(deg-1), over the base."""
        if e.field is not self.top and e.field != self.top:
            raise FieldError("coordinates: element not in the extension field")
        return tuple(FieldElem(self.base, c) for c in e.rep)

    def descend(self, e: FieldElem) -> Optional[FieldElem]:
        """The base-field element equal to e, or None if e is not rational."""
        coords = self.coordinates(e)
        if any(not c.is_zero() for c in coords[1:]):
            return None
        return coords[0]

    def __repr__(self):
        return f"{self.base} in {self.top}"


def make_extension(base: Field, minpoly: Union[str, tuple], var: Optional[str] = None) -> Extension:
    """The extension of ``base`` by a root ``var`` of ``minpoly``: text such
    as ``"b^2+1"``, or ascending coefficients given as base-field elements
    (then ``var`` is required)."""
    if isinstance(base, FunctionField):
        raise FieldError("rational function fields cannot be extended")
    if isinstance(base, ExtensionField) and not base.is_finite():
        raise FieldError("towers over a number field are not supported")
    if isinstance(minpoly, str):
        var, coeffs = _parse_upoly(base, minpoly, var)
    else:
        coeffs = tuple(base.embed_base(c).rep for c in minpoly)
        if var is None:
            raise FieldError("variable name required with explicit coefficients")
    if var in base.generator_env():
        raise FieldError(f"generator name {var!r} already in use")
    return Extension(base, ExtensionField(base, var, coeffs))


def make_field(text: str) -> Field:
    """Build a field from its textual description.

    Accepted forms: ``Q``, ``F<p>``, ``F<p>[v]/(poly)``, ``Q[v]/(poly)``,
    ``F<p>(v)``.
    """
    text = text.strip()
    if text == "Q":
        return Rationals()
    if text.startswith("Q[") or (text.startswith("F") and "[" in text):
        head, _, rest = text.partition("[")
        var, _, polypart = rest.partition("]")
        var = var.strip()
        polypart = polypart.strip()
        if not polypart.startswith("/(") or not polypart.endswith(")"):
            raise FieldError(f"malformed field description: {text!r}")
        poly_text = polypart[2:-1]
        base = make_field(head.strip())
        return make_extension(base, poly_text, var).top
    if text.startswith("F") and "(" in text:
        head, _, rest = text.partition("(")
        var = rest.rstrip(")").strip()
        if not rest.endswith(")") or not var.isidentifier():
            raise FieldError(f"malformed field description: {text!r}")
        try:
            p = int(head[1:])
        except ValueError:
            raise FieldError(f"malformed field description: {text!r}") from None
        return FunctionField(PrimeField(p), var)
    if text.startswith("F"):
        try:
            p = int(text[1:])
        except ValueError:
            raise FieldError(f"malformed field description: {text!r}") from None
        return PrimeField(p)
    raise FieldError(f"malformed field description: {text!r}")


def is_pth_power(e: FieldElem, p: int) -> Optional[FieldElem]:
    """A p-th root of e in its own field, or None if none exists.

    Only fields of characteristic p qualify.  Over a finite field the
    Frobenius is bijective, so a root always exists; over F_p(s) the element
    must be a p-th power of a rational function.  Every root is checked
    before it is returned.
    """
    field = e.field
    if field.char == 0:
        raise FieldError("is_pth_power requires positive characteristic")
    if field.char != p:
        raise FieldError(f"field has characteristic {field.char}, not {p}")
    if field.is_finite():
        root = e ** (field.size() // p)
    elif isinstance(field, FunctionField) and isinstance(field.base, PrimeField):
        num, den = e.rep

        def poly_root(c):
            if any(v and (i % p) for i, v in enumerate(c)):
                return None
            return poly_trim([c[i] for i in range(0, len(c), p)], field.base)

        rnum = poly_root(num)
        rden = poly_root(den)
        if rnum is None or rden is None:
            return None
        root = FieldElem(field, field._canon(rnum, rden))
    else:
        raise FieldError(f"is_pth_power not supported over {field}")
    if root**p != e:
        raise FieldError(f"p-th root check failed for {e} over {field}")
    return root


def descend_scalar(e: FieldElem, ext: Extension) -> Optional[FieldElem]:
    return ext.descend(e)
