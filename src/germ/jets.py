"""Truncated polynomial rings, exact linear algebra, and filtrations.

A jet ring holds polynomials in geometric variables (and optionally family
parameters) truncated at a fixed order: monomials of geometric degree > N,
or parameter degree > s, are identically zero.  When the ring carries an
ideal, every jet is stored reduced against the row-echelon span of the
ideal's monomial multiples, so equality of jets is equality of dicts.

The jet space is treated throughout as a finite-dimensional vector space
over the coefficient field, with its monomials enumerated in a fixed
(total degree, then lexicographic) order.  All subspace computations are
plain exact row reduction in that basis, on pair rows: the (position,
coefficient) pairs of a vector's nonzero entries.  Dense vectors are only
views for callers that index them (``VectorContext.to_vec``,
``SubspaceBasis.rows``, dense ``rref`` rows); nothing here is approximate.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import add
from typing import Iterable, Optional, Sequence

from . import expr
from .exactfield import Field, FieldElem, power


class JetError(ValueError):
    pass


def _mon_sort_key(mon):
    return (sum(mon), tuple(-e for e in mon))


def _mon_mul(a, b):
    return tuple(map(add, a, b))


# -- the term-dict kernel -----------------------------------------------------
# Jets, polynomials in unknowns and sparse matrix rows are all dicts from a
# key (a monomial or a vector position) to a nonzero coefficient; these are
# their one add loop and one multiply loop (the one power loop is
# ``exactfield.power``).

def add_terms(out: dict, terms, a=None) -> dict:
    """out += a * terms in place (``a=None`` means 1), dropping the entries
    that cancel; returns ``out``.  ``terms`` is a dict or a sequence of
    (key, coefficient) pairs."""
    for key, c in terms.items() if isinstance(terms, dict) else terms:
        if a is not None:
            c = a * c
        old = out.get(key)
        if old is not None:
            c = old + c
        if c.is_zero():
            out.pop(key, None)
        else:
            out[key] = c
    return out


def mul_terms(p: dict, q: dict, keep=None) -> dict:
    """The product of two monomial-keyed term dicts, without the monomials
    ``keep`` refuses and the entries that cancel."""
    out = {}
    get = out.get
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mon = _mon_mul(m1, m2)
            if keep is None or keep(mon):
                old = get(mon)
                out[mon] = c1 * c2 if old is None else old + c1 * c2
    return {m: c for m, c in out.items() if not c.is_zero()}


def _mon_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mon_str(names, mon) -> str:
    """The monomial with exponents ``mon`` in ``names``, as x*y^2 (1 if constant)."""
    parts = []
    for name, e in zip(names, mon):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class JetRing:
    """Variables, truncation orders, and an optional ideal.

    ``variables`` lists geometric variables first, then any family
    parameters (``tvars``); geometric degree is truncated above ``order``
    and parameter degree above ``torder``.
    """

    def __init__(self, field: Field, variables: Sequence[str], order: int,
                 ideal=(), tvars: Sequence[str] = (), torder: Optional[int] = None,
                 domain=None):
        if order < 1:
            raise JetError("jet order must be at least 1")
        names = list(variables) + list(tvars)
        if len(set(names)) != len(names):
            raise JetError(f"duplicate variable names in {names}")
        for name in names:
            if not name.isidentifier():
                raise JetError(f"bad variable name {name!r}")
        if tvars and torder is None:
            raise JetError("parameter truncation order required with tvars")
        self.field = field
        self.domain = field if domain is None else domain
        self.xvars = tuple(variables)
        self.tvars = tuple(tvars)
        self.variables = tuple(names)
        self.order = order
        self.torder = torder
        self.nx = len(self.xvars)
        self.var_index = {name: i for i, name in enumerate(self.variables)}

        self.unit_mon = tuple(0 for _ in self.variables)
        self.monomials = self._enumerate_monomials()
        self.mon_index = {m: i for i, m in enumerate(self.monomials)}
        self.dim = len(self.monomials)

        self.ideal_gens = ()
        self.ideal_basis = None
        self._ideal_rows = ()
        if ideal:
            gens = []
            for g in ideal:
                coeffs = dict(g.coeffs) if isinstance(g, Jet) else dict(g)
                gens.append(self._truncate(coeffs))
            gens = [g for g in gens if g]
            self.ideal_gens = tuple(tuple(sorted(g.items(), key=lambda kv: _mon_sort_key(kv[0]))) for g in gens)
            self.ideal_basis = ideal_span(gens, self)
            # (pivot monomial, pivot row as domain terms keyed by monomial)
            self._ideal_rows = tuple(
                (self.monomials[pivot],
                 {self.monomials[j]: self.domain.embed_base(r) for j, r in row})
                for row, pivot in zip(self.ideal_basis.sparse_rows, self.ideal_basis.pivots))

    def _enumerate_monomials(self):
        """The in-range exponent vectors in ``_mon_sort_key`` order: by total
        degree, then lexicographically decreasing.  Each degree is split
        among the variables within the geometric and parameter caps, so
        nothing out of range is built."""
        nvars, nx = len(self.variables), self.nx
        tcap = self.torder or 0
        out = []

        def split(prefix, left, xleft, tleft):
            i = len(prefix)
            if i == nvars:
                out.append(tuple(prefix))
                return
            for e in range(min(left, xleft if i < nx else tleft), -1, -1):
                x2, t2 = (xleft - e, tleft) if i < nx else (xleft, tleft - e)
                room = (x2 if i + 1 < nx else 0) + (t2 if i + 1 < nvars else 0)
                if left - e > room:
                    break  # the later variables cannot hold the rest
                prefix.append(e)
                split(prefix, left - e, x2, t2)
                prefix.pop()

        for degree in range(self.order + tcap + 1):
            split([], degree, self.order, tcap)
        return tuple(out)

    def _in_range(self, mon) -> bool:
        xdeg = sum(mon[: self.nx])
        tdeg = sum(mon[self.nx:])
        if xdeg > self.order:
            return False
        if self.tvars and tdeg > self.torder:
            return False
        return True

    def _truncate(self, coeffs: dict) -> dict:
        out = {}
        for mon, c in coeffs.items():
            if len(mon) != len(self.variables):
                raise JetError(f"exponent tuple {mon} has wrong length")
            if self._in_range(mon) and not c.is_zero():
                out[mon] = c
        return out

    def _reduce_mod_ideal(self, coeffs: dict) -> dict:
        """``coeffs`` reduced in place against the ideal's pivot rows."""
        for pmon, row in self._ideal_rows:
            c = coeffs.get(pmon)
            if c is not None:
                add_terms(coeffs, row, -c)
        return coeffs

    # -- jet constructors ---------------------------------------------------

    def jet(self, value) -> "Jet":
        if isinstance(value, Jet):
            if value.ring is self:
                return value
            if value.ring.signature() != self.signature():
                raise JetError("jet from an incompatible ring")
            return Jet(self, value.coeffs)
        if isinstance(value, dict):
            return Jet(self, self._reduce_mod_ideal(self._truncate(value)))
        if isinstance(value, int):
            value = self.domain.from_int(value)
        elif isinstance(value, FieldElem):
            value = self.domain.embed_base(value)
        return Jet(self, self._reduce_mod_ideal(self._truncate({self.unit_mon: value})))

    @property
    def zero(self) -> "Jet":
        return Jet(self, {})

    @property
    def one(self) -> "Jet":
        return self.jet(1)

    def var(self, name: str) -> "Jet":
        if name not in self.var_index:
            raise JetError(f"unknown variable {name!r}")
        mon = tuple(1 if i == self.var_index[name] else 0 for i in range(len(self.variables)))
        return self.jet({mon: self.domain.one})

    def monomial(self, mon, coeff=None) -> "Jet":
        if coeff is None:
            coeff = self.domain.one
        return self.jet({tuple(mon): coeff})

    def combination(self, terms) -> "Jet":
        """The sum of c * jet over ``(c, jet)`` pairs, ``c`` a scalar of the
        domain or ``None`` for 1.  Reduced jets have no term at a pivot
        monomial of the ideal, so neither has their sum."""
        out = {}
        for c, jet in terms:
            add_terms(out, jet.coeffs, c)
        return Jet(self, out)

    def from_expr(self, text: str, env: Optional[dict] = None) -> "Jet":
        scope = {name: self.var(name) for name in self.variables}
        for name, val in self.field.generator_env().items():
            if name in scope:
                raise JetError(f"variable {name!r} shadows a field generator")
            scope[name] = self.jet(val)
        if env:
            scope.update(env)
        value = expr.eval_str(text, scope, lambda n: self.jet(n))
        if isinstance(value, FieldElem):
            value = self.jet(value)
        if not isinstance(value, Jet) or value.ring is not self:
            raise JetError(f"not a jet of this ring: {text!r}")
        return value

    # -- bookkeeping --------------------------------------------------------

    def signature(self):
        gens = tuple(
            tuple((mon, c.key()) for mon, c in g) for g in self.ideal_gens
        )
        dom = None if self.domain is self.field else id(self.domain)
        return (self.field, self.variables, self.nx, self.order, self.torder, gens, dom)

    def __eq__(self, other):
        return isinstance(other, JetRing) and other.signature() == self.signature()

    def __hash__(self):
        return hash((self.field, self.variables, self.order, self.torder, len(self.ideal_gens)))

    def mon_str(self, mon) -> str:
        return mon_str(self.variables, mon)

    def raw(self) -> "JetRing":
        """The same ring without the ideal (for handling generators as data)."""
        if self.ideal_basis is None:
            return self
        if not hasattr(self, "_raw"):
            self._raw = JetRing(self.field, self.xvars, self.order,
                                tvars=self.tvars, torder=self.torder, domain=self.domain)
        return self._raw

    def ideal_gen_jets(self):
        """Ideal generators as jets of the raw ring, over its domain."""
        raw = self.raw()
        embed = raw.domain.embed_base
        return tuple(Jet(raw, {mon: embed(c) for mon, c in g}) for g in self.ideal_gens)

    def __repr__(self):
        tail = f", t={self.tvars} mod t^{(self.torder or 0) + 1}" if self.tvars else ""
        ide = f", ideal gens {len(self.ideal_gens)}" if self.ideal_gens else ""
        return f"JetRing({self.field}, {self.xvars}, N={self.order}{tail}{ide})"


class Jet:
    """One truncated polynomial, stored as exponent-tuple -> coefficient."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: JetRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise JetError("jets from different rings")
        if isinstance(other, (int, FieldElem)):
            return self.ring.jet(other)
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return Jet(self.ring, add_terms(dict(self.coeffs), other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ring, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElem)):
            return self.scale(other)
        other = self._check(other)
        if other is None:
            return NotImplemented
        ring = self.ring
        return Jet(ring, ring._reduce_mod_ideal(
            mul_terms(self.coeffs, other.coeffs, ring._in_range)))

    __rmul__ = __mul__

    def scale(self, scalar):
        if isinstance(scalar, int):
            scalar = self.ring.domain.from_int(scalar)
        elif isinstance(scalar, FieldElem) and self.ring.domain is not self.ring.field:
            scalar = self.ring.domain.embed_base(scalar)
        if scalar.is_zero():
            return self.ring.zero
        return Jet(self.ring, {m: c * scalar for m, c in self.coeffs.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise JetError("jet exponents must be non-negative integers")
        return power(self, n, self.ring.one)

    def __truediv__(self, other):
        if isinstance(other, Jet) and set(other.coeffs) <= {other.ring.unit_mon}:
            other = other.constant_term()
            if not isinstance(other, FieldElem):
                raise JetError("cannot divide by a non-field constant")
        if isinstance(other, (int, FieldElem)):
            if isinstance(other, int):
                other = self.ring.field.from_int(other)
            return self.scale(other.inverse())
        raise JetError("jets divide only by scalars")

    def __eq__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.key())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def constant_term(self):
        return self.coeffs.get(self.ring.unit_mon, self.ring.domain.zero)

    def key(self):
        items = sorted(self.coeffs.items(), key=lambda kv: _mon_sort_key(kv[0]))
        return tuple((mon, c.key()) for mon, c in items)

    def degree_bound(self) -> int:
        """Largest total degree present (0 for the zero jet)."""
        return max((sum(m) for m in self.coeffs), default=0)

    def derivative(self, var: str) -> "Jet":
        # distinct monomials have distinct derivatives, so nothing collects
        i = self.ring.var_index[var]
        out = {}
        for mon, c in self.coeffs.items():
            e = mon[i]
            if e:
                val = c * self.ring.domain.from_int(e)
                if not val.is_zero():
                    out[mon[:i] + (e - 1,) + mon[i + 1:]] = val
        return Jet(self.ring, self.ring._reduce_mod_ideal(out))

    def substitute(self, args: dict, ring: Optional[JetRing] = None) -> "Jet":
        """Evaluate this jet at ``args`` (variable name -> jet).

        Every variable actually occurring must be assigned a jet with zero
        constant term; all argument jets must share one ring, which becomes
        the ring of the result.  One-jet form of ``PowerTable``.
        """
        target = ring
        for name, a in args.items():
            if not isinstance(a, Jet):
                raise JetError(f"argument for {name!r} is not a jet")
            if target is None:
                target = a.ring
            elif a.ring is not target and a.ring != target:
                raise JetError("substitution arguments from different rings")
        if target is None:
            target = self.ring
        names = self.ring.variables
        return PowerTable(target, [args.get(n) for n in names], names).image(self)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mon in sorted(self.coeffs, key=_mon_sort_key):
            c = self.coeffs[mon]
            cs = str(c)
            ms = self.ring.mon_str(mon)
            if ms == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(ms)
            elif cs == "-1":
                parts.append(f"-{ms}")
            else:
                if any(op in cs[1:] for op in "+-") or "/" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{ms}")
        return "+".join(parts).replace("+-", "-")

    def __repr__(self):
        return f"<jet {self}>"


def _embed_coeff(c, source: JetRing, target: JetRing):
    if source.domain is target.domain:
        return c
    if isinstance(c, FieldElem):
        if c.field == target.field:
            return target.domain.embed_base(c)
        raise JetError("substitution across different coefficient fields; transport first")
    if source.field == target.field:
        return c
    raise JetError("substitution across different coefficient domains")


class PowerTable:
    """Memoized powers phi^gamma = prod_i phi_i^gamma_i of argument jets:
    the one way jets are substituted into.

    ``args`` holds one jet of ``ring`` per variable ``names[i]`` of the
    jets to be evaluated (``None`` for a variable that must not occur);
    ``names`` defaults to the variables of ``ring``.  The arguments are
    checked once, here: none may have a constant term, and a jet that uses
    a variable with no argument is refused by ``power``.  Each entry is one jet product of a lower entry with one
    argument, so the entries are exact products in the truncated quotient
    ring.  Keys are full exponent vectors and are never truncated: an
    argument may have terms of geometric degree 0 (x -> x+t in a family),
    so the power of a monomial outside the jet range can still have terms
    inside it.
    """

    def __init__(self, ring: JetRing, args: Sequence[Optional[Jet]],
                 names: Optional[Sequence[str]] = None):
        self.ring = ring
        self.names = ring.variables if names is None else tuple(names)
        self.args = tuple(None if a is None else ring.jet(a) for a in args)
        for name, a in zip(self.names, self.args):
            if a is not None and not a.constant_term().is_zero():
                raise JetError(f"argument for {name!r} has a constant term")
        self._powers = {tuple(0 for _ in self.args): ring.one}

    @classmethod
    def at(cls, from_ring: JetRing, ring: JetRing, mapping: dict) -> "PowerTable":
        """The table evaluating jets of ``from_ring`` at ``mapping`` (name ->
        jet of ``ring``); a variable left out maps to itself when ``ring``
        has a variable of that name (family parameters, the passive side of
        a joint ring)."""
        names = from_ring.variables
        return cls(ring, [mapping[n] if n in mapping
                          else ring.var(n) if n in ring.var_index else None
                          for n in names], names)

    def power(self, gamma) -> Jet:
        """phi^gamma, built from the nearest known entry below it."""
        powers = self._powers
        p = powers.get(gamma)
        if p is not None:
            return p
        # lower the last nonzero exponent until a known entry turns up,
        # then multiply back up, keeping every entry passed on the way
        chain = []
        key = gamma
        while p is None:
            i = len(key) - 1
            while not key[i]:
                i -= 1
            if self.args[i] is None:
                raise JetError(f"no substitution given for variable {self.names[i]!r}")
            chain.append((key, i))
            key = key[:i] + (key[i] - 1,) + key[i + 1:]
            p = powers.get(key)
        for key, i in reversed(chain):
            p = p * self.args[i]
            powers[key] = p
        return p

    def image(self, jet: Jet) -> Jet:
        """``jet`` at the arguments: the sum of c_gamma * phi^gamma."""
        return self.ring.combination(
            (_embed_coeff(c, jet.ring, self.ring), self.power(mon))
            for mon, c in jet.coeffs.items())


# -- exact linear algebra ---------------------------------------------------
# Rows are dense (field elements) or pair rows ((column, value) pairs of the
# nonzero entries, in any column order); an empty row is a zero row.

def pairs_of(row) -> Sequence:
    """The ``(column, value)`` pairs of a row's nonzero entries; a pair row
    is returned as it is."""
    if not row or isinstance(row[0], tuple):
        return row
    return [(j, c) for j, c in enumerate(row) if not c.is_zero()]


def _dense(pairs, ncols: int, zero) -> tuple:
    vec = [zero] * ncols
    for j, c in pairs:
        vec[j] = c
    return tuple(vec)


def rref(rows: Iterable[Sequence], field: Field):
    """Reduced row echelon form with leading-1 pivots; returns (rows, pivots).

    Takes dense rows of one length, or pair rows, and returns the reduced
    rows in the same form, pair rows sorted by column.  Either way it works
    on nonzero entries only: each row becomes a ``{column: value}`` dict
    and is reduced, as it arrives, against the pivot rows found so far,
    which stay reduced against each other.  The RREF of a matrix over a
    field is unique, so neither the row order nor the elimination order
    shows in the result.
    """
    width = None  # the dense row length, -1 for pair rows
    basis = {}  # pivot column -> row with a leading 1 there
    for i, given in enumerate(rows):
        if not given:
            continue
        n = -1 if isinstance(given[0], tuple) else len(given)
        if width not in (None, n):
            raise JetError(f"rref row {i} differs in length or form from the rows before it")
        width = n
        row = dict(given) if n < 0 else {j: c for j, c in enumerate(given) if not c.is_zero()}
        # pivot rows vanish on each other's pivot columns, so subtracting
        # one leaves the row's other pivot entries as they were
        for p in [p for p in row if p in basis]:
            add_terms(row, basis[p], -row[p])
        if not row:
            continue
        col = min(row)
        inv = row[col].inverse()
        row = {j: c * inv for j, c in row.items()}
        for other in basis.values():
            c = other.get(col)
            if c is not None:
                add_terms(other, row, -c)
        basis[col] = row
    pivots = sorted(basis)
    if width not in (None, -1):
        return [_dense(basis[p].items(), width, field.zero) for p in pivots], pivots
    return [tuple(sorted(basis[p].items())) for p in pivots], pivots


def nullspace(rows: Iterable[Sequence], ncols: int, field: Field):
    """Kernel basis of the linear map given by ``rows`` (dense or pair rows)
    acting on k^ncols, as dense vectors."""
    reduced, pivots = rref(rows, field)
    pivot_set = set(pivots)
    kernel = {}
    for f in range(ncols):
        if f not in pivot_set:
            kernel[f] = [field.zero] * ncols
            kernel[f][f] = field.one
    # an RREF row is zero on the other pivot columns, so each of its
    # nonzeros off its own pivot sits in a free column
    for row, pivot in zip(reduced, pivots):
        for f, c in pairs_of(row):
            if f != pivot:
                kernel[f][pivot] = -c
    return [tuple(vec) for vec in kernel.values()]


def solve_columns(cols: Sequence[Sequence], target: Sequence, field: Field):
    """Solve sum_r c_r * cols[r] = target exactly; coefficients or None."""
    n = len(target)
    k = len(cols)
    aug = [[cols[r][i] for r in range(k)] + [target[i]] for i in range(n)]
    reduced, pivots = rref(aug, field)
    coeffs = [field.zero] * k
    for row, pivot in zip(reduced, pivots):
        if pivot == k:
            return None
        # Inconsistent if a pivot row needs a free variable beyond its pivot;
        # with RREF we can read a particular solution off pivot columns.
        coeffs[pivot] = row[k]
    # verify (cheap at this scale, and guards the free-column case)
    for i in range(n):
        acc = field.zero
        for r in range(k):
            if not coeffs[r].is_zero():
                acc = acc + coeffs[r] * cols[r][i]
        if acc != target[i]:
            return None
    return coeffs


class VectorContext:
    """Identifies tuples of jets with vectors: ``to_pairs`` gives the pair
    row of their nonzero coefficients, ``to_vec`` its dense expansion."""

    def __init__(self, ring: JetRing, ncomp: int):
        self.ring = ring
        self.ncomp = ncomp
        self.dim = ring.dim * ncomp

    def to_pairs(self, jets) -> tuple:
        if isinstance(jets, Jet):
            jets = (jets,)
        if len(jets) != self.ncomp:
            raise JetError(f"expected {self.ncomp} components, got {len(jets)}")
        index, dim = self.ring.mon_index, self.ring.dim
        return tuple((c * dim + index[mon], coeff)
                     for c, jet in enumerate(jets) for mon, coeff in jet.coeffs.items())

    def to_vec(self, jets) -> tuple:
        return self.dense(self.to_pairs(jets))

    def dense(self, row) -> tuple:
        """The dense vector of a pair row."""
        return _dense(row, self.dim, self.ring.field.zero)

    def to_jets(self, row) -> tuple:
        """The jets of a dense or pair row."""
        dim, mons = self.ring.dim, self.ring.monomials
        coeffs = [{} for _ in range(self.ncomp)]
        for p, c in pairs_of(row):
            coeffs[p // dim][mons[p % dim]] = c
        return tuple(Jet(self.ring, cs) for cs in coeffs)

    def positions_in(self, monset) -> set:
        """Vector positions whose monomial lies in ``monset``."""
        return {c * self.ring.dim + i for c in range(self.ncomp)
                for i, mon in enumerate(self.ring.monomials) if mon in monset}

    def __eq__(self, other):
        return (isinstance(other, VectorContext) and other.ncomp == self.ncomp
                and other.ring == self.ring)


class SubspaceBasis:
    """A subspace of a jet (tuple) space, held in reduced row echelon form
    as pair rows sorted by column; ``rows`` is their dense view."""

    def __init__(self, context: VectorContext, sparse_rows, pivots):
        self.context = context
        self.sparse_rows = sparse_rows
        self.pivots = pivots

    @classmethod
    def span(cls, context: VectorContext, vectors):
        """The span of dense or pair rows."""
        rows, pivots = rref([pairs_of(v) for v in vectors], context.ring.field)
        return cls(context, rows, pivots)

    @property
    def rank(self) -> int:
        return len(self.sparse_rows)

    @cached_property
    def rows(self):
        return [self.context.dense(row) for row in self.sparse_rows]

    def membership(self, vec):
        """Coordinates of ``vec``, a dense or pair row, in this basis, or
        None if outside."""
        v, zero = dict(pairs_of(vec)), self.context.ring.field.zero
        # the rows vanish on each other's pivots: the coordinates are the
        # entries of vec there
        coords = [v.get(p, zero) for p in self.pivots]
        for row, c in zip(self.sparse_rows, coords):
            if c is not zero:
                add_terms(v, row, -c)
        return None if v else coords

    def graded_intersections(self, grades: Sequence):
        """``graded_intersections`` of this subspace, from its rows."""
        return graded_intersections(self.context, self.sparse_rows, grades)

    def intersect_positions(self, allowed: set) -> "SubspaceBasis":
        """Intersection with the coordinate subspace supported on ``allowed``."""
        grades = [1 if j in allowed else 0 for j in range(self.context.dim)]
        return self.graded_intersections(grades)(1)

    def basis_jets(self):
        return [self.context.to_jets(row) for row in self.sparse_rows]

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis) and other.context == self.context
                and other.sparse_rows == self.sparse_rows)

    def __repr__(self):
        return f"<subspace rank {self.rank} in dim {self.context.dim}>"


def graded_intersections(context: VectorContext, vectors, grades: Sequence):
    """Intersections of the span of ``vectors`` (dense or pair rows) with the
    coordinate subspaces {grade >= d}, for every d, from one row reduction
    of any spanning set.

    ``grades`` holds one grade per vector position.  With the columns
    ordered by increasing grade, each {grade < d} block is a prefix, so the
    rows of the graded echelon whose pivot has grade >= d span the vectors
    of the subspace supported on {grade >= d}; the reordering only renames
    the columns of pair rows.  Returns ``part(d)``, which reduces those rows
    again in the original column order, so each part has its canonical
    basis; ``part.graded`` holds the graded pair rows in the original
    columns, as ``(grade, row)`` pairs by increasing grade.
    """
    perm = sorted(range(context.dim), key=grades.__getitem__)  # new position -> old
    new = {old: j for j, old in enumerate(perm)}
    field = context.ring.field
    reduced, pivots = rref([[(new[j], c) for j, c in pairs_of(row)] for row in vectors], field)
    graded = [(grades[perm[pivot]], tuple((perm[j], c) for j, c in row))
              for row, pivot in zip(reduced, pivots)]

    def part(d) -> SubspaceBasis:
        rows, pivots = rref([row for g, row in graded if g >= d], field)
        return SubspaceBasis(context, rows, pivots)

    part.graded = graded
    return part


def ideal_span(gens, ring: JetRing) -> SubspaceBasis:
    """Span of all monomial multiples of ``gens`` inside the jet space.

    The multipliers have coefficient ``ring.field.one``, so generators with
    field coefficients span over the field also in a ring whose domain is
    larger (the polynomial-coefficient rings of ``compile_system``).
    """
    context = VectorContext(ring, 1)
    gens = [ring.jet(g) if not isinstance(g, Jet) else g for g in gens]
    return SubspaceBasis.span(context, [context.to_pairs(g * ring.monomial(mon, ring.field.one))
                                        for g in gens for mon in ring.monomials])


def membership(v, basis: SubspaceBasis):
    if isinstance(v, Jet) or (v and isinstance(v[0], Jet)):
        v = basis.context.to_pairs(v)
    return basis.membership(v)


# -- filtrations ------------------------------------------------------------

INFINITY = math.inf


class Filtration:
    """A descending chain of monomial submodules with product extension.

    The chain is given explicitly up to depth D; deeper terms are generated
    by the rule that the d-th term is the sum of products of earlier terms.
    Each term is recorded simply as the set of ring monomials it contains.
    """

    def __init__(self, ring: JetRing, kind: str, chain):
        self.ring = ring
        self.kind = kind
        self.chain = [frozenset(s) for s in chain]  # index 0 -> level 1
        if not self.chain:
            raise JetError("filtration chain must be non-empty")
        unit = tuple(0 for _ in ring.variables)
        if unit in self.chain[0]:
            raise JetError("filtration is not local: level 1 contains the unit monomial")
        for a, b in zip(self.chain, self.chain[1:]):
            if not b <= a:
                raise JetError("filtration chain is not descending")
        self._check_multiplicative()
        self._sets = {d + 1: s for d, s in enumerate(self.chain)}
        self._sets[0] = frozenset(m for m in ring.monomials if any(m))
        self._cache = {}  # product sets; tangent candidate levels by (kind, rings)
        self._orders = None

    @property
    def depth(self) -> int:
        return len(self.chain)

    def _check_multiplicative(self):
        D = len(self.chain)
        for a in range(1, D + 1):
            for b in range(a, D + 1 - a):
                target = self.chain[a + b - 1]
                for m1 in self.chain[a - 1]:
                    for m2 in self.chain[b - 1]:
                        prod = _mon_mul(m1, m2)
                        if self.ring._in_range(prod) and prod not in target:
                            raise JetError(
                                f"filtration not multiplicative: "
                                f"{self.ring.mon_str(m1)} * {self.ring.mon_str(m2)} "
                                f"escapes level {a + b}"
                            )

    def level_set(self, d: int) -> frozenset:
        """Monomials of the level-d term; for d <= 0 the nonconstant
        monomials, every test monomial a level is measured on."""
        cached = self._sets.get(max(d, 0))
        if cached is not None:
            return cached
        result = self._times((self.level_set(a), self.level_set(d - a))
                             for a in range(1, d // 2 + 1))
        self._sets[d] = result
        return result

    def _times(self, pairs) -> frozenset:
        """The in-range products m1 * m2, m1 in sa and m2 in sb, over the
        monomial sets (sa, sb) in ``pairs``."""
        acc = set()
        for sa, sb in pairs:
            for m1 in sa:
                for m2 in sb:
                    prod = _mon_mul(m1, m2)
                    if self.ring._in_range(prod):
                        acc.add(prod)
        return frozenset(acc)

    def vanishing_depth(self) -> int:
        """The least d with an empty level-d term."""
        cap = self.depth * (self.ring.order + (self.ring.torder or 0) + 1) + 1
        for d in range(1, cap + 1):
            if not self.level_set(d):
                return d
        raise JetError("filtration does not vanish within the truncation range")

    def mon_order(self, mon) -> float:
        if self._orders is None:
            orders = {m: 0 for m in self.ring.monomials}
            for d in range(1, self.vanishing_depth()):
                for m in self.level_set(d):
                    orders[m] = d
            self._orders = orders
        return self._orders[mon]

    def order_of(self, value) -> float:
        """Filtration order of a jet or a tuple of jets (inf for zero)."""
        jets = value if isinstance(value, (tuple, list)) else (value,)
        best = INFINITY
        for jet in jets:
            for mon in jet.coeffs:
                o = self.mon_order(mon)
                if o < best:
                    best = o
        return best

    def product_set(self, beta, d: int) -> frozenset:
        """The in-range monomials prod_k v_k^beta_k over members v_k of the
        level-d term: what y^beta makes of test maps of order >= d."""
        key = (beta, d)
        if key not in self._cache:
            if len(beta) > 1:  # the product of two cached sets
                pairs = [(self.product_set(beta[:-1], d), self.product_set(beta[-1:], d))]
            else:
                pairs = [([self.ring.unit_mon], [tuple(beta[0] * e for e in v)
                                                 for v in self.level_set(d)])]
            self._cache[key] = self._times(pairs)
        return self._cache[key]

    def with_ring(self, ring: JetRing) -> "Filtration":
        """The same monomial chain, attached to a compatible ring."""
        if ring.variables != self.ring.variables:
            raise JetError("filtration transfer: variable mismatch")
        return Filtration(ring, self.kind, self.chain)

    def describe(self):
        return {
            "kind": self.kind,
            "chain": [sorted(self.ring.mon_str(m) for m in s) for s in self.chain],
        }

    def __repr__(self):
        return f"<{self.kind} filtration, depth {self.depth}>"


def _monomial_ideal(ring: JetRing, gens) -> frozenset:
    gens = [tuple(g) for g in gens]
    return frozenset(
        m for m in ring.monomials if any(_mon_divides(g, m) for g in gens)
    )


def filtration_make(ring: JetRing, spec) -> Filtration:
    """Build a filtration: ``"madic"``, ``"tadic"``, or an explicit chain.

    An explicit chain is a list of monomial-generator lists (each generator a
    monomial jet, exponent tuple, or expression string); the generated chain
    must descend and be multiplicative, and is extended multiplicatively
    beyond its explicit depth.
    """
    if spec == "madic":
        gens = [tuple(1 if j == i else 0 for j in range(len(ring.variables)))
                for i in range(len(ring.variables))]
        return Filtration(ring, "madic", [_monomial_ideal(ring, gens)])
    if spec == "tadic":
        if not ring.tvars:
            raise JetError("tadic filtration needs family parameters")
        gens = [tuple(1 if j == ring.nx + i else 0 for j in range(len(ring.variables)))
                for i in range(len(ring.tvars))]
        return Filtration(ring, "tadic", [_monomial_ideal(ring, gens)])
    chain = []
    for level in spec:
        gens = []
        for g in level:
            if isinstance(g, str):
                jet = ring.raw().from_expr(g)
                if len(jet.coeffs) != 1:
                    raise JetError(f"filtration generator {g!r} is not a monomial")
                gens.append(next(iter(jet.coeffs)))
            elif isinstance(g, Jet):
                if len(g.coeffs) != 1:
                    raise JetError("filtration generator is not a monomial")
                gens.append(next(iter(g.coeffs)))
            else:
                gens.append(tuple(g))
        chain.append(_monomial_ideal(ring, gens))
    return Filtration(ring, "chain", chain)


# -- serialization ----------------------------------------------------------

def jet_to_json(jet: Jet) -> dict:
    out = {}
    for mon in sorted(jet.coeffs, key=_mon_sort_key):
        out[jet.ring.mon_str(mon)] = str(jet.coeffs[mon])
    return out


def jet_from_json(ring: JetRing, data: dict) -> Jet:
    total = ring.zero
    for mon_text, coeff_text in data.items():
        coeff = ring.field.parse(coeff_text)
        mon_jet = ring.raw().from_expr(mon_text)
        if len(mon_jet.coeffs) != 1:
            raise JetError(f"not a monomial: {mon_text!r}")
        mon, lead = next(iter(mon_jet.coeffs.items()))
        if lead != ring.field.one:
            raise JetError(f"monomial key must be monic: {mon_text!r}")
        total = total + ring.jet({mon: ring.domain.embed_base(coeff)})
    return total
