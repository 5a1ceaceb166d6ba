"""Map-germs between jet-ring presentations and their equivalence groups.

A map-germ is a tuple of source-ring jets, one per geometric target
variable, with no constant term, carrying every target ideal generator to
zero in the source ring.  Group elements store the substitution data that
their action applies directly:

* right, left and contact elements are one kind of object, a substitution
  (``_Substitution``): a tuple of jets substituted for the geometric
  variables of one side, fixing every other variable.  Right elements
  (``RightAut``) change the source and act by f -> f(Phi); left elements
  (``LeftAut``) change the target and act by f -> Psi(f); contact elements
  (``Contact``) change the target over the joint source-target ring and act
  by f -> C(x, f);
* one validity rule serves all three: every term of every component
  contains a changed variable, so the zero section (the origin, for every
  value of the family parameters) stays put, the linear part in the
  changed variables is invertible, and each ideal generator of the changed
  side pulls back to zero.  So x -> x + t is refused in a family;
* matrix elements store an invertible matrix M over the source ring and
  act by f -> M * f;
* the groups LR, Klin and K pair one of these target-side factors with a
  right element and act by f -> outer(f(Phi)) (``Pair``); the factors of
  every group are listed once, in ``GROUP_FACTORS``, and laid out once, in
  ``factor_layout``.

Composition and inversion are arranged so that acting is a left action:
(g . h).act(f) equals g.act(h.act(f)).  Inverses of substitution tuples
and of matrices are found by Newton iteration, which terminates at jet
level because each step strictly increases the error's order.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .exactfield import Field, FieldElem
from .jets import (
    Jet, JetRing, PowerTable, VectorContext, Filtration, rref, jet_to_json,
)


class GermError(ValueError):
    pass


def _reindex(jet: Jet, ring: JetRing) -> Jet:
    """Transport a jet to a ring with a different variable list, by name."""
    src = jet.ring
    out = {}
    for mon, c in jet.coeffs.items():
        new = [0] * len(ring.variables)
        for i, e in enumerate(mon):
            if e == 0:
                continue
            name = src.variables[i]
            if name not in ring.var_index:
                raise GermError(f"variable {name!r} missing from the target ring")
            new[ring.var_index[name]] = e
        out[tuple(new)] = c
    return ring.jet(out)


def product_ring(source: JetRing, target: JetRing) -> JetRing:
    """The joint ring in source and target variables, carrying both ideals."""
    if source.field != target.field:
        raise GermError("source and target must share a coefficient field")
    if source.order != target.order or source.tvars != target.tvars or source.torder != target.torder:
        raise GermError("source and target must share truncation orders")
    clash = set(source.xvars) & set(target.xvars)
    if clash:
        raise GermError(f"source and target share variable names {sorted(clash)}")
    xvars = source.xvars + target.xvars
    bare = JetRing(source.field, xvars, source.order,
                   tvars=source.tvars, torder=source.torder)
    gens = []
    for g in source.ideal_gen_jets() + target.ideal_gen_jets():
        gens.append(_reindex(g, bare).coeffs)
    return JetRing(source.field, xvars, source.order, ideal=gens,
                   tvars=source.tvars, torder=source.torder)


class MapGerm:
    """A jet of a map between germs, one source-ring component per target variable."""

    def __init__(self, source: JetRing, target: JetRing,
                 components: Sequence[Jet], validate: bool = True):
        comps = [source.jet(c) for c in components]
        if len(comps) != target.nx:
            raise GermError(f"expected {target.nx} components, got {len(comps)}")
        self.source = source
        self.target = target
        self.components = tuple(comps)
        if validate:
            self._validate()

    def _validate(self):
        for name, c in zip(self.target.xvars, self.components):
            if not c.constant_term().is_zero():
                raise GermError(f"component for {name!r} has a constant term")
        for q in self.target.ideal_gen_jets():
            image = self.pullback(q)
            if not image.is_zero():
                raise GermError(
                    f"components do not respect the target ideal: "
                    f"{q} pulls back to {image}"
                )

    def pullback(self, q: Jet) -> Jet:
        """Substitute the components into a jet in the target variables."""
        return PowerTable.at(self.target, self.source,
                             dict(zip(self.target.xvars, self.components))).image(q)

    def order(self, filt: Filtration) -> float:
        return filt.order_of(self.components)

    def context(self) -> VectorContext:
        return VectorContext(self.source, self.target.nx)

    def __eq__(self, other):
        if not isinstance(other, MapGerm):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.components == other.components)

    def key(self):
        return tuple(c.key() for c in self.components)

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self):
        return f"<map germ {self}>"

    def describe(self) -> dict:
        return {
            "components": [jet_to_json(c) for c in self.components],
            "source": list(self.source.xvars),
            "target": list(self.target.xvars),
        }


# -- Newton inversions ------------------------------------------------------

def _linear_matrix(comps: Sequence[Jet], ring: JetRing, names: Sequence[str]):
    """Coefficients of the plain variables ``names`` in each component."""
    mons = [tuple(1 if v == n else 0 for v in ring.variables) for n in names]
    return [[c.coeffs.get(mon, ring.field.zero) for mon in mons] for c in comps]


def _is_singular(rows, field: Field) -> bool:
    """Whether the square matrix ``rows`` has rank below its size."""
    return len(rref(rows, field)[1]) < len(rows)


def _field_matrix_inverse(rows, field: Field):
    n = len(rows)
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)]
           for i, r in enumerate(rows)]
    reduced, pivots = rref(aug, field)
    if len(reduced) < n or pivots != list(range(n)):
        return None
    return [list(r[n:]) for r in reduced]


def invert_tuple(comps: Sequence[Jet], ring: JetRing, names: Sequence[str]):
    """Tuple Psi with comps(Psi) = identity, by Newton steps on the error;
    the variables outside ``names`` stay fixed."""
    A = _linear_matrix(comps, ring, names)
    field = ring.field
    lin_entries = [[c if isinstance(c, FieldElem) else field.zero for c in row] for row in A]
    Ainv = _field_matrix_inverse(lin_entries, field)
    if Ainv is None:
        raise GermError("substitution tuple has a singular linear part")
    xs = [ring.var(n) for n in names]
    psi = [sum((x.scale(Ainv[i][j]) for j, x in enumerate(xs)), ring.zero)
           for i in range(len(names))]
    for _ in range(ring.order + (ring.torder or 0) + 2):
        table = PowerTable.at(ring, ring, dict(zip(names, psi)))
        err = [table.image(c) - x for c, x in zip(comps, xs)]
        if all(e.is_zero() for e in err):
            return psi
        psi = [p - sum((e.scale(Ainv[i][j]) for j, e in enumerate(err)), ring.zero)
               for i, p in enumerate(psi)]
    raise GermError("tuple inversion did not terminate")  # pragma: no cover


def matrix_mul(A, B, ring: JetRing):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ring.zero
            for l in range(k):
                acc = acc + A[i][l] * B[l][j]
            row.append(acc)
        out.append(row)
    return out


def matrix_apply(M, vec, ring: JetRing):
    out = []
    for row in M:
        acc = ring.zero
        for entry, v in zip(row, vec):
            acc = acc + entry * v
        out.append(acc)
    return out


def invert_matrix_jets(M, ring: JetRing):
    """Inverse of a jet matrix with invertible constant part, by Newton steps."""
    n = len(M)
    const = [[entry.constant_term() for entry in row] for row in M]
    if ring.domain is not ring.field:
        raise GermError("matrix inversion needs field coefficients")
    Cinv = _field_matrix_inverse(const, ring.field)
    if Cinv is None:
        raise GermError("matrix has a singular constant part")
    X = [[ring.jet(Cinv[i][j]) for j in range(n)] for i in range(n)]
    ident = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    for _ in range(ring.order + (ring.torder or 0) + 2):
        MX = matrix_mul(M, X, ring)
        err = [[ident[i][j] - MX[i][j] for j in range(n)] for i in range(n)]
        if all(e.is_zero() for row in err for e in row):
            return X
        X = [[X[i][j] + entry for j, entry in enumerate(row)]
             for i, row in enumerate(matrix_mul(X, err, ring))]
    raise GermError("matrix inversion did not terminate")  # pragma: no cover


# -- group elements ---------------------------------------------------------

class GroupElement:
    tag = "?"

    def act(self, f: MapGerm) -> MapGerm:
        raise NotImplementedError

    def compose(self, other: "GroupElement") -> "GroupElement":
        """The element acting as self after other: (self . other).act = self.act(other.act(.))."""
        raise NotImplementedError

    def inverse(self) -> "GroupElement":
        raise NotImplementedError

    def is_identity(self) -> bool:
        raise NotImplementedError

    def key(self):
        raise NotImplementedError

    def factors(self):
        """Single-variant constituents, innermost action last."""
        return [self]

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and other.tag == self.tag
                and other.key() == self.key())

    def __hash__(self):
        return hash((self.tag, self.key()))


class _Substitution(GroupElement):
    """A coordinate change of one side: jets of ``ring`` substituted for
    ``names``, the geometric variables of the ring ``side``, with every
    other variable of ``ring`` fixed.

    A valid tuple fixes the zero section of the changed variables (the
    origin, for every value of the parameters): every term of every
    component contains one of the ``names``.  Its linear part in the
    ``names`` is invertible, and it carries each ideal generator of
    ``side`` to zero.  ``source`` and ``target`` are the rings of the maps
    it acts on, None where any will do.  The error messages are class
    attributes.
    """

    source = target = None
    key_name = "?"
    _constant_msg = "component for {name!r} has a constant term"
    _section_msg = "component for {name!r} has a parameter-only term"
    _singular_msg = "coordinate change has a singular linear part"
    _ideal_msg = "coordinate change does not preserve the ideal: moves {q}"
    _rings_msg = "?"

    def __init__(self, ring: JetRing, side: JetRing, comps: Sequence[Jet], validate: bool):
        self.ring = ring
        self.side = side
        self.names = side.xvars
        self.comps = tuple(ring.jet(c) for c in comps)
        if len(self.comps) != len(self.names):
            raise GermError(f"expected {len(self.names)} components, got {len(self.comps)}")
        self._table = None
        if validate:
            self._validate()

    def _validate(self):
        if self._constant_msg:
            for name, c in zip(self.names, self.comps):
                if not c.constant_term().is_zero():
                    raise GermError(self._constant_msg.format(name=name))
        moves = _moves(self.ring, self.names)
        for name, c in zip(self.names, self.comps):
            if not all(moves(mon) for mon in c.coeffs):
                raise GermError(self._section_msg.format(name=name))
        if _is_singular(self.linear_part(), self.ring.field):
            raise GermError(self._singular_msg)
        for q in self.side.ideal_gen_jets():
            if not self.pullback(q).is_zero():
                raise GermError(self._ideal_msg.format(q=q))

    def _with(self, comps) -> "_Substitution":
        """The same change with other components, unvalidated."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, comps=tuple(self.ring.jet(c) for c in comps),
                            _table=None)
        return new

    @property
    def table(self) -> PowerTable:
        """The powers of the components, built once and shared by every
        substitution into this element (the other variables stay fixed)."""
        if self._table is None:
            self._table = PowerTable.at(self.ring, self.ring, dict(zip(self.names, self.comps)))
        return self._table

    def substitute_into(self, jet: Jet) -> Jet:
        return self.table.image(jet)

    def pullback(self, q: Jet) -> Jet:
        """A jet in the variables of ``side`` at the components, in ``ring``."""
        return self.substitute_into(_reindex(q, self.ring.raw()))

    def linear_part(self):
        """Coefficients of the plain changed variables in each component."""
        return _linear_matrix(self.comps, self.ring, self.names)

    def _check_rings(self, f: MapGerm):
        if ((self.source is not None and f.source != self.source)
                or (self.target is not None and f.target != self.target)):
            raise GermError(self._rings_msg)

    def act(self, f: MapGerm) -> MapGerm:
        """The map substituted into the components: f -> C(x, f)."""
        self._check_rings(f)
        table = PowerTable.at(self.ring, f.source, dict(zip(self.names, f.components)))
        return MapGerm(f.source, f.target, [table.image(c) for c in self.comps],
                       validate=False)

    def _compose(self, other: "_Substitution"):
        # (self . other).act(f) = self.comps(other.comps(f)): other's
        # components substituted into self's
        return [other.substitute_into(c) for c in self.comps]

    def compose(self, other: "_Substitution") -> "_Substitution":
        if not isinstance(other, type(self)):
            raise GermError(f"cannot compose {self.tag} with {other.tag}")
        return self._with(self._compose(other))

    def inverse(self) -> "_Substitution":
        """The tuple D with D(self) = identity, inverted in the ``names`` alone."""
        return self._with(invert_tuple(self.comps, self.ring, self.names))

    def is_identity(self) -> bool:
        return all(c == self.ring.var(n) for n, c in zip(self.names, self.comps))

    def key(self):
        return tuple(c.key() for c in self.comps)

    def describe(self):
        return {"group": self.tag, self.key_name: [jet_to_json(c) for c in self.comps]}

    def __repr__(self):
        return f"<{self.tag} {tuple(str(c) for c in self.comps)}>"


def _moves(ring: JetRing, names: Sequence[str]):
    """Whether a monomial of ``ring`` has a positive exponent in one of ``names``."""
    where = [ring.var_index[n] for n in names]
    return lambda mon: any(mon[i] for i in where)


class RightAut(_Substitution):
    """Source coordinate change; acts by substitution into the map."""

    tag = "R"
    key_name = "source"
    _rings_msg = "map and coordinate change live on different sources"

    def __init__(self, ring: JetRing, comps: Sequence[Jet], validate: bool = True):
        self.source = ring
        super().__init__(ring, ring, comps, validate)

    @classmethod
    def identity(cls, ring: JetRing) -> "RightAut":
        return factor_identity("R", ring, ring)

    def act(self, f: MapGerm) -> MapGerm:
        self._check_rings(f)
        return MapGerm(f.source, f.target,
                       [self.substitute_into(c) for c in f.components], validate=False)

    def _compose(self, other: "RightAut"):
        # (self . other).act(f) = f(other.comps(self.comps))
        return [self.substitute_into(c) for c in other.comps]


class LeftAut(_Substitution):
    """Target coordinate change; acts by substitution of the map into it."""

    tag = "L"
    key_name = "target"
    _rings_msg = "map and target change live on different targets"

    def __init__(self, ring: JetRing, comps: Sequence[Jet], validate: bool = True):
        self.target = ring
        super().__init__(ring, ring, comps, validate)

    @classmethod
    def identity(cls, ring: JetRing) -> "LeftAut":
        return factor_identity("L", ring, ring)

    def after(self, right: RightAut) -> "LeftAut":
        """A target change does not see the source: itself."""
        return self


class JetMatrix(GroupElement):
    """Invertible matrix over the source ring; acts by f -> M * f.

    Defined for maps into a smooth target: the matrix mixes components, so
    a target ideal would not be respected.
    """

    tag = "Mat"

    def __init__(self, source: JetRing, target: JetRing, rows, validate: bool = True):
        self.source = source
        self.target = target
        self.rows = tuple(tuple(source.jet(e) for e in row) for row in rows)
        if validate:
            self._validate()

    def _validate(self):
        if self.target.ideal_gens:
            raise GermError("matrix contact equivalence needs a smooth target")
        m = self.target.nx
        if len(self.rows) != m or any(len(row) != m for row in self.rows):
            raise GermError(f"matrix must be {m} by {m}")
        if _is_singular(self.linear_part(), self.source.field):
            raise GermError("matrix is singular at the base point")

    def linear_part(self):
        """The matrix at the base point."""
        return [[e.constant_term() for e in row] for row in self.rows]

    @classmethod
    def identity(cls, source: JetRing, target: JetRing) -> "JetMatrix":
        return factor_identity("Mat", source, target)

    def act(self, f: MapGerm) -> MapGerm:
        if f.source != self.source:
            raise GermError("map and matrix live on different sources")
        return MapGerm(f.source, f.target, matrix_apply(self.rows, f.components, self.source),
                       validate=False)

    def compose(self, other: "JetMatrix") -> "JetMatrix":
        if not isinstance(other, JetMatrix):
            raise GermError(f"cannot compose Mat with {other.tag}")
        return JetMatrix(self.source, self.target, matrix_mul(self.rows, other.rows, self.source),
                         validate=False)

    def inverse(self) -> "JetMatrix":
        return JetMatrix(self.source, self.target, invert_matrix_jets(self.rows, self.source),
                         validate=False)

    def after(self, right: RightAut) -> "JetMatrix":
        """The matrix M(Phi(x)), Phi the source change ``right``."""
        return JetMatrix(self.source, self.target,
                         [[right.substitute_into(e) for e in row] for row in self.rows],
                         validate=False)

    def is_identity(self) -> bool:
        one, zero = self.source.one, self.source.zero
        return all(e == (one if i == j else zero)
                   for i, row in enumerate(self.rows) for j, e in enumerate(row))

    def key(self):
        return tuple(tuple(e.key() for e in row) for row in self.rows)

    def describe(self):
        return {"group": "Mat", "matrix": [[jet_to_json(e) for e in row] for row in self.rows]}

    def __repr__(self):
        return f"<Mat {len(self.rows)}x{len(self.rows)}>"


class Contact(_Substitution):
    """A fiberwise target change over the source, as a tuple over the
    joint source-target ring in the target variables.

    Its zero section is the source: the stored components vanish at y = 0,
    so that substitution of any valid map produces a valid map.
    """

    tag = "C"
    key_name = "contact"
    _constant_msg = None
    _section_msg = "component for {name!r} does not vanish on the zero section"
    _singular_msg = "target-linear part is singular at the base point"
    _ideal_msg = "components carry {q} outside the ideal span"
    _rings_msg = "map and contact change disagree on rings"

    def __init__(self, source: JetRing, target: JetRing, comps: Sequence[Jet],
                 joint: Optional[JetRing] = None, validate: bool = True):
        self.source = source
        self.target = target
        super().__init__(joint if joint is not None else product_ring(source, target),
                         target, comps, validate)

    def after(self, right: RightAut) -> "Contact":
        """The contact tuple C(Phi(x), y), Phi the source change ``right``."""
        joint = self.ring
        table = PowerTable.at(joint, joint, {n: _reindex(c, joint)
                                             for n, c in zip(self.source.xvars, right.comps)})
        return self._with([table.image(c) for c in self.comps])


# The factor kinds of each group, the target-side one first; the pair groups
# are ``Pair(outer, right)``.
GROUP_FACTORS = {"R": ("R",), "L": ("L",), "LR": ("L", "R"),
                 "C": ("C",), "K": ("C", "R"), "Klin": ("Mat", "R")}
GROUP_TAGS = tuple(GROUP_FACTORS)
_PAIR_TAGS = {kinds[0]: tag for tag, kinds in GROUP_FACTORS.items() if len(kinds) == 2}


class Pair(GroupElement):
    """A target-side factor applied after a source change: f -> outer(f o Phi).

    The outer factor is a ``LeftAut`` (group LR), a ``JetMatrix`` (Klin) or
    a ``Contact`` (K); ``outer.after(Phi)`` is the factor moved by a source
    change, so that one product law serves all three groups.
    """

    def __init__(self, outer: GroupElement, right: RightAut):
        self.outer = outer
        self.right = right
        self.tag = _PAIR_TAGS[outer.tag]

    def act(self, f: MapGerm) -> MapGerm:
        return self.outer.act(self.right.act(f))

    def compose(self, other: "Pair") -> "Pair":
        if not isinstance(other, Pair) or other.tag != self.tag:
            raise GermError(f"cannot compose {self.tag} with {other.tag}")
        # self.act(other.act(f)) = o1(o2(f o Phi2) o Phi1) = (o1 . o2(Phi1))(f o Phi2 o Phi1)
        return Pair(self.outer.compose(other.outer.after(self.right)),
                    self.right.compose(other.right))

    def inverse(self) -> "Pair":
        rinv = self.right.inverse()
        return Pair(self.outer.inverse().after(rinv), rinv)

    def is_identity(self) -> bool:
        return self.outer.is_identity() and self.right.is_identity()

    def key(self):
        return (self.outer.key(), self.right.key())

    def factors(self):
        return [self.outer, self.right]

    def describe(self):
        out = self.outer.describe()
        out.update(group=self.tag, source=self.right.describe()["source"])
        return out

    def __repr__(self):
        return f"<{self.tag} {self.outer!r} {self.right!r}>"


class LRPair(Pair):
    """The LR constructor of earlier releases, ``LRPair(left, right)``."""


class ContactLinPair(Pair):
    """The Klin constructor of earlier releases: a matrix, with the identity
    source change when ``right`` is None."""

    def __init__(self, source: JetRing, target: JetRing, matrix,
                 right: Optional[RightAut] = None, validate: bool = True):
        super().__init__(JetMatrix(source, target, matrix, validate=validate),
                         right if right is not None else RightAut.identity(source))

    @classmethod
    def identity(cls, source: JetRing, target: JetRing) -> "ContactLinPair":
        return cls(source, target, JetMatrix.identity(source, target).rows, validate=False)

    @property
    def matrix(self):
        return self.outer.rows


def factor_layout(kind: str, source: JetRing, target: JetRing,
                  joint: Optional[JetRing] = None):
    """One factor kind of ``GROUP_FACTORS`` as ``(ring, identity, mons,
    build)``: its elements are ``build(jets, validate)`` for the tuples of
    jets of ``ring`` supported on ``mons``, one per entry of the
    ``identity`` tuple.  A ``Mat`` matrix is flattened row by row, over
    every monomial; the R, L and C tuples take the monomials with a changed
    variable in them, the terms their zero-section rule allows.  A ``C``
    tuple lives on ``joint``, the product ring of source and target unless
    given (a caller with other coefficients passes its own)."""
    m = target.nx
    if kind == "Mat":
        return (source, [source.one if i == j else source.zero
                         for i in range(m) for j in range(m)],
                list(source.monomials),
                lambda jets, validate: JetMatrix(
                    source, target, [jets[i * m: (i + 1) * m] for i in range(m)],
                    validate=validate))
    if kind == "C":
        ring = joint if joint is not None else product_ring(source, target)
        build = lambda jets, validate: Contact(source, target, jets, joint=ring,
                                               validate=validate)
    else:
        ring = source if kind == "R" else target
        cls = RightAut if kind == "R" else LeftAut
        build = lambda jets, validate: cls(ring, jets, validate=validate)
    names = (source if kind == "R" else target).xvars
    moves = _moves(ring, names)
    return (ring, [ring.var(n) for n in names],
            [mon for mon in ring.monomials if moves(mon)], build)


def factor_identity(kind: str, source: JetRing, target: JetRing) -> GroupElement:
    """The identity of one factor kind of ``GROUP_FACTORS``."""
    _, identity, _, build = factor_layout(kind, source, target)
    return build(identity, False)


def from_factors(parts: Sequence[GroupElement]) -> GroupElement:
    """The element with the given factors: a bare factor, or a ``Pair``."""
    return Pair(*parts) if len(parts) == 2 else parts[0]


def identity_element(tag: str, source: JetRing, target: JetRing) -> GroupElement:
    if tag not in GROUP_FACTORS:
        raise GermError(f"unknown group {tag!r}")
    return from_factors([factor_identity(k, source, target) for k in GROUP_FACTORS[tag]])


# -- group levels -----------------------------------------------------------

def level_probes(source: JetRing, target: JetRing, linear: bool):
    """Test maps for levels: single monomial components for actions that are
    linear in the map (R, Klin), else every tuple of monomials and zeros
    that respects the target ideal, so that cross terms are seen."""
    m = target.nx
    units = [jet for jet in (source.jet({mon: source.domain.one})
                             for mon in source.monomials if sum(mon) > 0)
             if not jet.is_zero()]
    if linear:
        for jet in units:
            for slot in range(m):
                yield tuple(jet if i == slot else source.zero for i in range(m))
        return
    identity = PowerTable.at(source, source, {})
    gens = [_slot_terms(q, target.xvars, source) for q in target.ideal_gen_jets()]
    for comps in itertools.product([source.zero] + units, repeat=m):
        if all(c.is_zero() for c in comps):
            continue
        if gens:
            slot_power = _at_probe(identity, comps, target.xvars)[1]
            if any(not _at_slots(terms, slot_power, source).is_zero() for terms in gens):
                continue
        yield comps


def probe_level(pairs, source: JetRing, filt: Filtration) -> float:
    """The largest j with ord(out) >= ord(v) + j over the pairs (v, out)
    with out nonzero, capped by the jet range; -1 when it is below 0."""
    level = source.order + (source.torder or 0)
    for probe, out in pairs:
        if all(c.is_zero() for c in out):
            continue
        jv = filt.order_of(out) - filt.order_of(probe)
        if jv < level:
            level = jv
        if level < 0:
            return -1
    return level


def _unit_monomial(jet: Jet):
    """The exponent vector of ``jet`` if it is one monomial with coefficient 1."""
    if len(jet.coeffs) == 1:
        (mon, c), = jet.coeffs.items()
        if c == jet.ring.domain.one:
            return mon
    return None


def _slot_terms(comp: Jet, slots: Sequence[str], source: JetRing):
    """``comp`` as pairs (beta, P) with comp = sum of P * slots^beta.

    ``beta`` holds the exponents of the ``slots`` variables; the other
    variables are carried by name into ``source``, where ``P`` is a jet,
    or a scalar when it is constant (``None`` when it is 1).
    """
    ring = comp.ring
    where = [ring.var_index[n] for n in slots]
    groups = {}
    for mon, c in comp.coeffs.items():
        rest = [0] * len(source.variables)
        for i, e in enumerate(mon):
            name = ring.variables[i]
            if e and name not in slots:
                if name not in source.var_index:
                    raise GermError(f"variable {name!r} missing from the source ring")
                rest[source.var_index[name]] = e
        groups.setdefault(tuple(mon[i] for i in where), {})[tuple(rest)] = c
    terms = []
    for beta, coeffs in groups.items():
        P = source.jet(coeffs)
        if P.is_zero():
            continue
        if len(P.coeffs) == 1 and source.unit_mon in P.coeffs:
            P = P.coeffs[source.unit_mon]
            if P == source.domain.one:
                P = None
        terms.append((beta, P))
    return terms


def _at_probe(table: PowerTable, probe, slots: Sequence[str]):
    """The probe tuple v moved by the table's substitution phi, and the
    powers of its slots: (v(phi), beta -> v(phi)^beta).

    When every slot of v is zero or x^alpha_k with coefficient 1, both come
    off ``table``: v(phi)^beta = phi^(sum_k beta_k alpha_k).  Any other
    probe (a source ideal can reduce x^alpha) is evaluated by
    ``PowerTable.image`` and a table of its own images.
    """
    source = table.ring
    alphas = [_unit_monomial(p) for p in probe]
    if not all(a is not None or p.is_zero() for a, p in zip(alphas, probe)):
        inner = [table.image(p) for p in probe]
        return inner, PowerTable(source, inner, slots).power

    def slot_power(beta):
        key = [0] * len(source.variables)
        for b, a in zip(beta, alphas):
            if b:
                if a is None:
                    return source.zero
                for i, e in enumerate(a):
                    key[i] += b * e
        return table.power(tuple(key))

    return [source.zero if a is None else table.power(a) for a in alphas], slot_power


def _at_slots(terms, slot_power, source: JetRing) -> Jet:
    """The sum of P * slot_power(beta) over the ``_slot_terms`` pairs."""
    parts = []
    for beta, P in terms:
        pw = slot_power(beta)
        if not pw.is_zero():
            parts.append((None, P * pw) if isinstance(P, Jet) else (P, pw))
    return source.combination(parts)


def probe_images(source: JetRing, target: JetRing, outer=None,
                 right: Optional[RightAut] = None, matrix=None):
    """Pairs (v, outer(matrix * v(phi))) over the test maps v of
    ``level_probes``: phi is the source change ``right`` (the identity when
    None), ``matrix`` a Klin matrix, and ``outer`` a target-side tuple
    sum P_beta(x, t) * y^beta (L, C, and their tangent vectors).  Tuple
    probes are used exactly when ``outer`` is given.

    Every image is read off ``right.table`` (or the identity's) with no
    per-probe substitution: v(phi) = phi^alpha for a monomial tuple
    (x^alpha_1, ..., x^alpha_m), and the outer tuple gives the sum of
    P_beta * phi^(sum_k beta_k alpha_k).  This is exact: the entries are
    ring products in the truncated quotient, as a substitution computes
    them, and exponent vectors are never truncated, since phi may have
    terms of geometric degree 0 (x -> x+t in a family).
    """
    table = right.table if right is not None else PowerTable.at(source, source, {})
    terms = None if outer is None else [_slot_terms(c, target.xvars, source) for c in outer]
    for probe in level_probes(source, target, outer is None):
        inner, slot_power = _at_probe(table, probe, target.xvars)
        if matrix is not None:
            inner = matrix_apply(matrix, inner, source)
        yield probe, (inner if terms is None
                      else [_at_slots(t, slot_power, source) for t in terms])


def probe_moves(element: GroupElement, source: JetRing, target: JetRing):
    """Pairs (v, g.v - v) over the test maps v of ``level_probes``, with g.v
    from ``probe_images``: the moves that every level of ``element`` reads."""
    parts = {part.tag: part for part in element.factors()}
    outer = parts.get("L") or parts.get("C")
    images = probe_images(source, target, outer and outer.comps, parts.get("R"),
                          parts["Mat"].rows if "Mat" in parts else None)
    return ((v, [a - b for a, b in zip(img, v)]) for v, img in images)


def group_level(element: GroupElement, source: JetRing, target: JetRing,
                filt: Filtration) -> float:
    """The largest j with ord(g.v - v) >= ord(v) + j over the ``probe_moves``
    of the element.  Returns -1 when the element fails even the level-0
    bound, which can happen for non-standard filtrations.
    """
    return probe_level(probe_moves(element, source, target), source, filt)


# -- change of coefficient field --------------------------------------------

def extend_ring(ring: JetRing, ext) -> JetRing:
    """The same presentation with coefficients in the larger field."""
    gens = []
    for g in ring.ideal_gen_jets():
        gens.append({mon: ext.embed(c) for mon, c in g.coeffs.items()})
    return JetRing(ext.top, ring.xvars, ring.order, ideal=gens,
                   tvars=ring.tvars, torder=ring.torder)


def extend_jet(jet: Jet, ext, ring_top: JetRing) -> Jet:
    return ring_top.jet({mon: ext.embed(c) for mon, c in jet.coeffs.items()})


def restrict_jet(jet: Jet, ext, ring_base: JetRing) -> Optional[Jet]:
    out = {}
    for mon, c in jet.coeffs.items():
        down = ext.descend(c)
        if down is None:
            return None
        out[mon] = down
    return ring_base.jet(out)


def extend_map(f: MapGerm, ext, source_top: JetRing, target_top: JetRing) -> MapGerm:
    return MapGerm(source_top, target_top,
                   [extend_jet(c, ext, source_top) for c in f.components],
                   validate=False)


def restrict_map(f: MapGerm, ext, source_base: JetRing,
                 target_base: JetRing) -> Optional[MapGerm]:
    comps = []
    for c in f.components:
        down = restrict_jet(c, ext, source_base)
        if down is None:
            return None
        comps.append(down)
    return MapGerm(source_base, target_base, comps, validate=False)


def map_jets(element: GroupElement, fn, source: Optional[JetRing] = None,
             target: Optional[JetRing] = None) -> GroupElement:
    """``element`` with ``fn(jet, ring)`` in place of each stored jet.

    ``ring`` is the jet's ring in the result: on the new ``source`` and
    ``target``, given together, or on the element's own rings when both are
    ``None``.
    """
    def walk(el):
        if isinstance(el, Pair):
            return Pair(walk(el.outer), walk(el.right))
        if isinstance(el, JetMatrix):
            ring = source or el.source
            return JetMatrix(ring, target or el.target,
                             [[fn(e, ring) for e in row] for row in el.rows], validate=False)
        if isinstance(el, _Substitution):
            if source is None:
                return el._with([fn(c, el.ring) for c in el.comps])
            ring, _, _, build = factor_layout(el.tag, source, target)
            return build([fn(c, ring) for c in el.comps], False)
        raise GermError(f"cannot map the jets of {el.tag}")

    return walk(element)


def extend_element(element: GroupElement, ext, source_top: JetRing,
                   target_top: JetRing) -> GroupElement:
    return map_jets(element, lambda jet, ring: extend_jet(jet, ext, ring),
                    source_top, target_top)
