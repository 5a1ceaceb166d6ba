"""Tangent spaces of the equivalence groups, with exp and log.

Tangent directions at the identity come in four kinds, mirroring the
group variants: source derivations (for right changes), target
derivations (for left changes), matrices over the source ring (for the
linear contact part), and fiberwise target derivations over the joint
ring (for the full contact part).  A tangent frame for a group and a map
keeps each generating vector paired with its image on the map, so that
linear problems in the image space can be pulled back to group data.

Level-j subspaces are cut out monomial by monomial: a candidate vector
built on one monomial survives when it raises the filtration order of
every test map by at least j.  The test maps are those of
``germs.level_probes``, nonconstant monomials in each slot, order 0
included (t-adic and chain filtrations have such), and they also give
compiled systems their level equations and ``group_level`` its levels.
For the order filtration this reproduces the familiar closed forms
(coefficients in the (j+1)-st power of the maximal ideal on the
derivation sides, entries in the j-th power on the matrix side).
Ideal-carrying presentations impose linear side conditions, which are solved exactly, so that frame
vectors for singular germs are combinations of monomial candidates.

exp turns a vector into a group element by the usual series, which
terminates at jet level; log inverts it through the operator logarithm
of the associated substitution.  Both refuse positive characteristic
when a needed factorial vanishes.
"""

from __future__ import annotations

import copy
import itertools
from functools import cached_property
from typing import Optional, Sequence

from .jets import (
    Jet, JetRing, Filtration, PowerTable, VectorContext, SubspaceBasis, add_terms,
    graded_intersections, nullspace, solve_columns, _mon_mul,
)
from .germs import (
    GROUP_FACTORS, MapGerm, GroupElement, RightAut, LeftAut, JetMatrix, Contact, Pair,
    factor_identity, factor_layout, from_factors, product_ring, matrix_apply, matrix_mul,
    level_probes, probe_images, probe_level, _reindex, _Substitution,
)


class TangentError(ValueError):
    pass


_FACTORIAL_MSG = "characteristic {p} too small: the series needs 1/{k}!"


def _series_scalar(field, k_fact: int):
    """1/k! in the field, or None when it vanishes."""
    c = field.from_int(k_fact)
    if c.is_zero():
        return None
    return c.inverse()


class TangentVector:
    kind = "?"

    def apply_comps(self, comps: Sequence[Jet], source: JetRing):
        raise NotImplementedError

    def apply(self, f: MapGerm):
        return tuple(self.apply_comps(f.components, f.source))

    def add(self, other: "TangentVector") -> "TangentVector":
        raise NotImplementedError

    def scale(self, c) -> "TangentVector":
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def exp(self) -> GroupElement:
        raise NotImplementedError


class _Derivation(TangentVector):
    """A derivation sum(c_i d/dn_i) over ``ring``, stored as the jets c_i."""

    label = "?"

    def __init__(self, ring: JetRing, names: Sequence[str], comps: Sequence[Jet]):
        self.ring = ring
        self.names = tuple(names)
        self.comps = tuple(ring.jet(c) for c in comps)
        if len(self.comps) != len(self.names):
            raise TangentError(f"expected {len(self.names)} coefficients")

    def _with(self, comps):
        new = copy.copy(self)
        new.comps = tuple(comps)
        return new

    def derive(self, h: Jet) -> Jet:
        return self.ring.combination((None, a * h.derivative(name))
                                     for name, a in zip(self.names, self.comps) if not a.is_zero())

    def flow(self):
        """The components of the flow at time 1 (``_exp_derivation``)."""
        return _exp_derivation(self.ring, self.names, self.derive)

    def add(self, other):
        return self._with([a + b for a, b in zip(self.comps, other.comps)])

    def scale(self, c):
        return self._with([a.scale(c) for a in self.comps])

    def is_zero(self):
        return all(a.is_zero() for a in self.comps)

    def key(self):
        return tuple(c.key() for c in self.comps)

    def describe(self):
        return {"kind": self.label, "coefficients": [str(c) for c in self.comps],
                "along": list(self.names)}

    def __repr__(self):
        terms = [f"({c}) d/d{n}" for n, c in zip(self.names, self.comps)
                 if not c.is_zero()]
        return " + ".join(terms) if terms else "0"


class DerVector(_Derivation):
    """A source derivation sum(a_i d/dx_i) with vanishing coefficients at 0."""

    kind = "R"
    label = "source"

    def __init__(self, ring: JetRing, comps: Sequence[Jet]):
        super().__init__(ring, ring.xvars, comps)

    def apply_comps(self, comps, source):
        return [self.derive(c) for c in comps]

    def exp(self) -> RightAut:
        return RightAut(self.ring, self.flow(), validate=False)


class TargetDerVector(_Derivation):
    """A target derivation sum(b_j d/dy_j), applied by substituting the map."""

    kind = "L"
    label = "target"

    def __init__(self, ring: JetRing, comps: Sequence[Jet]):
        super().__init__(ring, ring.xvars, comps)

    def apply_comps(self, comps, source):
        """The coefficients at y = comps (source variables and parameters
        stay fixed, as on the joint ring of a contact vector)."""
        table = PowerTable.at(self.ring, source, dict(zip(self.names, comps)))
        return [table.image(b) for b in self.comps]

    def exp(self) -> LeftAut:
        return LeftAut(self.ring, self.flow(), validate=False)


class MatVector(TangentVector):
    """A matrix direction in the linear contact group."""

    kind = "Mat"

    def __init__(self, source: JetRing, target: JetRing, rows):
        self.source = source
        self.target = target
        self.rows = tuple(tuple(source.jet(e) for e in row) for row in rows)

    def apply_comps(self, comps, source):
        return matrix_apply(self.rows, list(comps), source)

    def add(self, other):
        rows = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return MatVector(self.source, self.target, rows)

    def scale(self, c):
        return MatVector(self.source, self.target,
                         [[e.scale(c) for e in row] for row in self.rows])

    def is_zero(self):
        return all(e.is_zero() for row in self.rows for e in row)

    def exp(self) -> JetMatrix:
        return JetMatrix(self.source, self.target,
                         _matrix_series(self.source, self.rows, False,
                                        "matrix direction is not nilpotent at jet level"),
                         validate=False)

    def key(self):
        return tuple(tuple(e.key() for e in row) for row in self.rows)

    def describe(self):
        return {"kind": "matrix", "rows": [[str(e) for e in row] for row in self.rows]}

    def __repr__(self):
        return f"<matrix direction {len(self.rows)}x{len(self.rows)}>"


class ContactVector(_Derivation):
    """A fiberwise target derivation over the joint source-target ring."""

    kind = "C"
    label = "contact"

    def __init__(self, source: JetRing, target: JetRing, comps,
                 joint: Optional[JetRing] = None):
        self.source = source
        self.target = target
        self.joint = joint if joint is not None else product_ring(source, target)
        super().__init__(self.joint, target.xvars, comps)

    apply_comps = TargetDerVector.apply_comps

    def exp(self) -> Contact:
        return Contact(self.source, self.target, self.flow(), joint=self.joint,
                       validate=False)


def _series_terms(ring: JetRing, start, step, is_zero, log: bool, bound_msg: str,
                  size: int = 1):
    """The pairs (c_k, T^k(start)) of a series in a nilpotent operator
    T = ``step`` on ``size`` jets of ``ring``, up to the first k with
    T^k(start) zero: c_k = 1/k! from k = 0 (exp, c_0 = 1 given as None), or
    (-1)^(k+1)/k from k = 1 (``log``).

    Each k checks, in order: T^k(start) zero (the sum is complete),
    k > size * dim + 1 (``bound_msg``: on a space of that dimension a
    nilpotent T is zero by then), and c_k infinite in the characteristic.
    """
    if not log:
        yield None, start
    term, k_fact = start, 1
    for k in itertools.count(1):
        term = step(term)
        if is_zero(term):
            return
        if k > size * ring.dim + 1:
            raise TangentError(bound_msg)
        k_fact *= k
        c = _series_scalar(ring.field, k if log else k_fact)
        if c is None:
            raise TangentError(_FACTORIAL_MSG.format(p=ring.field.char, k=k))
        yield (-c if log and k % 2 == 0 else c), term


def _matrix_series(ring: JetRing, B, log: bool, bound_msg: str):
    """exp(B), or log(1 + B) for ``log``, of a square jet matrix B: P -> PB
    acts on rows of m jets, so B^k may stay nonzero up to k = m * dim."""
    m = len(B)
    one = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]
    terms = list(_series_terms(ring, one, lambda P: matrix_mul(P, B, ring),
                               lambda P: all(e.is_zero() for row in P for e in row),
                               log, bound_msg, size=m))
    return [[ring.combination((c, P[i][j]) for c, P in terms) for j in range(m)]
            for i in range(m)]


def _exp_derivation(ring: JetRing, names, derive):
    """Components name + D(name) + D^2(name)/2! + ... of the flow at time 1."""
    for name in names:
        if not derive(ring.var(name)).constant_term().is_zero():
            raise TangentError(f"coefficient of d/d{name} has a constant term")
    return [ring.combination(_series_terms(ring, ring.var(name), derive, Jet.is_zero, False,
                                           "derivation is not nilpotent at jet level"))
            for name in names]


def _operator_log(ring: JetRing, names, comps):
    """Coefficients of the derivation log of the substitution name -> comp.

    Uses log(sigma) = sum (-1)^(k+1) (sigma - id)^k / k applied to each
    variable; the difference operator is nilpotent exactly when the
    substitution is unipotent at jet level.
    """
    sigma = PowerTable.at(ring, ring, dict(zip(names, comps))).image
    return [ring.combination(_series_terms(ring, ring.var(name), lambda u: sigma(u) - u,
                                           Jet.is_zero, True,
                                           "substitution is not unipotent at jet level"))
            for name in names]


def log_element(element: GroupElement) -> dict:
    """Tangent data whose kind-wise exp recovers the element; keys by kind."""
    if isinstance(element, _Substitution):
        comps = _operator_log(element.ring, element.names, element.comps)
        return {element.tag: _vector(element.tag, comps, element.source, element.target,
                                     element.ring)}
    if isinstance(element, JetMatrix):
        ring = element.source
        B = [[e - (ring.one if i == j else ring.zero) for j, e in enumerate(row)]
             for i, row in enumerate(element.rows)]
        rows = _matrix_series(ring, B, True, "matrix is not unipotent at jet level")
        return {"Mat": MatVector(ring, element.target, rows)}
    if isinstance(element, Pair):
        out = log_element(element.outer)
        out.update(log_element(element.right))
        return out
    raise TangentError(f"cannot take log of {element.tag}")


def exp_combination(tag: str, parts: dict, source: JetRing,
                    target: JetRing) -> GroupElement:
    """The group element with the given kind-wise tangent parts.

    Missing kinds default to the identity factor; the factors are assembled
    as the group's element, matching how composite groups act.
    """
    if tag not in GROUP_FACTORS:
        raise TangentError(f"unknown group {tag!r}")
    return from_factors([parts[k].exp() if k in parts and not parts[k].is_zero()
                         else factor_identity(k, source, target)
                         for k in GROUP_FACTORS[tag]])


# -- log conditions for ideal-carrying presentations ------------------------

def der_log(ring: JetRing, include_constants: bool = True):
    """Derivations of the ambient ring carrying each ideal generator into
    the span of the generators' monomial multiples.

    Works in the ideal-free ring, so the returned coefficient jets show
    honest representatives.  Candidates are monomial coefficients; the
    side conditions couple them, and the kernel of the condition matrix is
    returned as a list of derivations.
    """
    raw = ring.raw()
    gens = ring.ideal_gen_jets()
    cands = [(raw.jet({mon: raw.domain.one}), i) for mon in raw.monomials
             if include_constants or sum(mon) for i in range(raw.nx)]
    if not gens:
        return [DerVector(raw, [m if l == i else raw.zero for l in range(raw.nx)])
                for m, i in cands]
    # a jet of ``ring`` is reduced against the ideal's echelon rows, so it
    # is the residual of its raw form modulo the ideal span
    ctx = VectorContext(ring, len(gens))
    cols = [ctx.to_pairs(tuple(ring.jet((m * g.derivative(raw.xvars[i])).coeffs) for g in gens))
            for m, i in cands]
    out = []
    for vec in nullspace(_transposed(cols), len(cands), raw.field):
        comps = [raw.zero] * raw.nx
        for c, (m, i) in zip(vec, cands):
            if not c.is_zero():
                comps[i] = comps[i] + m.scale(c)
        out.append(DerVector(raw, comps))
    return out


def _log_images(vec: _Derivation, gens):
    """The tuple over the ideal generators g of sum c_i * dg/dn_i, as a pair
    row: empty exactly when the derivation keeps every g in the ideal."""
    ring = vec.ring
    return VectorContext(ring, len(gens)).to_pairs(tuple(
        ring.combination((None, c * _reindex(g.derivative(name), ring))
                         for name, c in zip(vec.names, vec.comps) if not c.is_zero())
        for g in gens))


def _transposed(cols):
    """The pair rows of the matrix with the pair rows ``cols`` as columns."""
    rows = {}
    for k, col in enumerate(cols):
        for p, c in col:
            rows.setdefault(p, []).append((k, c))
    return list(rows.values())


# -- candidate generation with levels ---------------------------------------

def _least_gain(source: JetRing, filt: Filtration, pairs) -> float:
    """min of ord(pi) - d over the pairs (pi, d) with pi in range; inf if none."""
    return min((filt.mon_order(pi) - d for pi, d in pairs if source._in_range(pi)),
               default=float("inf"))


def _vector(kind: str, comps, source, target, joint) -> TangentVector:
    """The tangent vector of a kind with coefficients ``comps``, jets of the
    kind's ``factor_layout`` ring in its layout (a matrix row by row)."""
    if kind == "R":
        return DerVector(source, comps)
    if kind == "L":
        return TargetDerVector(target, comps)
    if kind == "Mat":
        m = target.nx
        return MatVector(source, target, [comps[i * m: (i + 1) * m] for i in range(m)])
    return ContactVector(source, target, comps, joint=joint)


def _candidates(kind: str, source: JetRing, target: JetRing,
                joint: Optional[JetRing], filt: Filtration):
    """Every monomial candidate of a vector kind, as (least level, vector),
    one per monomial and entry of its ``factor_layout``.

    The least level is the least filtration order the candidate adds to a
    test monomial (``filt.level_set(0)``) fed to it, so the candidate lies
    in the level-j subgroup's tangent exactly when it is at least j.  A
    target-side monomial w = x^a t^c y^beta (a matrix entry: beta = (1,))
    takes test monomials v_k of order >= d to x^a t^c prod v_k^beta_k.
    The filtration caches the list per kind and rings, so the vectors, and
    for C the joint ring they live on, are shared between calls; none of
    them is changed in place (``add`` and ``scale`` return new vectors).
    """
    key = (kind, source, target)
    if key in filt._cache:
        return filt._cache[key]
    if kind == "C" and joint is None:
        joint = product_ring(source, target)
    ring, identity, mons, _ = factor_layout(kind, source, target, joint)
    width = len(identity)

    def levels():
        lo = 0 if kind == "L" else source.nx  # y^beta = w[lo:hi]
        hi = lo if kind == "Mat" else lo + target.nx
        # order 0 is fed only when some test monomial has it
        depths = range(0 if filt.level_set(0) != filt.level_set(1) else 1, filt.vanishing_depth())
        for w in mons:
            if kind != "R":
                base = w[:lo] + (0,) * (source.nx - lo) + w[hi:]
                beta = tuple(sorted(w[lo:hi])) or (1,)  # one product set per multiset
                level = _least_gain(source, filt, ((_mon_mul(base, nu), d) for d in depths
                                                   for nu in filt.product_set(beta, d)))
            for i in range(width):
                if kind == "R":
                    # x^w d/dx_i takes x^mu to mu_i x^(w + mu - e_i)
                    unit = tuple(1 if l == i else 0 for l in range(len(w)))
                    level = _least_gain(source, filt, (
                        (tuple(a + b - c for a, b, c in zip(w, mu, unit)), filt.mon_order(mu))
                        for mu in source.monomials if mu[i]))
                yield level

    out = filt._cache[key] = []
    for level, (w, i) in zip(levels(), itertools.product(mons, range(width))):
        comps = [ring.jet({w: ring.domain.one}) if l == i else ring.zero for l in range(width)]
        out.append((level, _vector(kind, comps, source, target, joint)))
    return out


class TangentFrame:
    """Generating tangent vectors for a group at a map, with their images
    as pair rows (``sparse_images``); ``images`` is their dense view."""

    def __init__(self, tag: str, f: MapGerm, level: int, filt: Filtration, entries, sparse_images):
        self.tag = tag
        self.f = f
        self.level = level
        self.filt = filt
        self.entries = entries
        self.sparse_images = sparse_images
        self.context = f.context()

    @cached_property
    def images(self) -> list:
        return [self.context.dense(row) for row in self.sparse_images]

    @cached_property
    def basis(self) -> SubspaceBasis:
        """The span of the images in reduced echelon form, built on first read."""
        return SubspaceBasis.span(self.context, self.sparse_images)

    @property
    def rank(self) -> int:
        return self.basis.rank

    def solve(self, target_vec):
        return solve_columns(self.images, target_vec, self.f.source.field)

    def solve_mod(self, target_vec, cutoff: float):
        """Solve up to image coordinates of filtration order >= cutoff."""
        mask = [self.filt.mon_order(self.f.source.monomials[p % self.f.source.dim]) >= cutoff
                for p in range(self.context.dim)]
        field = self.f.source.field
        cols = [[field.zero if mask[p] else col[p] for p in range(len(col))]
                for col in self.images]
        tgt = [field.zero if mask[p] else target_vec[p] for p in range(len(target_vec))]
        return solve_columns(cols, tgt, field)

    def combination(self, coeffs) -> dict:
        """Sum coefficient * entry, grouped by vector kind."""
        parts = {}
        for c, entry in zip(coeffs, self.entries):
            if isinstance(c, int):
                c = self.f.source.field.from_int(c)
            if c.is_zero():
                continue
            piece = entry.scale(c)
            if entry.kind in parts:
                parts[entry.kind] = parts[entry.kind].add(piece)
            else:
                parts[entry.kind] = piece
        return parts

    def element_from(self, coeffs) -> GroupElement:
        return exp_combination(self.tag, self.combination(coeffs),
                               self.f.source, self.f.target)

    def describe(self):
        return {
            "group": self.tag,
            "level": self.level,
            "rank": self.rank,
            "vectors": [e.describe() for e in self.entries],
        }

    def __repr__(self):
        return f"<tangent frame {self.tag} level {self.level} rank {self.rank}>"


def _frames(tag: str, f: MapGerm, filt: Filtration, levels) -> list:
    """The tangent frames of the level-j subgroups at f, one per j in ``levels``.

    The candidates, with least levels from the filtration's cache, are
    generated and applied to f once.  The level-j frame takes those of
    least level >= j (all of them for j = 0); on an ideal-carrying ring
    its vectors are the kernel combinations of those candidates under the
    linear side conditions, solved per frame, and their images the same
    combinations of the candidate images.
    """
    if tag not in GROUP_FACTORS:
        raise TangentError(f"unknown group {tag!r}")
    least = min(levels)
    if least < 0:
        raise TangentError("level must be non-negative")
    source, target = f.source, f.target
    kinds = GROUP_FACTORS[tag]
    if "Mat" in kinds and target.ideal_gens:
        raise TangentError("matrix contact equivalence needs a smooth target")
    ctx = f.context()
    field = source.field

    def keep(level, j):
        return j == 0 or level >= j

    pool = {}  # kind -> [(level, vector, image, side-condition column)]
    for kind in kinds:
        gens = () if kind == "Mat" else (source if kind == "R" else target).ideal_gen_jets()
        pool[kind] = [(level, vec, ctx.to_pairs(vec.apply(f)),
                       _log_images(vec, gens) if gens else None)
                      for level, vec in _candidates(kind, source, target, None, filt)
                      if keep(level, least)]
    frames = []
    for j in levels:
        entries, images = [], []
        for kind, cands in pool.items():
            cands = [c for c in cands if keep(c[0], j)]
            cols = [c[3] for c in cands]
            if not cands or cols[0] is None or not any(cols):
                entries.extend(c[1] for c in cands)
                images.extend(c[2] for c in cands)
                continue
            for coeffs in nullspace(_transposed(cols), len(cands), field):
                total, image = None, {}
                for a, (_, vec, img, _) in zip(coeffs, cands):
                    if not a.is_zero():
                        piece = vec.scale(a)
                        total = piece if total is None else total.add(piece)
                        add_terms(image, img, a)
                if total is not None and not total.is_zero():
                    entries.append(total)
                    images.append(tuple(image.items()))
        frames.append(TangentFrame(tag, f, j, filt, entries, images))
    return frames


def tangent_space(tag: str, f: MapGerm, j: int, filt: Filtration) -> TangentFrame:
    """The tangent frame of the level-j subgroup at f (j = 0: the full group)."""
    return _frames(tag, f, filt, (j,))[0]


def vector_level(vec: TangentVector, source: JetRing, target: JetRing,
                 filt: Filtration) -> float:
    """Largest j with ord(vec . v) >= ord(v) + j over test maps; -1 if below 0.

    The test maps are those of ``group_level``, from ``level_probes``; the
    images of target-side vectors (L, C) come off ``probe_images``.
    """
    if vec.kind in ("L", "C"):
        pairs = probe_images(source, target, vec.comps)
    else:
        pairs = ((v, vec.apply_comps(list(v), source))
                 for v in level_probes(source, target, True))
    return probe_level(pairs, source, filt)


# -- uniform comparison bounds ----------------------------------------------

class ComparisonBound:
    """The least d with (full tangent) cap (order >= d) inside the level-j
    tangent, together with membership certificates."""

    def __init__(self, tag: str, level: int, bound: int, certificates):
        self.tag = tag
        self.level = level
        self.bound = bound
        self.certificates = certificates

    @property
    def found(self) -> bool:
        return self.bound is not None

    def describe(self):
        return {"group": self.tag, "level": self.level, "bound": self.bound,
                "certificates": self.certificates}


def comparison_bound(tag: str, f: MapGerm, j: int, filt: Filtration) -> ComparisonBound:
    """Least d >= 1 with every full-tangent image of order >= d lying in the
    level-j tangent image space, certified by coordinates for each
    canonical basis vector of the full images of order >= d.

    One graded echelon of the full images settles every d: its rows of
    grade >= d span the full images of order >= d, so d is 1 + the largest
    grade >= 1 of a row outside the level-j image, found by testing the
    rows by descending grade up to the first one outside.  Grades stay
    below ``top = filt.vanishing_depth()``, so d is at most ``top``; there
    it has no certificates, since no image of order >= top survives the
    truncation, and the inclusion holds only vacuously, saying nothing
    inside the jet window.  For the paired left-right group the map must
    have positive filtration order, otherwise target-side orders degenerate.
    """
    if tag == "LR" and filt.order_of(f.components) < 1:
        raise TangentError("the map must have positive filtration order")
    frame0, framej = _frames(tag, f, filt, (0, j))
    ctx = frame0.context
    grades = [filt.mon_order(mon) for _ in range(ctx.ncomp) for mon in ctx.ring.monomials]
    order_at_least = graded_intersections(ctx, frame0.sparse_images, grades)
    d = 1 + next((g for g, row in reversed(order_at_least.graded)
                  if g >= 1 and framej.basis.membership(row) is None), 0)
    return ComparisonBound(tag, j, d, [
        {"vector": [str(c) for c in ctx.to_jets(row)],
         "coordinates": [str(c) for c in framej.basis.membership(row)]}
        for row in order_at_least(d).sparse_rows])
