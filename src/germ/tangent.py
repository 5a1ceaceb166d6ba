"""Tangent spaces of the equivalence groups, with exp and log.

Tangent directions at the identity come in four kinds, mirroring the
group variants: source derivations (for right changes), target
derivations (for left changes), matrices over the source ring (for the
linear contact part), and fiberwise target derivations over the joint
ring (for the full contact part).  A tangent frame for a group and a map
keeps each generating vector paired with its image on the map, so that
linear problems in the image space can be pulled back to group data.

Level-j subspaces are cut out monomial by monomial: a candidate vector
built on one monomial survives when every way of feeding it filtration
monomials raises the filtration order by at least j.  For the order
filtration this reproduces the familiar closed forms (coefficients in
the (j+1)-st power of the maximal ideal on the derivation sides, entries
in the j-th power on the matrix side).  Ideal-carrying presentations
impose linear side conditions, which are solved exactly, so that frame
vectors for singular germs are combinations of monomial candidates.

exp turns a vector into a group element by the usual series, which
terminates at jet level; log inverts it through the operator logarithm
of the associated substitution.  Both refuse positive characteristic
when a needed factorial vanishes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .jets import (
    Jet, JetRing, Filtration, VectorContext, SubspaceBasis,
    ideal_span, nullspace, solve_columns,
)
from .germs import (
    MapGerm, GroupElement, RightAut, LeftAut, LRPair, Contact, ContactPair,
    ContactLinPair, product_ring, matrix_apply, matrix_mul,
    _identity_args, _reindex, _single_monomial_vectors, _tuple_vectors,
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


class DerVector(TangentVector):
    """A source derivation sum(a_i d/dx_i) with vanishing coefficients at 0."""

    kind = "R"

    def __init__(self, ring: JetRing, comps: Sequence[Jet]):
        self.ring = ring
        self.comps = tuple(ring.jet(c) for c in comps)
        if len(self.comps) != ring.nx:
            raise TangentError(f"expected {ring.nx} coefficients")

    def derive(self, h: Jet) -> Jet:
        out = self.ring.zero
        for name, a in zip(self.ring.xvars, self.comps):
            if not a.is_zero():
                out = out + a * h.derivative(name)
        return out

    def apply_comps(self, comps, source):
        return [self.derive(c) for c in comps]

    def add(self, other):
        return DerVector(self.ring, [a + b for a, b in zip(self.comps, other.comps)])

    def scale(self, c):
        return DerVector(self.ring, [a.scale(c) for a in self.comps])

    def is_zero(self):
        return all(a.is_zero() for a in self.comps)

    def exp(self) -> RightAut:
        comps = _exp_derivation(self.ring, self.ring.xvars, self.derive)
        return RightAut(self.ring, comps, validate=False)

    def key(self):
        return tuple(c.key() for c in self.comps)

    def describe(self):
        return {"kind": "source", "coefficients": [str(c) for c in self.comps],
                "along": list(self.ring.xvars)}

    def __repr__(self):
        terms = [f"({c}) d/d{n}" for n, c in zip(self.ring.xvars, self.comps)
                 if not c.is_zero()]
        return " + ".join(terms) if terms else "0"


class TargetDerVector(TangentVector):
    """A target derivation sum(b_j d/dy_j), applied by substituting the map."""

    kind = "L"

    def __init__(self, ring: JetRing, comps: Sequence[Jet]):
        self.ring = ring
        self.comps = tuple(ring.jet(c) for c in comps)
        if len(self.comps) != ring.nx:
            raise TangentError(f"expected {ring.nx} coefficients")

    def apply_comps(self, comps, source):
        mapping = dict(zip(self.ring.xvars, comps))
        args = _identity_args(source, mapping)
        return [b.substitute(args, ring=source) for b in self.comps]

    def add(self, other):
        return TargetDerVector(self.ring, [a + b for a, b in zip(self.comps, other.comps)])

    def scale(self, c):
        return TargetDerVector(self.ring, [a.scale(c) for a in self.comps])

    def is_zero(self):
        return all(a.is_zero() for a in self.comps)

    def exp(self) -> LeftAut:
        inner = DerVector(self.ring, self.comps)
        comps = _exp_derivation(self.ring, self.ring.xvars, inner.derive)
        return LeftAut(self.ring, comps, validate=False)

    def key(self):
        return tuple(c.key() for c in self.comps)

    def describe(self):
        return {"kind": "target", "coefficients": [str(c) for c in self.comps],
                "along": list(self.ring.xvars)}

    def __repr__(self):
        terms = [f"({c}) d/d{n}" for n, c in zip(self.ring.xvars, self.comps)
                 if not c.is_zero()]
        return " + ".join(terms) if terms else "0"


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

    def exp(self) -> ContactLinPair:
        m = len(self.rows)
        ring = self.source
        total = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]
        power = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]
        k_fact = 1
        for k in range(1, ring.dim + 2):
            k_fact *= k
            power = matrix_mul(power, [list(r) for r in self.rows], ring)
            if all(e.is_zero() for row in power for e in row):
                return ContactLinPair(self.source, self.target, total, validate=False)
            inv = _series_scalar(ring.field, k_fact)
            if inv is None:
                raise TangentError(_FACTORIAL_MSG.format(p=ring.field.char, k=k))
            total = [[total[i][j] + power[i][j].scale(inv) for j in range(m)]
                     for i in range(m)]
        raise TangentError("matrix direction is not nilpotent at jet level")

    def key(self):
        return tuple(tuple(e.key() for e in row) for row in self.rows)

    def describe(self):
        return {"kind": "matrix", "rows": [[str(e) for e in row] for row in self.rows]}

    def __repr__(self):
        return f"<matrix direction {len(self.rows)}x{len(self.rows)}>"


class ContactVector(TangentVector):
    """A fiberwise target derivation over the joint source-target ring."""

    kind = "C"

    def __init__(self, source: JetRing, target: JetRing, comps,
                 joint: Optional[JetRing] = None):
        self.source = source
        self.target = target
        self.joint = joint if joint is not None else product_ring(source, target)
        self.comps = tuple(self.joint.jet(c) for c in comps)

    def apply_comps(self, comps, source):
        mapping = dict(zip(self.target.xvars, comps))
        for n in self.source.xvars:
            mapping[n] = source.var(n)
        args = _identity_args(source, mapping)
        return [c.substitute(args, ring=source) for c in self.comps]

    def add(self, other):
        return ContactVector(self.source, self.target,
                             [a + b for a, b in zip(self.comps, other.comps)],
                             joint=self.joint)

    def scale(self, c):
        return ContactVector(self.source, self.target,
                             [a.scale(c) for a in self.comps], joint=self.joint)

    def is_zero(self):
        return all(a.is_zero() for a in self.comps)

    def derive(self, h: Jet) -> Jet:
        out = self.joint.zero
        for name, c in zip(self.target.xvars, self.comps):
            if not c.is_zero():
                out = out + c * h.derivative(name)
        return out

    def exp(self) -> Contact:
        comps = _exp_derivation(self.joint, self.target.xvars, self.derive)
        return Contact(self.source, self.target, comps, joint=self.joint, validate=False)

    def key(self):
        return tuple(c.key() for c in self.comps)

    def describe(self):
        return {"kind": "contact", "coefficients": [str(c) for c in self.comps],
                "along": list(self.target.xvars)}

    def __repr__(self):
        terms = [f"({c}) d/d{n}" for n, c in zip(self.target.xvars, self.comps)
                 if not c.is_zero()]
        return " + ".join(terms) if terms else "0"


def _exp_derivation(ring: JetRing, names, derive):
    """Components name + D(name) + D^2(name)/2! + ... of the flow at time 1."""
    for name in names:
        if not derive(ring.var(name)).constant_term().is_zero():
            raise TangentError(f"coefficient of d/d{name} has a constant term")
    comps = []
    for name in names:
        term = ring.var(name)
        total = term
        k_fact = 1
        for k in range(1, ring.dim + 2):
            term = derive(term)
            if term.is_zero():
                break
            k_fact *= k
            inv = _series_scalar(ring.field, k_fact)
            if inv is None:
                raise TangentError(_FACTORIAL_MSG.format(p=ring.field.char, k=k))
            total = total + term.scale(inv)
        else:
            raise TangentError("derivation is not nilpotent at jet level")
        comps.append(total)
    return comps


def _operator_log(ring: JetRing, names, comps):
    """Coefficients of the derivation log of the substitution name -> comp.

    Uses log(sigma) = sum (-1)^(k+1) (sigma - id)^k / k applied to each
    variable; the difference operator is nilpotent exactly when the
    substitution is unipotent at jet level.
    """
    mapping = dict(zip(names, comps))
    for n in ring.variables:
        mapping.setdefault(n, ring.var(n))
    args = _identity_args(ring, mapping)

    def sigma(h: Jet) -> Jet:
        return h.substitute(args, ring=ring)

    out = []
    for name in names:
        u = sigma(ring.var(name)) - ring.var(name)
        total = ring.zero
        k = 1
        while not u.is_zero():
            if k > ring.dim + 1:
                raise TangentError("substitution is not unipotent at jet level")
            inv = _series_scalar(ring.field, k)
            if inv is None:
                raise TangentError(_FACTORIAL_MSG.format(p=ring.field.char, k=k))
            sign = inv if k % 2 == 1 else -inv
            total = total + u.scale(sign)
            u = sigma(u) - u
            k += 1
        out.append(total)
    return out


def log_element(element: GroupElement) -> dict:
    """Tangent data whose kind-wise exp recovers the element; keys by kind."""
    if isinstance(element, RightAut):
        comps = _operator_log(element.ring, element.ring.xvars, element.comps)
        return {"R": DerVector(element.ring, comps)}
    if isinstance(element, LeftAut):
        comps = _operator_log(element.ring, element.ring.xvars, element.comps)
        return {"L": TargetDerVector(element.ring, comps)}
    if isinstance(element, LRPair):
        out = log_element(element.left)
        out.update(log_element(element.right))
        return out
    if isinstance(element, ContactLinPair):
        out = log_element(element.right)
        out["Mat"] = MatVector(element.source, element.target,
                               _matrix_log(element.matrix, element.source))
        return out
    if isinstance(element, Contact):
        comps = _operator_log(element.joint, element.target.xvars, element.comps)
        return {"C": ContactVector(element.source, element.target, comps,
                                   joint=element.joint)}
    if isinstance(element, ContactPair):
        out = log_element(element.contact)
        out.update(log_element(element.right))
        return out
    raise TangentError(f"cannot take log of {element.tag}")


def _matrix_log(M, ring: JetRing):
    m = len(M)
    B = [[M[i][j] - (ring.one if i == j else ring.zero) for j in range(m)]
         for i in range(m)]
    total = [[ring.zero for _ in range(m)] for _ in range(m)]
    power = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]
    for k in range(1, ring.dim + 2):
        power = matrix_mul(power, B, ring)
        if all(e.is_zero() for row in power for e in row):
            return total
        inv = _series_scalar(ring.field, k)
        if inv is None:
            raise TangentError(_FACTORIAL_MSG.format(p=ring.field.char, k=k))
        sign = inv if k % 2 == 1 else -inv
        total = [[total[i][j] + power[i][j].scale(sign) for j in range(m)]
                 for i in range(m)]
    raise TangentError("matrix is not unipotent at jet level")


def exp_combination(tag: str, parts: dict, source: JetRing,
                    target: JetRing) -> GroupElement:
    """The group element with the given kind-wise tangent parts.

    Missing kinds default to the identity; the element is assembled as the
    natural pair, matching how composite groups act.
    """
    right = parts["R"].exp() if "R" in parts and not parts["R"].is_zero() \
        else RightAut.identity(source)
    if tag == "R":
        return right
    if tag == "L":
        return parts["L"].exp() if "L" in parts else LeftAut.identity(target)
    if tag == "LR":
        left = parts["L"].exp() if "L" in parts and not parts["L"].is_zero() \
            else LeftAut.identity(target)
        return LRPair(left, right)
    if tag == "Klin":
        if "Mat" in parts and not parts["Mat"].is_zero():
            mat = parts["Mat"].exp().matrix
        else:
            mat = ContactLinPair.identity(source, target).matrix
        return ContactLinPair(source, target, mat, right, validate=False)
    if tag == "C":
        return parts["C"].exp() if "C" in parts else Contact.identity(source, target)
    if tag == "K":
        contact = parts["C"].exp() if "C" in parts and not parts["C"].is_zero() \
            else Contact.identity(source, target)
        return ContactPair(contact, right)
    raise TangentError(f"unknown group {tag!r}")


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
    cands = []
    for mon in raw.monomials:
        if not include_constants and sum(mon) == 0:
            continue
        for i in range(raw.nx):
            cands.append((mon, i))
    if not gens:
        return [DerVector(raw, [raw.jet({mon: raw.domain.one}) if l == i else raw.zero
                                for l in range(raw.nx)])
                for mon, i in cands]
    span = ideal_span(gens, raw)
    ctx = VectorContext(raw, 1)
    rows = []
    per_gen_images = []
    for mon, i in cands:
        coeff = raw.jet({mon: raw.domain.one})
        per_gen_images.append([span.residual(ctx.to_vec(coeff * g.derivative(raw.xvars[i])))
                               for g in gens])
    for gi in range(len(gens)):
        for p in range(ctx.dim):
            row = [per_gen_images[c][gi][p] for c in range(len(cands))]
            if any(not e.is_zero() for e in row):
                rows.append(row)
    kernel = nullspace(rows, len(cands), raw.field)
    out = []
    for vec in kernel:
        comps = [raw.zero] * raw.nx
        for c, (mon, i) in zip(vec, cands):
            if not c.is_zero():
                comps[i] = comps[i] + raw.jet({mon: raw.domain.one}).scale(c)
        out.append(DerVector(raw, comps))
    return out


# -- candidate generation with level filters --------------------------------

def _mon_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _filter_depths(filt: Filtration):
    return range(1, filt.vanishing_depth())


def _right_candidates(source: JetRing, filt: Filtration, j: int):
    """Monomial derivations nu d/dx_i whose action raises order by >= j."""
    out = []
    for nu in source.monomials:
        if sum(nu) == 0:
            continue
        for i in range(source.nx):
            if j >= 1 and not _right_mon_ok(source, filt, j, nu, i):
                continue
            comps = [source.jet({nu: source.domain.one}) if l == i else source.zero
                     for l in range(source.nx)]
            out.append(DerVector(source, comps))
    return out


def _right_mon_ok(source, filt, j, nu, i) -> bool:
    for mu in source.monomials:
        if mu[i] == 0:
            continue
        shifted = list(_mon_add(nu, mu))
        shifted[i] -= 1
        pi = tuple(shifted)
        if not source._in_range(pi):
            continue
        if filt.mon_order(pi) < filt.mon_order(mu) + j:
            return False
    return True


def _mat_candidates(source: JetRing, target: JetRing, filt: Filtration, j: int):
    out = []
    m = target.nx
    for alpha in source.monomials:
        if j >= 1 and not _mat_mon_ok(source, filt, j, alpha):
            continue
        entry = source.jet({alpha: source.domain.one})
        for i in range(m):
            for l in range(m):
                rows = [[entry if (r, c) == (i, l) else source.zero
                         for c in range(m)] for r in range(m)]
                out.append(MatVector(source, target, rows))
    return out


def _mat_mon_ok(source, filt, j, alpha) -> bool:
    for d in _filter_depths(filt):
        for nu in filt.level_set(d):
            pi = _mon_add(alpha, nu)
            if not source._in_range(pi):
                continue
            if filt.mon_order(pi) < d + j:
                return False
    return True


def _target_mon_split(target: JetRing, w):
    """(geometric part degree, parameter exponents) of a target monomial."""
    e = sum(w[: target.nx])
    tpart = w[target.nx:]
    return e, tpart


def _left_candidates(source: JetRing, target: JetRing, filt: Filtration, j: int):
    out = []
    for w in target.monomials:
        if sum(w) == 0:
            continue
        if j >= 1 and not _left_mon_ok(source, target, filt, j, w):
            continue
        jet = target.jet({w: target.domain.one})
        for slot in range(target.nx):
            comps = [jet if l == slot else target.zero for l in range(target.nx)]
            out.append(TargetDerVector(target, comps))
    return out


def _left_mon_ok(source, target, filt, j, w) -> bool:
    e, tpart = _target_mon_split(target, w)
    tshift = tuple([0] * source.nx) + tuple(tpart)
    for d in _filter_depths(filt):
        prods = filt.product_set(e, d) if e >= 1 else frozenset({source.unit_mon})
        for nu in prods:
            pi = _mon_add(nu, tshift)
            if not source._in_range(pi):
                continue
            if filt.mon_order(pi) < d + j:
                return False
    return True


def _contact_candidates(source: JetRing, target: JetRing, joint: JetRing,
                        filt: Filtration, j: int):
    out = []
    nsrc = source.nx
    m = target.nx
    for w in joint.monomials:
        beta = w[nsrc: nsrc + m]
        if sum(beta) == 0:
            continue  # must vanish on the zero section
        if j >= 1 and not _contact_mon_ok(source, target, filt, j, w):
            continue
        jet = joint.jet({w: joint.domain.one})
        for slot in range(m):
            comps = [jet if l == slot else joint.zero for l in range(m)]
            out.append(ContactVector(source, target, comps, joint=joint))
    return out


def _contact_mon_ok(source, target, filt, j, w) -> bool:
    nsrc = source.nx
    m = target.nx
    e = sum(w[nsrc: nsrc + m])
    base = tuple(w[:nsrc]) + tuple(w[nsrc + m:])  # source-part exponents
    for d in _filter_depths(filt):
        for nu in filt.product_set(e, d):
            pi = _mon_add(base, nu)
            if not source._in_range(pi):
                continue
            if filt.mon_order(pi) < d + j:
                return False
    return True


def _solve_side_conditions(cands, condition_images, ring: JetRing):
    """Kernel combinations of candidates under linear side conditions.

    condition_images[c] is a list of dense residual vectors, one per
    condition, for candidate c; a combination is valid when every summed
    residual vanishes.
    """
    if not cands:
        return []
    ncond = len(condition_images[0])
    rows = []
    for ci in range(ncond):
        dim = len(condition_images[0][ci])
        for p in range(dim):
            row = [condition_images[c][ci][p] for c in range(len(cands))]
            if any(not e.is_zero() for e in row):
                rows.append(row)
    if not rows:
        return list(cands)
    kernel = nullspace(rows, len(cands), ring.field)
    out = []
    for vec in kernel:
        total = None
        for c, cand in zip(vec, cands):
            if c.is_zero():
                continue
            piece = cand.scale(c)
            total = piece if total is None else total.add(piece)
        if total is not None and not total.is_zero():
            out.append(total)
    return out


def _right_log_images(cand: DerVector, source: JetRing):
    images = []
    ctx = VectorContext(source, 1)
    for g in source.ideal_gen_jets():
        val = source.zero
        for name, a in zip(source.xvars, cand.comps):
            if not a.is_zero():
                der = _reindex(g.derivative(name), source)
                val = val + a * der
        images.append(ctx.to_vec(val))
    return images


def _left_log_images(cand: TargetDerVector, target: JetRing):
    images = []
    ctx = VectorContext(target, 1)
    for g in target.ideal_gen_jets():
        val = target.zero
        for name, b in zip(target.xvars, cand.comps):
            if not b.is_zero():
                der = _reindex(g.derivative(name), target)
                val = val + b * der
        images.append(ctx.to_vec(val))
    return images


def _contact_log_images(cand: ContactVector, target: JetRing, joint: JetRing):
    images = []
    ctx = VectorContext(joint, 1)
    for g in target.ideal_gen_jets():
        val = joint.zero
        for name, c in zip(target.xvars, cand.comps):
            if not c.is_zero():
                der = _reindex(g.derivative(name), joint)
                val = val + c * der
        images.append(ctx.to_vec(val))
    return images


def _kind_vectors(kind: str, source: JetRing, target: JetRing,
                  filt: Filtration, j: int, joint: Optional[JetRing]):
    if kind == "R":
        cands = _right_candidates(source, filt, j)
        if source.ideal_gens:
            images = [_right_log_images(c, source) for c in cands]
            return _solve_side_conditions(cands, images, source)
        return cands
    if kind == "L":
        cands = _left_candidates(source, target, filt, j)
        if target.ideal_gens:
            images = [_left_log_images(c, target) for c in cands]
            return _solve_side_conditions(cands, images, target)
        return cands
    if kind == "Mat":
        return _mat_candidates(source, target, filt, j)
    if kind == "C":
        cands = _contact_candidates(source, target, joint, filt, j)
        if target.ideal_gens:
            images = [_contact_log_images(c, target, joint) for c in cands]
            return _solve_side_conditions(cands, images, joint)
        return cands
    raise TangentError(f"unknown vector kind {kind!r}")


_TAG_KINDS = {
    "R": ("R",),
    "L": ("L",),
    "LR": ("L", "R"),
    "C": ("C",),
    "K": ("C", "R"),
    "Klin": ("Mat", "R"),
}


class TangentFrame:
    """Generating tangent vectors for a group at a map, with their images."""

    def __init__(self, tag: str, f: MapGerm, level: int, filt: Filtration,
                 entries, images, basis: SubspaceBasis):
        self.tag = tag
        self.f = f
        self.level = level
        self.filt = filt
        self.entries = entries
        self.images = images
        self.basis = basis
        self.context = f.context()

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


def tangent_space(tag: str, f: MapGerm, j: int, filt: Filtration) -> TangentFrame:
    """The tangent frame of the level-j subgroup at f (j = 0: the full group)."""
    if tag not in _TAG_KINDS:
        raise TangentError(f"unknown group {tag!r}")
    if j < 0:
        raise TangentError("level must be non-negative")
    source, target = f.source, f.target
    if tag == "Klin" and target.ideal_gens:
        raise TangentError("matrix contact equivalence needs a smooth target")
    joint = None
    if "C" in _TAG_KINDS[tag]:
        joint = product_ring(source, target)
    entries = []
    for kind in _TAG_KINDS[tag]:
        entries.extend(_kind_vectors(kind, source, target, filt, j, joint))
    ctx = f.context()
    images = [ctx.to_vec(tuple(e.apply(f))) for e in entries]
    basis = SubspaceBasis.span(ctx, images) if images else SubspaceBasis(ctx, [], [])
    return TangentFrame(tag, f, j, filt, entries, images, basis)


def vector_level(vec: TangentVector, source: JetRing, target: JetRing,
                 filt: Filtration) -> float:
    """Largest j with ord(vec . v) >= ord(v) + j over test maps; -1 if below 0.

    The test maps are those of ``group_level``: single monomials for R and
    Mat vectors, otherwise monomial tuples that respect the target ideal.
    """
    cap = source.order + (source.torder or 0)
    level = cap
    if vec.kind in ("R", "Mat"):
        vectors = _single_monomial_vectors(source, target)
    else:
        vectors = _tuple_vectors(source, target)
    for comps in vectors:
        image = vec.apply_comps(list(comps), source)
        if all(i.is_zero() for i in image):
            continue
        jv = filt.order_of(tuple(image)) - filt.order_of(tuple(comps))
        if jv < level:
            level = jv
        if level < 0:
            return -1
    return level


# -- uniform comparison bounds ----------------------------------------------

class ComparisonBound:
    """Outcome of searching for d with (full tangent) cap (order >= d) inside
    the level-j tangent, together with membership certificates."""

    def __init__(self, tag: str, level: int, bound: Optional[int],
                 certificates, witness=None):
        self.tag = tag
        self.level = level
        self.bound = bound
        self.certificates = certificates
        self.witness = witness

    @property
    def found(self) -> bool:
        return self.bound is not None

    def describe(self):
        out = {"group": self.tag, "level": self.level}
        if self.found:
            out["bound"] = self.bound
            out["certificates"] = self.certificates
        else:
            out["bound"] = None
            out["witness"] = self.witness
        return out


def comparison_bound(tag: str, f: MapGerm, j: int, filt: Filtration) -> ComparisonBound:
    """Least d with every full-tangent image of order >= d lying in the
    level-j tangent image space.

    Certified by exhibiting coordinates for each basis vector of the
    intersection.  For the paired left-right group the map must have
    positive filtration order, otherwise target-side orders degenerate.

    The search runs up to ``filt.vanishing_depth()`` inclusive.  At that
    depth no full-tangent image of order >= d survives the truncation, so
    the inclusion holds with zero certificates: the search always succeeds,
    and a bound equal to the vanishing depth is least only vacuously,
    saying nothing inside the jet window.  The ``bound=None`` outcome with
    a witness cannot occur.
    """
    if tag == "LR" and filt.order_of(f.components) < 1:
        raise TangentError("the map must have positive filtration order")
    frame0 = tangent_space(tag, f, 0, filt)
    framej = tangent_space(tag, f, j, filt)
    ctx = frame0.context
    grades = [filt.mon_order(mon) for _ in range(ctx.ncomp) for mon in ctx.ring.monomials]
    order_at_least = frame0.basis.graded_intersections(grades)
    witness = None
    for d in range(1, filt.vanishing_depth() + 1):
        inter = order_at_least(d)
        certs = []
        good = True
        for row in inter.rows:
            coords = framej.basis.membership(row)
            if coords is None:
                good = False
                witness = [str(c) for c in ctx.to_jets(row)]
                break
            certs.append({
                "vector": [str(c) for c in ctx.to_jets(row)],
                "coordinates": [str(c) for c in coords],
            })
        if good:
            return ComparisonBound(tag, j, d, certs)
    return ComparisonBound(tag, j, None, [], witness=witness)
