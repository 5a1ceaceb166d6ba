"""Equivalence of jets as a polynomial system in unknown coefficients.

Whether two jets are carried into each other by a group element is, after
expanding the element's data in unknown Taylor coefficients, a finite
polynomial system over the coefficient field: matching equations from the
group relation, preservation equations for the ideals involved, and a
product trick for the needed invertibilities.  Inconsistency of the
system over the algebraic closure is decided by a basic Groebner run;
solvability over a finite field by a depth-first exhaustive search.
Solutions assemble back into verified group elements.

Over finite fields the extension-field orbit of a jet splits into
finitely many base-field orbits; each is found as the closure of one
member under a generating set of the jet group.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .exactfield import (
    Field, FieldElem, Rationals, PrimeField, ExtensionField, Extension, power,
)
from . import expr
from .jets import (
    Jet, JetRing, Filtration, filtration_make, _mon_divides, mon_str,
    add_terms, mul_terms,
)
from .germs import (
    GROUP_FACTORS, MapGerm, Pair, GermError, factor_layout, identity_element,
    from_factors, product_ring, extend_ring, extend_map, restrict_map, probe_moves,
)
from .descent import verify_witness


class PolyError(ValueError):
    pass


def _drl_key(mon):
    # degree first, then reverse-lexicographic on negated exponents
    return (sum(mon), tuple(-e for e in reversed(mon)))


class PolyRing:
    """Polynomials in named unknowns; also usable as a jet scalar domain."""

    def __init__(self, field: Field, names: Sequence[str]):
        self.field = field
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise PolyError("duplicate unknown names")
        self.index = {n: i for i, n in enumerate(self.names)}
        self.n = len(self.names)
        self.unit_mon = tuple(0 for _ in self.names)

    def poly(self, coeffs: dict) -> "Poly":
        out = {}
        for mon, c in coeffs.items():
            mon = tuple(mon)
            if len(mon) != self.n:
                raise PolyError(f"exponent tuple {mon} has wrong length")
            if not c.is_zero():
                out[mon] = c
        return Poly(self, out)

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    @property
    def one(self) -> "Poly":
        return Poly(self, {self.unit_mon: self.field.one})

    def from_int(self, n: int) -> "Poly":
        return self.poly({self.unit_mon: self.field.from_int(n)})

    def embed_base(self, c: FieldElem) -> "Poly":
        if not isinstance(c, FieldElem) or c.field != self.field:
            raise PolyError(f"scalar of {getattr(c, 'field', type(c))} used over {self.field}")
        return self.poly({self.unit_mon: c})

    def var(self, name: str) -> "Poly":
        if name not in self.index:
            raise PolyError(f"unknown name {name!r}")
        mon = [0] * self.n
        mon[self.index[name]] = 1
        return Poly(self, {tuple(mon): self.field.one})

    def from_expr(self, text: str) -> "Poly":
        """Parse a polynomial; field generators are allowed as constants."""
        env = {n: self.var(n) for n in self.names}
        for gname, gval in self.field.generator_env().items():
            if gname not in env:
                env[gname] = self.embed_base(gval)
        value = expr.eval_str(text, env, self.from_int)
        if isinstance(value, FieldElem):
            value = self.embed_base(value)
        if not isinstance(value, Poly) or value.ring != self:
            raise PolyError(f"not a polynomial over these unknowns: {text!r}")
        return value

    def mon_str(self, mon) -> str:
        return mon_str(self.names, mon)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.field == self.field
                and other.names == self.names)

    def __repr__(self):
        return f"PolyRing({self.field}, {list(self.names)})"


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: PolyRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(mon == self.ring.unit_mon for mon in self.coeffs)

    def constant_term(self) -> FieldElem:
        return self.coeffs.get(self.ring.unit_mon, self.ring.field.zero)

    def leading_monomial(self):
        if not self.coeffs:
            raise PolyError("the zero polynomial has no leading term")
        return max(self.coeffs, key=_drl_key)

    def names_used(self):
        out = set()
        for mon in self.coeffs:
            for name, e in zip(self.ring.names, mon):
                if e:
                    out.add(name)
        return out

    def _coerce(self, other) -> "Poly":
        """``other`` as a polynomial of this ring: ints and field scalars
        become constants."""
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, FieldElem):
            return self.ring.embed_base(other)
        if not isinstance(other, Poly):
            raise PolyError(f"not a polynomial: {other!r}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise PolyError("polynomials over different unknown registries")
        return other

    def __add__(self, other):
        return Poly(self.ring, add_terms(dict(self.coeffs), self._coerce(other).coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        return Poly(self.ring, mul_terms(self.coeffs, self._coerce(other).coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other.is_constant() or other.is_zero():
            raise PolyError("can only divide by a non-zero constant")
        return self.scale(other.constant_term().inverse())

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise PolyError("exponents must be non-negative integers")
        return power(self, e, self.ring.one)

    def scale(self, c: FieldElem) -> "Poly":
        if c.is_zero():
            return self.ring.zero
        return Poly(self.ring, {m: v * c for m, v in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return isinstance(other, Poly) and other.ring == self.ring and other.coeffs == self.coeffs

    def key(self):
        return tuple(sorted((m, c.key()) for m, c in self.coeffs.items()))

    def evaluate(self, env: dict) -> FieldElem:
        """Value at a point; ``env`` maps every used name to a field element."""
        field = self.ring.field
        total = field.zero
        for mon, c in self.coeffs.items():
            term = c
            for name, e in zip(self.ring.names, mon):
                if e == 0:
                    continue
                if name not in env:
                    raise PolyError(f"no value for unknown {name!r}")
                v = env[name]
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def map_coeffs(self, fn, ring: PolyRing) -> "Poly":
        return ring.poly({m: fn(c) for m, c in self.coeffs.items()})

    def __str__(self):
        if not self.coeffs:
            return "0"
        items = sorted(self.coeffs.items(), key=lambda kv: _drl_key(kv[0]), reverse=True)
        parts = []
        for mon, c in items:
            ms = self.ring.mon_str(mon)
            cs = str(c)
            compound = "+" in cs or "/" in cs or "*" in cs or "-" in cs[1:]
            if ms == "1":
                parts.append(f"({cs})" if compound else cs)
            elif cs == "1":
                parts.append(ms)
            elif cs == "-1":
                parts.append(f"-{ms}")
            else:
                parts.append(f"({cs})*{ms}" if compound else f"{cs}*{ms}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"<poly {self}>"


# -- the compiled system -----------------------------------------------------

class PolySystem:
    """Equations over named unknowns, with per-equation provenance tags."""

    def __init__(self, ring: PolyRing, equations: Sequence[Poly], tags: Sequence[dict],
                 provenance: Optional[dict] = None, layout: Optional[dict] = None):
        self.ring = ring
        self.field = ring.field
        self.equations = tuple(equations)
        self.tags = tuple(tags)
        if len(self.tags) != len(self.equations):
            raise PolyError("one provenance tag per equation")
        self.provenance = dict(provenance or {})
        self.layout = layout
        declared = set(ring.names)
        for eq in self.equations:
            stray = eq.names_used() - declared
            if stray:
                raise PolyError(f"equation uses undeclared unknowns {sorted(stray)}")

    @property
    def unknowns(self):
        return self.ring.names

    def occurring(self):
        out = set()
        for eq in self.equations:
            out |= eq.names_used()
        return tuple(n for n in self.ring.names if n in out)

    def describe(self) -> dict:
        prov = dict(self.provenance)
        prov["equations"] = [dict(t) for t in self.tags]
        return {
            "unknowns": list(self.ring.names),
            "equations": [str(eq) for eq in self.equations],
            "provenance": prov,
        }

    def __repr__(self):
        return f"<system: {len(self.equations)} equations in {len(self.ring.names)} unknowns>"


def system_from_json(data, field: Field) -> PolySystem:
    """The system of a ``describe()`` JSON object; any other shape raises."""
    def listed(value, kind):
        return isinstance(value, list) and all(isinstance(v, kind) for v in value)

    prov = data.get("provenance", {}) if isinstance(data, dict) else None
    if not (isinstance(prov, dict) and listed(data.get("unknowns"), str)
            and listed(data.get("equations"), str) and listed(prov.get("equations", []), dict)):
        raise PolyError('a system file is {"unknowns": [names], "equations": [texts]} '
                        'with an optional "provenance" object')
    ring = PolyRing(field, data["unknowns"])
    equations = [ring.from_expr(text) for text in data["equations"]]
    prov = dict(prov)
    tags = prov.pop("equations", None) or [{} for _ in equations]
    return PolySystem(ring, equations, tags, provenance=prov)


# -- compilation -------------------------------------------------------------

# the name of each factor kind in a compiled system's provenance, and the
# prefix of its unknowns
_FACTORS = {"R": "right", "L": "left", "Mat": "mat", "C": "contact"}
_PREFIX = {"R": "a", "L": "b", "Mat": "c", "C": "c"}


def _domain_twin(ring: JetRing, dom: PolyRing) -> JetRing:
    gens = [dict(g.coeffs) for g in ring.ideal_gen_jets()]
    return JetRing(ring.field, ring.xvars, ring.order, ideal=gens,
                   tvars=ring.tvars, torder=ring.torder, domain=dom)


def _embed_jet(jet: Jet, ring: JetRing) -> Jet:
    return ring.jet({m: ring.domain.embed_base(c) for m, c in jet.coeffs.items()})


def _det(entries, ring: PolyRing) -> Poly:
    n = len(entries)
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for l in range(i + 1, n):
                if perm[i] > perm[l]:
                    sign = -sign
        term = ring.one if sign > 0 else -ring.one
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


def _factor_elements(factors, source: JetRing, target: JetRing,
                     joint: Optional[JetRing], coeff, validate: bool = True) -> dict:
    """The group factor of each kind, with ``coeff(name)`` at every unknown's
    (name, entry, monomial) of its ``factor_layout``."""
    out = {}
    for kind, entries in factors.items():
        _, identity, _, build = factor_layout(kind, source, target, joint)
        jets = [{} for _ in identity]
        for name, k, mon in entries:
            jets[k][mon] = coeff(name)
        out[kind] = build(jets, validate)
    return out


def compile_system(tag: str, f: MapGerm, f_tilde: MapGerm, level: int = 0,
                   filt: Optional[Filtration] = None) -> PolySystem:
    """The polynomial system whose solutions are group data carrying f to
    f_tilde, in the fixed convention: the target-side part applied to f
    equals f_tilde composed with the source substitution.

    With ``level`` > 0, congruence equations confine the element to the
    level subgroup of the filtration (madic by default).
    """
    if tag not in GROUP_FACTORS:
        raise PolyError(f"unknown group {tag!r}")
    if level < 0:
        raise PolyError("level must be non-negative")
    if f.source != f_tilde.source or f.target != f_tilde.target:
        raise PolyError("the two maps must share source and target")
    source, target = f.source, f.target
    field = source.field
    kinds = GROUP_FACTORS[tag]
    if "Mat" in kinds and target.ideal_gens:
        raise PolyError("matrix contact equivalence needs a smooth target")
    if level > 0 and filt is None:
        filt = filtration_make(source, "madic")

    # the unknown coefficients of each factor, source change first, entry by
    # entry and then monomial by monomial: (name, entry, monomial)
    joint_k = product_ring(source, target) if "C" in kinds else None
    rings, factors = {}, {}
    for kind in reversed(kinds):
        rings[kind], identity, mons, _ = factor_layout(kind, source, target, joint_k)
        factors[kind] = [(f"{_PREFIX[kind]}{n}", k, mon) for n, (k, mon) in
                         enumerate(itertools.product(range(len(identity)), mons), 1)]
    aux_names = {kind: "z" if len(kinds) == 1 else "zx" if kind == "R" else "zy"
                 for kind in kinds}
    PR = PolyRing(field, [name for entries in factors.values() for name, _, _ in entries]
                  + list(aux_names.values()))
    S_source = _domain_twin(source, PR)
    S_target = _domain_twin(target, PR)
    S_joint = _domain_twin(joint_k, PR) if joint_k is not None else None

    # the unknown group data as unvalidated elements over jets with
    # polynomial coefficients; the target-side factor comes first in kinds
    elements = _factor_elements(factors, S_source, S_target, S_joint, PR.var,
                                validate=False)
    right = elements.get("R")
    outer = elements.get(kinds[0]) if kinds[0] != "R" else None

    def act(element, comps):
        if element is None:
            return comps
        return element.act(MapGerm(S_source, S_target, comps, validate=False)).components

    equations = []
    tags = []
    seen = set()

    def push(poly: Poly, tag_info: dict):
        if poly.is_zero():
            return
        if poly.key() in seen or (-poly).key() in seen:
            return
        seen.add(poly.key())
        equations.append(poly)
        tags.append(tag_info)

    def push_jet(jet: Jet, condition: str, where: dict, order_below=None):
        for mon in sorted(jet.coeffs, key=lambda m: jet.ring.mon_index[m]):
            if order_below is not None and filt.mon_order(mon) >= order_below:
                continue
            info = {"condition": condition, "coefficient": jet.ring.mon_str(mon)}
            info.update(where)
            push(jet.coeffs[mon], info)

    # the target-side factor applied to the first map must equal the second
    # map with the source substitution applied
    lhs = act(outer, [_embed_jet(c, S_source) for c in f.components])
    rhs = act(right, [_embed_jet(c, S_source) for c in f_tilde.components])
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        push_jet(b - a, "match", {"component": i})

    # the source change must respect the source ideal, and likewise on the
    # target side; images are reduced in the quotient, so their canonical
    # coefficients are the conditions
    for element, condition in ((right, "source-ideal"), (outer, "target-ideal")):
        if element is not None and element.tag != "Mat":
            for gi, g in enumerate(element.side.ideal_gen_jets()):
                push_jet(element.pullback(g), condition, {"generator": gi})

    # invertibility of each factor, by a product unknown against the
    # relevant determinant at the base point
    for kind in kinds:
        push(_det(elements[kind].linear_part(), PR) * PR.var(aux_names[kind]) - PR.one,
             {"condition": "invertibility", "factor": _FACTORS[kind]})

    # confinement to the level subgroup: every test map's move must raise
    # its filtration order by at least the level
    if level > 0:
        whole = from_factors([elements[kind] for kind in kinds])
        for v, move in probe_moves(whole, S_source, S_target):
            d = filt.order_of(v)
            for i, jet in enumerate(move):
                push_jet(jet, "level", {"component": i, "test_order": int(d)},
                         order_below=d + level)

    m = target.nx
    provenance = {
        "group": tag,
        "level": level,
        "convention": "target-side part applied to the first map equals the "
                      "second map composed with the source substitution",
        "f": [str(c) for c in f.components],
        "f_tilde": [str(c) for c in f_tilde.components],
        "unknown_factors": {
            _FACTORS[kind]: [[name, [k // m, k % m] if kind == "Mat" else k,
                              rings[kind].mon_str(mon)]
                             for name, k, mon in factors[kind]]
            for kind in kinds
        },
        "aux": {_FACTORS[kind]: aux_names[kind] for kind in kinds},
    }
    layout = {
        "tag": tag,
        "f": f,
        "f_tilde": f_tilde,
        "factors": factors,
        "aux": aux_names,
        "source": source,
        "target": target,
        "joint": joint_k,
    }
    return PolySystem(PR, equations, tags, provenance=provenance, layout=layout)


def extend_system(system: PolySystem, ext: Extension) -> PolySystem:
    """The same system with coefficients embedded into the extension field."""
    if system.field != ext.base:
        raise PolyError("extension must start at the system's field")
    PR = PolyRing(ext.top, system.ring.names)
    eqs = [eq.map_coeffs(ext.embed, PR) for eq in system.equations]
    prov = dict(system.provenance)
    prov["extended_to"] = str(ext.top)
    layout = None
    if system.layout is not None:
        lay = system.layout
        source_K = extend_ring(lay["source"], ext)
        target_K = extend_ring(lay["target"], ext)
        layout = {
            "tag": lay["tag"],
            "f": extend_map(lay["f"], ext, source_K, target_K),
            "f_tilde": extend_map(lay["f_tilde"], ext, source_K, target_K),
            "factors": lay["factors"],
            "aux": lay["aux"],
            "source": source_K,
            "target": target_K,
            "joint": product_ring(source_K, target_K) if lay["joint"] is not None else None,
        }
    return PolySystem(PR, eqs, system.tags, provenance=prov, layout=layout)


def assemble_witness(system: PolySystem, solution: dict):
    """Build the group element a solution encodes and verify its action.

    Returns (element, report), the report that of ``verify_witness``; the
    element satisfies act(element, f) = f_tilde exactly when it says ok.
    """
    if system.layout is None:
        raise PolyError("this system was not compiled in-process; nothing to assemble")
    lay = system.layout
    tag = lay["tag"]
    f, ft = lay["f"], lay["f_tilde"]
    source, target = lay["source"], lay["target"]
    field = system.field

    def value(name):
        v = solution.get(name, field.zero)
        if not isinstance(v, FieldElem) or v.field != field:
            raise PolyError(f"solution value for {name!r} is not in {field}")
        return v

    built = _factor_elements(lay["factors"], source, target, lay["joint"], value)
    # the system says outer(f) = f_tilde(Phi), so Phi^-1 after outer carries
    # f to f_tilde; each side is the group's element with identity elsewhere
    ident = identity_element(tag, source, target).factors()
    outer = from_factors([i if i.tag == "R" else built[i.tag] for i in ident])
    source_change = from_factors([built["R"] if i.tag == "R" else i for i in ident])
    witness = source_change.inverse().compose(outer)
    return witness, verify_witness(witness, f, ft)


# -- exhaustive search -------------------------------------------------------

def brute_solve(system: PolySystem, field: Optional[Field] = None,
                domain: Optional[Sequence[FieldElem]] = None,
                cap: int = 10 ** 8, limit: Optional[int] = None):
    """All solutions over a finite field by exhaustive depth-first search.

    Only unknowns that occur in some equation are searched, in
    ``occurring()`` order, and each equation is tested as soon as the last
    of its unknowns is set, so a branch that violates one is cut there; the
    solutions come out in the lexicographic order of the full product
    search.  The rest of the unknowns are reported as zero.  ``cap`` bounds
    the size of the full search box, checked before the search starts.
    ``field`` may be a finite extension of the system's field (coefficients
    are embedded); ``domain`` restricts the searched values to a subset of
    the field, e.g. a subfield's image.
    """
    if limit is not None and limit < 1:
        raise PolyError("the solution limit must be at least 1")
    sys_here = system
    if field is not None and field != system.field:
        if not isinstance(field, ExtensionField) or field.base != system.field:
            raise PolyError(f"{field} does not extend {system.field}")
        sys_here = extend_system(system, Extension(system.field, field))
    field = sys_here.field
    if not field.is_finite():
        raise PolyError("exhaustive search needs a finite field")
    values = list(domain) if domain is not None else list(field.elements())
    for v in values:
        if not isinstance(v, FieldElem) or v.field != field:
            raise PolyError("domain values must lie in the search field")
    values.sort(key=lambda e: e.key())
    active = sys_here.occurring()
    total = len(values) ** len(active)
    if total > cap:
        raise PolyError(f"search space of size {total} exceeds the cap {cap}")
    # due[d]: the equations whose last unknown is active[d]
    position = {n: d for d, n in enumerate(active)}
    due = [[] for _ in active]
    for eq in sys_here.equations:
        used = eq.names_used()
        if used:
            due[max(position[n] for n in used)].append(eq)
        elif not eq.is_zero():
            return []   # a nonzero constant equation
    zeros = {n: field.zero for n in sys_here.ring.names if n not in position}
    solutions = []
    env = {}
    choice = [-1] * len(active)
    depth = 0
    while depth >= 0:
        if depth == len(active):
            solutions.append({**env, **zeros})
            if limit is not None and len(solutions) >= limit:
                break
            depth -= 1
            continue
        choice[depth] += 1
        name = active[depth]
        if choice[depth] == len(values):
            choice[depth] = -1
            env.pop(name, None)
            depth -= 1
            continue
        env[name] = values[choice[depth]]
        if all(eq.evaluate(env).is_zero() for eq in due[depth]):
            depth += 1
    return solutions


# -- Groebner bases ----------------------------------------------------------

def _mon_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mon_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _mon_poly(ring: PolyRing, mon, c=None) -> Poly:
    return Poly(ring, {tuple(mon): c if c is not None else ring.field.one})


class GroebnerReport:
    """Outcome of the inconsistency test: True, False, or None when capped."""

    def __init__(self, inconsistent, certificate, pairs: int, basis_size: int):
        self.inconsistent = inconsistent
        self.certificate = certificate
        self.pairs = pairs
        self.basis_size = basis_size

    @property
    def undecided(self) -> bool:
        return self.inconsistent is None

    @property
    def status(self) -> str:
        if self.inconsistent is None:
            return "undecided"
        return "inconsistent" if self.inconsistent else "consistent"

    def describe(self) -> dict:
        out = {
            "status": self.status,
            "pairs_processed": self.pairs,
            "basis_size": self.basis_size,
        }
        if self.certificate is not None:
            out["certificate"] = [str(p) for p in self.certificate]
        return out

    def __repr__(self):
        return f"<groebner {self.status} pairs={self.pairs}>"


def _cof_reduce(p: Poly, cof, basis):
    """Normal form of p against the monic basis, cofactors maintained.

    Keeps the invariant that remainder plus the unreduced part equals the
    cofactor combination of the original input equations.
    """
    ring = p.ring
    remainder = ring.zero
    while not p.is_zero():
        lm = p.leading_monomial()
        lc = p.coeffs[lm]
        hit = None
        for g, gc in basis:
            if _mon_divides(g.leading_monomial(), lm):
                hit = (g, gc)
                break
        if hit is None:
            t = _mon_poly(ring, lm, lc)
            remainder = remainder + t
            p = p - t
            continue
        g, gc = hit
        q = _mon_poly(ring, _mon_div(lm, g.leading_monomial()), lc)
        p = p - q * g
        cof = [a - q * b for a, b in zip(cof, gc)]
    return remainder, cof


def groebner_inconsistent(system, cap: int = 20000) -> GroebnerReport:
    """Is 1 in the ideal of the equations?  Decided by a plain Buchberger
    run in degree-reverse-lexicographic order.

    True means no common zero exists over any field extension; False
    means the equations have a zero over the algebraic closure; None
    means the pair cap was hit first.  On True the certificate writes 1
    as an explicit combination of the input equations, checked by
    expansion before being returned.
    """
    if isinstance(system, PolySystem):
        equations = list(system.equations)
        ring = system.ring
    else:
        equations = list(system)
        if not equations:
            raise PolyError("no equations")
        ring = equations[0].ring
    field = ring.field
    ok_field = (isinstance(field, Rationals) or isinstance(field, PrimeField)
                or (isinstance(field, ExtensionField) and field.is_finite()))
    if not ok_field:
        raise PolyError(f"Groebner bases over {field} are not supported")

    def unit_vec(i, scale):
        v = [ring.zero] * len(equations)
        v[i] = ring.embed_base(scale)
        return v

    def certify(p, cof):
        inv = p.constant_term().inverse()
        cert = [h.scale(inv) for h in cof]
        total = ring.zero
        for h, e in zip(cert, equations):
            total = total + h * e
        if total != ring.one:
            raise PolyError("certificate verification failed")
        return cert

    basis = []
    pairs = []
    processed = 0

    def absorb(p, cof):
        # reduce, then either certify, discard, or join the basis
        p, cof = _cof_reduce(p, cof, basis)
        if p.is_zero():
            return None
        if p.is_constant():
            return certify(p, cof)
        inv = p.coeffs[p.leading_monomial()].inverse()
        p, cof = p.scale(inv), [h.scale(inv) for h in cof]
        for idx in range(len(basis)):
            pairs.append((idx, len(basis)))
        basis.append((p, cof))
        return None

    for i, e in enumerate(equations):
        if e.is_zero():
            continue
        cert = absorb(e, unit_vec(i, field.one))
        if cert is not None:
            return GroebnerReport(True, cert, processed, len(basis))

    def pair_key(ab):
        a, b = ab
        return _drl_key(_mon_lcm(basis[a][0].leading_monomial(),
                                 basis[b][0].leading_monomial()))

    while pairs:
        best = min(range(len(pairs)), key=lambda i: pair_key(pairs[i]))
        a, b = pairs.pop(best)
        processed += 1
        if processed > cap:
            return GroebnerReport(None, None, processed, len(basis))
        ga, ca = basis[a]
        gb, cb = basis[b]
        la, lb = ga.leading_monomial(), gb.leading_monomial()
        lcm = _mon_lcm(la, lb)
        if lcm == tuple(x + y for x, y in zip(la, lb)):
            continue  # coprime leading monomials: the pair reduces to zero
        qa = _mon_poly(ring, _mon_div(lcm, la))
        qb = _mon_poly(ring, _mon_div(lcm, lb))
        s = qa * ga - qb * gb
        cof = [qa * x - qb * y for x, y in zip(ca, cb)]
        cert = absorb(s, cof)
        if cert is not None:
            return GroebnerReport(True, cert, processed, len(basis))
    return GroebnerReport(False, None, processed, len(basis))


# -- orbit splitting under a finite extension --------------------------------

def _enumerate_factor(kind: str, source: JetRing, target: JetRing, cap: int):
    """Every element of one group factor, in the lexicographic order of its
    coefficient tuples over sorted field values, the first entry's
    coefficients most significant; tuples that fail validation are skipped."""
    ring, identity, mons, build = factor_layout(kind, source, target)
    width, slots = len(mons), len(identity)
    total = ring.field.size() ** (slots * width)
    if total > cap:
        raise PolyError(f"group enumeration of size {total} exceeds the cap {cap}")
    values = sorted(ring.field.elements(), key=lambda e: e.key())
    out = []
    for flat in itertools.product(values, repeat=slots * width):
        jets = [ring.jet({m: c for m, c in zip(mons, flat[k * width: (k + 1) * width])
                          if not c.is_zero()})
                for k in range(slots)]
        try:
            out.append(build(jets, True))
        except GermError:
            continue
    return out


def enumerate_group(tag: str, source: JetRing, target: JetRing, cap: int = 10 ** 7):
    """Every element of the jet group over a finite field, within the cap."""
    if not source.field.is_finite():
        raise PolyError("group enumeration needs a finite field")
    if tag not in GROUP_FACTORS:
        raise PolyError(f"unknown group {tag!r}")
    parts = [_enumerate_factor(kind, source, target, cap) for kind in GROUP_FACTORS[tag]]
    if len(parts) == 1:
        return parts[0]
    outers, rights = parts
    if len(outers) * len(rights) > cap:
        raise PolyError("group enumeration exceeds the cap")
    return [Pair(a, b) for a in outers for b in rights]


def _factor_generators(kind: str, source: JetRing, target: JetRing):
    """The identity of one group factor with its first entry times zeta, a
    primitive element, and with c*m added to one entry, m one of the
    factor's monomials other than the entry's own term and c over the
    F_p-basis 1, zeta, ..., zeta^(d-1) of F_(p^d).  Klin matrices get the
    c*x^alpha on the diagonal at the first entry only."""
    ring, identity, mons, build = factor_layout(kind, source, target)
    field = ring.field
    zeta = field.primitive_element()
    basis, span = [field.one], field.char
    while span < field.size():
        basis.append(basis[-1] * zeta)
        span *= field.char
    out = [build([identity[0].scale(zeta)] + identity[1:], False)]
    for k, entry in enumerate(identity):
        if kind == "Mat" and k and not entry.is_zero():
            continue
        for mon in mons:
            if mon in entry.coeffs:
                continue
            for c in basis:
                jets = list(identity)
                jets[k] = entry + ring.monomial(mon, c)
                out.append(build(jets, False))
    return out


def _census_generators(tag: str, source: JetRing, target: JetRing, cap: int):
    """The group elements an orbit census applies, and whether they generate
    the group (else they are the whole group, and sweeping f once suffices).

    On smooth, parameter-free source and target, a generating set S of the
    jet group (``_factor_generators`` of each factor), so that an orbit is
    the closure of one member under S; in a finite group the monoid S
    generates is the group, so no inverses are needed.  Each factor has a
    filtration by the order of agreement with the identity whose graded
    pieces are additive groups, spanned by the elements with c over an
    F_p-basis, and a linear quotient:

    * R, L: the quotient is GL_n(F_q), generated by the transvections
      x_i -> x_i + c*x_k and diag(zeta, 1, ...); the shears x_i -> x_i + c*m
      of degree >= 2 give the graded pieces;
    * C: likewise in the target variables over the joint ring, the shears
      y_i -> y_i + c*x^alpha*y^beta with |beta| >= 1 giving the graded pieces;
    * Klin: GL_m(F_q) by the constant transvections and diag(zeta, 1, ...);
      the graded pieces by the entries c*x^alpha off the diagonal and
      diag(1 + c*x^alpha, 1, ...), whose conjugates by permutation matrices
      give the other diagonal entries; the R generators give the source
      change;
    * LR, K (and the source change of Klin): the generators of each factor.
      Paired with the identity of the other factor such a generator acts
      as the bare factor, which is what the census applies.

    A ring with an ideal or parameters gets ``enumerate_group`` itself:
    elementary maps do not generate there (u <-> v preserves u*v = 0 and
    no elementary map does).
    """
    if source.ideal_gens or target.ideal_gens or source.tvars or target.tvars:
        return enumerate_group(tag, source, target, cap), False
    return [g for kind in GROUP_FACTORS[tag]
            for g in _factor_generators(kind, source, target)], True


def _map_key(f: MapGerm):
    return tuple(str(c) for c in f.components)


class OrbitCensus:
    """The base-field orbits inside an extension orbit, with sizes."""

    def __init__(self, tag: str, representatives, orbits, extension_orbit_size: int):
        self.tag = tag
        self.representatives = representatives
        self.orbits = orbits
        self.extension_orbit_size = extension_orbit_size
        keys = [k for orbit in orbits for k in orbit]
        if len(keys) != len(set(keys)):
            raise PolyError("orbit partition is not disjoint")
        self.rational_count = len(keys)

    def describe(self) -> dict:
        return {
            "group": self.tag,
            "extension_orbit_size": self.extension_orbit_size,
            "rational_members": self.rational_count,
            "orbits": [sorted(o) for o in self.orbits],
            "representatives": [[str(c) for c in r.components]
                                for r in self.representatives],
        }

    def __repr__(self):
        return (f"<census: {len(self.orbits)} orbits, "
                f"{self.rational_count} rational members>")


def orbit_split(tag: str, f: MapGerm, ext: Extension, cap: int = 10 ** 7) -> OrbitCensus:
    """Split the extension orbit of f into base-field orbits.

    The orbit of f over the extension is the closure of f under the
    elements of ``_census_generators`` over the extension; its members with
    base-field coefficients are partitioned into closures under the
    base-field elements.  Every image of a rational member must be
    rational.  ``cap`` bounds the group actions of the whole census,
    checked as it goes (a closure costs |orbit| * |elements| actions).
    Orbits are listed by their least member in ``str`` order, each with
    that member as representative.
    """
    source, target = f.source, f.target
    field = source.field
    if not field.is_finite() or not ext.top.is_finite():
        raise PolyError("orbit splitting needs finite fields on both levels")
    if ext.base != field:
        raise PolyError("extension must start at the map's field")
    if tag not in GROUP_FACTORS:
        raise PolyError(f"unknown group {tag!r}")
    actions = 0

    def closure(start: MapGerm, elements, generating: bool) -> dict:
        # the orbit keyed by MapGerm.key(): the closure of start under
        # generators, or the images of start under the whole group
        nonlocal actions
        orbit = {start.key(): start}
        frontier = [start]
        while frontier:
            fresh = []
            for member in frontier:
                actions += len(elements)
                if actions > cap:
                    raise PolyError(f"orbit census exceeds the cap of {cap} group actions")
                for g in elements:
                    moved = g.act(member)
                    key = moved.key()
                    if key not in orbit:
                        orbit[key] = moved
                        fresh.append(moved)
            frontier = fresh if generating else []
        return orbit

    source_K = extend_ring(source, ext)
    target_K = extend_ring(target, ext)
    big_orbit = closure(extend_map(f, ext, source_K, target_K),
                        *_census_generators(tag, source_K, target_K, cap))
    rational = {}
    for moved in big_orbit.values():
        down = restrict_map(moved, ext, source, target)
        if down is not None:
            rational[down.key()] = down

    elements, generating = _census_generators(tag, source, target, cap)
    remaining = set(rational)
    orbits = []
    while remaining:
        orbit = closure(rational[remaining.pop()], elements, generating)
        if any(key not in rational for key in orbit):
            raise PolyError("base-field action left the rational locus")
        remaining -= set(orbit)
        orbits.append(sorted(orbit.values(), key=_map_key))
    orbits.sort(key=lambda members: _map_key(members[0]))
    return OrbitCensus(tag, [members[0] for members in orbits],
                       [[_map_key(m) for m in members] for members in orbits],
                       len(big_orbit))
