"""Descending equivalences from a field extension to the base field.

Two maps that become equivalent over an extension field, under a group
element of positive level, are already equivalent below, and a witness
can be computed by peeling: at each step the residual between the target
map and the current image is matched, modulo deeper filtration terms, by
a tangent combination at the base map.  The matching is a finite linear
system over the base field; solvability over the extension forces
solvability below, which is why no extension arithmetic appears in the
loop itself.  Exponentials of the solved combinations then push the
residual strictly deeper, and the product of the steps is the witness.

The same loop trivializes one-parameter families: after normalizing away
the central fiber's part of a witness, the remaining element has
positive level for the parameter-adic filtration and the peeling runs
with the family parameter as the depth variable.
"""

from __future__ import annotations

import random
from typing import Optional

from .jets import Jet, Filtration, filtration_make, nullspace
from .germs import (
    MapGerm, GroupElement, group_level, extend_ring, extend_map, identity_element, map_jets,
)
from .tangent import tangent_space


class DescentError(ValueError):
    pass


def verify_witness(element: GroupElement, f: MapGerm, f_tilde: MapGerm) -> dict:
    """Check act(element, f) == f_tilde; report the difference if not."""
    moved = element.act(f)
    diff = [a - b for a, b in zip(moved.components, f_tilde.components)]
    ok = all(d.is_zero() for d in diff)
    report = {"ok": ok}
    if not ok:
        madic = filtration_make(f.source, "madic")
        report["difference"] = [str(d) for d in diff]
        order = madic.order_of(tuple(diff))
        report["difference_order"] = None if order == float("inf") else int(order)
        ring = f.source
        for d in diff:
            if d.is_zero():
                continue
            mon = min((m for m in d.coeffs), key=ring.mon_index.__getitem__)
            report["mismatch_at"] = ring.mon_str(mon)
            break
    return report


class DescentProblem:
    """Equivalence data to be descended: maps over the base field, the
    filtration and level, and optionally the extension witness."""

    def __init__(self, tag: str, f: MapGerm, f_tilde: MapGerm, filt: Filtration,
                 level: int, ext=None, witness: Optional[GroupElement] = None):
        if level < 1:
            raise DescentError("descent needs level at least 1")
        if f.source != f_tilde.source or f.target != f_tilde.target:
            raise DescentError("the two maps must share source and target")
        if filt.ring != f.source:
            raise DescentError("filtration is attached to a different ring")
        self.tag = tag
        self.f = f
        self.f_tilde = f_tilde
        self.filt = filt
        self.level = level
        self.ext = ext
        self.witness = witness
        if witness is not None:
            self._check_witness()

    def _check_witness(self):
        if self.witness.tag != self.tag:
            raise DescentError(
                f"witness is a {self.witness.tag} element, problem is {self.tag}")
        if self.ext is None:
            fK, gK, filtK = self.f, self.f_tilde, self.filt
            source_K, target_K = self.f.source, self.f.target
        else:
            # the witness lives over the extension already
            source_K = extend_ring(self.f.source, self.ext)
            target_K = extend_ring(self.f.target, self.ext)
            fK = extend_map(self.f, self.ext, source_K, target_K)
            gK = extend_map(self.f_tilde, self.ext, source_K, target_K)
            filtK = self.filt.with_ring(source_K)
        wK = self.witness
        report = verify_witness(wK, fK, gK)
        if not report["ok"]:
            raise DescentError(
                "witness action mismatch at coefficient "
                + report.get("mismatch_at", "?"))
        wl = group_level(wK, source_K, target_K, filtK)
        if wl < self.level:
            raise DescentError(
                f"witness has level {wl}, below the requested {self.level}")


class DescentCertificate:
    def __init__(self, tag: str, witness: GroupElement, steps, verified: bool):
        self.tag = tag
        self.witness = witness
        self.steps = steps
        self.verified = verified

    def describe(self):
        return {
            "group": self.tag,
            "witness": self.witness.describe(),
            "steps": self.steps,
            "verified": self.verified,
        }


def _order_pair(filt: Filtration, madic: Filtration, comps):
    of = filt.order_of(comps)
    om = madic.order_of(comps)
    fmt = lambda o: None if o == float("inf") else int(o)
    return fmt(of), fmt(om)


def descend(problem: DescentProblem) -> DescentCertificate:
    """Produce a base-field witness carrying f to f_tilde, by peeling.

    Raises when a residual cannot be matched by the level-j tangent frame
    at f modulo deeper terms.  In characteristic zero that cannot happen
    with a valid extension witness of the same level, so the failure is a
    jet-level obstruction.  In characteristic p it is not (over F2,
    x -> x+x^2 carries x^2 to x^2+x^4, yet the tangent image at x^2 is 0
    since d/dx x^2 = 2x), so the question is left undecided.
    """
    f, f_tilde, filt, j = problem.f, problem.f_tilde, problem.filt, problem.level
    source = f.source
    madic = filt if filt.kind == "madic" else filtration_make(source, "madic")
    ord_f = filt.order_of(f.components)
    ord_g = filt.order_of(f_tilde.components)
    if ord_f != ord_g:
        raise DescentError(
            f"jet-level obstruction: filtration orders differ ({ord_f} vs {ord_g})")

    frame = tangent_space(problem.tag, f, j, filt)
    ctx = frame.context
    current = f_tilde
    acc = None
    steps = []
    top = filt.vanishing_depth()
    prev_order = None
    for k in range(top + 2):
        diff = [a - b for a, b in zip(current.components, f.components)]
        if all(d.is_zero() for d in diff):
            break
        of, om = _order_pair(filt, madic, tuple(diff))
        if prev_order is not None and of <= prev_order:
            raise DescentError("descent loop failed to contract the residual")
        prev_order = of
        d = of - (0 if ord_f == float("inf") else int(ord_f))
        cutoff = (0 if ord_f == float("inf") else int(ord_f)) + d + j
        coeffs = frame.solve_mod(ctx.to_vec(tuple(diff)), cutoff)
        if coeffs is None:
            char = source.field.char
            what = "jet-level obstruction" if char == 0 else f"undecided in characteristic {char}"
            raise DescentError(
                f"{what}: residual of order {of} is outside "
                f"the level-{j} tangent image modulo order {cutoff}")
        step = frame.element_from([-c for c in coeffs])
        current = step.act(current)
        steps.append({
            "residual_order": of,
            "residual_order_madic": om,
            "orders_differ": of != om,
            "solved_modulo": cutoff,
        })
        acc = step if acc is None else step.compose(acc)
    else:
        raise DescentError("descent did not terminate")  # pragma: no cover

    if acc is None:
        witness = identity_element(problem.tag, f.source, f.target)
    else:
        witness = acc.inverse()
    report = verify_witness(witness, f, f_tilde)
    if not report["ok"]:
        raise DescentError(f"internal check failed after descent: {report}")
    return DescentCertificate(problem.tag, witness, steps, True)


# -- stabilizer sampling ----------------------------------------------------

def stabilizer_sample(tag: str, f: MapGerm, j: int, filt: Filtration,
                      seed: int = 0) -> GroupElement:
    """A random level-j group element fixing f exactly.

    Samples the kernel of the tangent evaluation, one group factor at a
    time; a vector killed by f exponentiates to an exact stabilizer, and
    factor stabilizers assemble into one for the composite group.  Needs
    characteristic zero.
    """
    if f.source.field.char != 0:
        raise DescentError("stabilizer sampling needs characteristic zero")
    if j < 1:
        raise DescentError("stabilizer sampling needs level at least 1")
    rng = random.Random(seed)
    frame = tangent_space(tag, f, j, filt)
    field = f.source.field
    coeffs = [field.zero] * len(frame.entries)
    for kind in sorted({e.kind for e in frame.entries}):
        idx = [i for i, e in enumerate(frame.entries) if e.kind == kind]
        kernel = nullspace(zip(*(frame.images[i] for i in idx)), len(idx), field)
        if not kernel:
            continue
        combo = None
        for vec in kernel:
            c = field.from_int(rng.randint(-3, 3))
            if c.is_zero():
                continue
            piece_coeffs = [c * v for v in vec]
            if combo is None:
                combo = piece_coeffs
            else:
                combo = [a + b for a, b in zip(combo, piece_coeffs)]
        if combo is None:
            combo = list(kernel[0])
        for c, i in zip(combo, idx):
            coeffs[i] = c
    element = frame.element_from(coeffs)
    report = verify_witness(element, f, f)
    if not report["ok"]:
        raise DescentError(f"sampled element does not stabilize: {report}")
    return element


# -- families ---------------------------------------------------------------

def _t0_jet(jet: Jet) -> Jet:
    ring = jet.ring
    nx = ring.nx
    keep = {mon: c for mon, c in jet.coeffs.items()
            if all(e == 0 for e in mon[nx:])}
    return ring.jet(keep)


def central_fiber(f: MapGerm) -> MapGerm:
    """The family at parameter zero, kept inside the family ring."""
    return MapGerm(f.source, f.target, [_t0_jet(c) for c in f.components],
                   validate=False)


def element_t_slice(element: GroupElement) -> GroupElement:
    """The parameter-zero slice of a group element, in the family ring."""
    return map_jets(element, lambda jet, ring: _t0_jet(jet))


def family_trivialize(tag: str, f_family: MapGerm, ext=None,
                      witness: Optional[GroupElement] = None) -> DescentCertificate:
    """A base-field element carrying the family to its central fiber.

    ``witness`` trivializes the family over the extension: acting on the
    family gives the central fiber.  Normalizing by its own central slice
    leaves an element of positive parameter-adic level, whose descent
    problem is solved over the base field; the certificate's witness g
    satisfies act(g, family) = central fiber.
    """
    source = f_family.source
    if not source.tvars:
        raise DescentError("family trivialization needs family parameters")
    f0 = central_fiber(f_family)
    tadic = filtration_make(source, "tadic")

    descent_witness = None
    if witness is not None:
        h = element_t_slice(witness)
        # slicing the trivialization at parameter zero shows h fixes the
        # central fiber, so h^{-1} . witness still trivializes and is the
        # identity at parameter zero
        gprime = h.inverse().compose(witness)
        descent_witness = gprime.inverse()
    problem = DescentProblem(tag, f0, f_family, tadic, 1, ext=ext, witness=descent_witness)
    cert = descend(problem)
    g = cert.witness.inverse()
    report = verify_witness(g, f_family, f0)
    if not report["ok"]:
        raise DescentError(f"internal check failed after trivialization: {report}")
    return DescentCertificate(tag, g, cert.steps, True)
