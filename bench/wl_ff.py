"""ff-solve: equivalence questions over finite and function fields.

A round holds one question per stratum:

* search: compile_system for R, L or LR between u*x^2 and a seeded
  w*x^2 (for LR over F5 also an x term, which no group element can
  produce) over F3 or F5 at jet order 2; brute_solve over the base field,
  over F9/F25 with and without the base-point domain, and for R and L over
  F3 also over F27; groebner_inconsistent on the same system.
* inseparable: compile_system for R, L and LR between x^3 and x^3+s^k*x^6
  over F3(s) at jet order 6, and the p-th power test on the coefficient
  that blocks R (the cube-root obstruction of the acceptance suite).
* surrogate: the same question over F27 with s replaced by c^k outside
  F3, searched over the embedded base points, where it has no solution.
* orbits: orbit_split of u*x^2 for R or L under F9/F3 or F25/F5.

Checks: every solution re-verifies as a witness; the base-point search
agrees with the base-field search; each Groebner verdict is refereed by
exhaustive search over the field and its degree-2 and degree-3
extensions; a seeded eighth of the orbit censuses is recomputed by
direct enumeration of the extension group.
"""

from __future__ import annotations

from dataclasses import dataclass

from germ.descent import verify_witness
from germ.exactfield import is_pth_power, make_extension, make_field
from germ.germs import MapGerm, extend_map, extend_ring, restrict_map
from germ.jets import JetRing
from germ.polysys import (
    assemble_witness, brute_solve, compile_system, enumerate_group,
    extend_system, groebner_inconsistent, orbit_split,
)

MINPOLYS = {3: ("b^2+1", "c^3+2*c+1"), 5: ("b^2+2", "c^3+c+1")}
SEARCH = [(p, tag) for p in (3, 5) for tag in ("R", "L", "LR")]
# the stratum whose target also gets an x term, in every round
OFFSET = (5, "LR")
ORBITS = [(p, tag) for p in (3, 5) for tag in ("R", "L")]
CUBE_FREE = (1, 2, 4, 5)
AUDIT_SHARE = 0.125


@dataclass
class Question:
    kind: str
    p: int
    tag: str = ""
    f: MapGerm = None
    ft: MapGerm = None
    k: int = 0
    searches: tuple = ()
    enumerate_check: bool = False


class Prime:
    """F_p with its degree-2 and degree-3 extensions and order-2 jets."""

    def __init__(self, p):
        self.F = make_field(f"F{p}")
        self.ext2 = make_extension(self.F, MINPOLYS[p][0])
        self.ext3 = make_extension(self.F, MINPOLYS[p][1])
        self.R = JetRing(self.F, ["x"], 2)
        self.T = JetRing(self.F, ["y"], 2)
        self.units = [e for e in self.F.elements() if not e.is_zero()]

    def quadric(self, coeff, linear=None):
        jet = self.R.jet({(2,): coeff})
        if linear is not None:
            jet = jet + self.R.jet({(1,): linear})
        return MapGerm(self.R, self.T, [jet])


class Workload:
    name = "ff-solve"
    trace_rounds = 3

    def __init__(self):
        self.primes = {p: Prime(p) for p in (3, 5)}
        self.F3s = make_field("F3(s)")
        self.R6s = JetRing(self.F3s, ["x"], 6)
        self.T6s = JetRing(self.F3s, ["y"], 6)
        ext27 = self.primes[3].ext3
        self.R6c = JetRing(ext27.top, ["x"], 6)
        self.T6c = JetRing(ext27.top, ["y"], 6)

    def round(self, rng, index):
        questions = []
        for p, tag in SEARCH:
            P = self.primes[p]
            u, w = rng.choice(P.units), rng.choice(P.units)
            offset = (p, tag) == OFFSET
            ft = P.quadric(w, rng.choice(P.units) if offset else None)
            searches = ["base", "ext2-points"]
            if tag != "LR":
                searches.append("ext2")
                if p == 3:
                    searches.append("ext3")
            questions.append(Question("search", p, tag, P.quadric(u), ft,
                                      searches=tuple(searches)))
        k = rng.choice(CUBE_FREE)
        questions.append(Question("inseparable", 3, k=k))
        questions.append(Question("surrogate", 3, k=k))
        for p, tag in ORBITS:
            P = self.primes[p]
            questions.append(Question("orbits", p, tag, P.quadric(rng.choice(P.units)),
                                      enumerate_check=rng.random() < AUDIT_SHARE))
        rng.shuffle(questions)
        return questions

    # -- answers -----------------------------------------------------------

    def answer(self, q):
        if q.kind == "search":
            P = self.primes[q.p]
            system = compile_system(q.tag, q.f, q.ft)
            found = {}
            for s in q.searches:
                if s == "base":
                    found[s] = brute_solve(system)
                elif s == "ext2-points":
                    found[s] = brute_solve(system, field=P.ext2.top,
                                           domain=_embedded(P.ext2, P.F))
                else:
                    ext = P.ext2 if s == "ext2" else P.ext3
                    found[s] = brute_solve(system, field=ext.top)
            return system, found, groebner_inconsistent(system)
        if q.kind == "inseparable":
            f = MapGerm(self.R6s, self.T6s, [self.R6s.from_expr("x^3")])
            ft = MapGerm(self.R6s, self.T6s,
                         [self.R6s.from_expr(f"x^3+s^{q.k}*x^6")])
            systems = {tag: compile_system(tag, f, ft) for tag in ("R", "L", "LR")}
            blocker = self.F3s.generator ** q.k
            return systems, is_pth_power(blocker, 3)
        if q.kind == "surrogate":
            ext27 = self.primes[3].ext3
            f = MapGerm(self.R6c, self.T6c, [self.R6c.from_expr("x^3")])
            ft = MapGerm(self.R6c, self.T6c,
                         [self.R6c.from_expr(f"x^3+c^{q.k}*x^6")])
            system = compile_system("R", f, ft)
            return system, brute_solve(system, domain=_embedded(ext27, ext27.base))
        P = self.primes[q.p]
        return orbit_split(q.tag, q.f, P.ext2)

    # -- checks ------------------------------------------------------------

    def check(self, q, a):
        return getattr(self, "_check_" + q.kind)(q, a)

    def _check_search(self, q, a):
        P = self.primes[q.p]
        system, found, report = a
        for s, sols in found.items():
            ext = {"ext2": P.ext2, "ext2-points": P.ext2, "ext3": P.ext3}.get(s)
            lifted = system if ext is None else extend_system(system, ext)
            for sol in sols:
                witness, rep = assemble_witness(lifted, sol)
                lay = lifted.layout
                if not rep["ok"] or not verify_witness(witness, lay["f"],
                                                       lay["f_tilde"])["ok"]:
                    return f"{s} solution does not re-verify"
        base = {_key({n: P.ext2.embed(v) for n, v in sol.items()})
                for sol in found["base"]}
        if {_key(sol) for sol in found["ext2-points"]} != base:
            return "base-point search disagrees with the base-field search"
        solvable = _solvable_up_to_cubic(system, P)
        if report.inconsistent is None or report.inconsistent == solvable:
            return (f"groebner says {report.status}, exhaustive search "
                    f"{'finds' if solvable else 'finds no'} zero")
        return None

    def _check_inseparable(self, q, a):
        systems, root = a
        shapes = [{systems["R"].ring.mon_str(m): str(c) for m, c in eq.coeffs.items()}
                  for eq in systems["R"].equations]
        power = "s" if q.k == 1 else f"s^{q.k}"
        if {"a2^3": "1", "a1^6": power} not in shapes:
            return "R system lacks the cube-root equation"
        if root is not None:
            return "s^k with 3 not dividing k reported as a cube"
        return None

    def _check_surrogate(self, q, a):
        system, sols = a
        ext27 = self.primes[3].ext3
        points = _embedded(ext27, ext27.base)
        if sols or _has_zero(system.equations, system.occurring(), points):
            return "surrogate has a solution at base points"
        return None

    def _check_orbits(self, q, a):
        P = self.primes[q.p]
        keys = {k for orbit in a.orbits for k in orbit}
        if tuple(str(c) for c in q.f.components) not in keys:
            return "the map is missing from its own census"
        if not q.enumerate_check:
            return None
        src, tgt = extend_ring(P.R, P.ext2), extend_ring(P.T, P.ext2)
        fK = extend_map(q.f, P.ext2, src, tgt)
        seen = set()
        for g in enumerate_group(q.tag, src, tgt):
            down = restrict_map(g.act(fK), P.ext2, P.R, P.T)
            if down is not None:
                seen.add(tuple(str(c) for c in down.components))
        return None if seen == keys else "census differs from direct enumeration"


def _embedded(ext, base):
    return [ext.embed(e) for e in base.elements()]


def _key(sol):
    return tuple(sorted((n, str(v)) for n, v in sol.items()))


def _has_zero(equations, names, values):
    """Exhaustive search for a common zero with coordinates in ``values``.

    Depth first, each equation tested as soon as its unknowns are all
    assigned, so a branch that already violates one is cut without losing
    completeness.  Unknowns are taken greedily in the order that completes
    the most equations first.
    """
    used = [eq.names_used() for eq in equations]
    if any(not u and not eq.is_zero() for u, eq in zip(used, equations)):
        return False    # a nonzero constant has no zero over any field
    order, done = [], set()
    while len(order) < len(names):
        best = max((n for n in names if n not in done),
                   key=lambda n: sum(1 for u in used if n in u and u <= done | {n}))
        order.append(best)
        done.add(best)
    due = [[] for _ in order]
    for u, eq in zip(used, equations):
        if u:
            due[max(order.index(n) for n in u)].append(eq)
    env = {}

    def extend(i):
        if i == len(order):
            return True
        for v in values:
            env[order[i]] = v
            if all(eq.evaluate(env).is_zero() for eq in due[i]) and extend(i + 1):
                return True
        del env[order[i]]
        return False

    return extend(0)


def _solvable_up_to_cubic(system, P):
    """Exhaustive referee: a zero over F_p, F_p^2 or F_p^3.  Every
    consistent system of this workload has one there."""
    names = system.occurring()
    if _has_zero(system.equations, names, list(P.F.elements())):
        return True
    for ext in (P.ext2, P.ext3):
        lifted = extend_system(system, ext)
        if _has_zero(lifted.equations, names, list(ext.top.elements())):
            return True
    return False
