"""depth-bounds-q: certified depth-comparison bounds over Q.

Each question asks comparison_bound for one cell of the acceptance grid
(four base maps, groups R, Klin and LR, levels 1 and 2) at jet order 6,
and also 5 for the one-variable maps, on the base map plus c*v^N (v the
last variable, N the jet order) with a seeded coefficient c that differs
from round to round, so no two questions share a map.
The bound 7 at order 6 that two LR level-2 cells give is a correct
answer.

The check re-derives every certificate with sympy's DomainMatrix rref,
never with germ.jets.rref: the certified vectors must be independent, lie
in the level-j tangent image with exactly the stated coordinates, and
vanish below the bound.  On a seeded quarter of the questions it also
checks that they span the whole intersection of the full tangent image
with the order >= bound subspace, and that one order lower that
intersection does not fit inside the level-j image, so the bound is the
least one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from germ.exactfield import Rationals
from germ.germs import MapGerm
from germ.jets import JetRing, filtration_make
from germ.tangent import comparison_bound, tangent_space

from gen import small_rational

# (source variables, components, jet orders).  Two thirds of the cells are
# the cheap one-variable ones, so the median latency falls inside their
# narrow cluster and not in the gap before the two-variable cells, which
# carry most of the time and the p90.
BASE_MAPS = [
    (("x",), ("x^2",), (5, 6)),
    (("x",), ("x^3",), (5, 6)),
    (("x", "y"), ("x^2", "y^3"), (6,)),
    (("x", "y"), ("x", "y^3+x*y"), (6,)),
]
TAGS = ("R", "Klin", "LR")
LEVELS = (1, 2)
AUDIT_SHARE = 0.25


@dataclass
class Question:
    tag: str
    level: int
    key: tuple
    f: MapGerm
    audit: bool     # also check that the bound is complete and least


class Workload:
    name = "depth-bounds-q"
    trace_rounds = 1

    def __init__(self):
        self.Q = Rationals()
        self.rings = {}
        for xv, exprs, orders in BASE_MAPS:
            for order in orders:
                key = (xv, exprs, order)
                R = JetRing(self.Q, xv, order)
                T = JetRing(self.Q, ("u", "v")[:len(exprs)], order)
                self.rings[key] = (R, T, filtration_make(R, "madic"))
        self.strata = [(key, tag, j) for key in self.rings
                       for tag in TAGS for j in LEVELS]

    def round(self, rng, index):
        questions = []
        for key, tag, j in self.strata:
            R, T, _ = self.rings[key]
            comps = [R.from_expr(e) for e in key[1]]
            # c * v^N on the last component, v the last variable: the same
            # singularity type and the same shape of work in every round,
            # with a coefficient that differs between rounds (|r| <= 3)
            top = R.var(R.xvars[-1]) ** R.order
            c = small_rational(self.Q, rng) + self.Q.from_int(10 * index)
            comps[-1] = comps[-1] + top.scale(c)
            questions.append(Question(tag, j, key, MapGerm(R, T, comps),
                                      audit=rng.random() < AUDIT_SHARE))
        rng.shuffle(questions)
        return questions

    def answer(self, q):
        return comparison_bound(q.tag, q.f, q.level, self.rings[q.key][2])

    def check(self, q, a):
        from sympy import QQ

        if not a.found:
            return "no bound found"
        R, _, madic = self.rings[q.key]
        ctx = q.f.context()
        sub = _matrix(tangent_space(q.tag, q.f, q.level, madic).images)
        reduced, pivots = sub.rref()
        basis = [reduced.rep.to_sdm().get(i, {}) for i in range(len(pivots))]
        d = a.bound

        vectors = []
        for cert in a.certificates:
            jets = tuple(R.zero if s == "0" else R.from_expr(s)
                         for s in cert["vector"])
            vec = ctx.to_vec(jets)
            if any(not c.is_zero() and madic.mon_order(R.monomials[p % R.dim]) < d
                   for p, c in enumerate(vec)):
                return f"certified vector has order below {d}"
            coords = [QQ.convert(Fraction(s)) for s in cert["coordinates"]]
            if len(coords) != len(basis):
                return "coordinate count differs from the level-j rank"
            combo = {}
            for c, row in zip(coords, basis):
                if c:
                    for p, e in row.items():
                        combo[p] = combo.get(p, QQ.zero) + c * e
            if {p: e for p, e in combo.items() if e} != _sparse(vec):
                return "certificate coordinates do not recombine to the vector"
            vectors.append(vec)

        if vectors and _rank(_matrix(vectors)) != len(vectors):
            return "certified vectors are dependent"
        if not q.audit:
            return None
        full = _matrix(tangent_space(q.tag, q.f, 0, madic).images)
        if _rank(full.vstack(sub)) != _rank(full):
            return "level-j image is not inside the full image"
        outside = _outside(R, madic, ctx.dim, d)
        if len(vectors) != _meet_dim(full, outside):
            return "certificates do not span the order->=bound part"
        if d > 1:
            below = _outside(R, madic, ctx.dim, d - 1)
            if _meet_dim(full, below) == _meet_dim(sub, below):
                return f"bound {d} is not the least one"
        return None


def _sparse(vec):
    from sympy import QQ

    return {p: QQ(c.rep.numerator, c.rep.denominator)
            for p, c in enumerate(vec) if not c.is_zero()}


def _matrix(vectors):
    rows = {i: _sparse(v) for i, v in enumerate(vectors)}
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    ncols = len(vectors[0]) if vectors else 0
    return DomainMatrix({i: r for i, r in rows.items() if r},
                        (len(vectors), ncols), QQ)


def _rank(m):
    return m.rank() if m.shape[0] else 0


def _outside(R, madic, dim, d):
    return [p for p in range(dim) if madic.mon_order(R.monomials[p % R.dim]) < d]


def _meet_dim(m, outside):
    """dim(rowspace(m) meet {v : v vanishes on ``outside``})."""
    if not m.shape[0]:
        return 0
    if not outside:
        return _rank(m)
    return _rank(m) - _rank(m.extract(list(range(m.shape[0])), outside))
