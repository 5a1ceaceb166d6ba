"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass line with its own elapsed time and fails
if the correctness claims or the time limit are violated.  The grids are
deterministic: every randomized construction is seeded.
"""

import itertools
import random
import time

from germ.exactfield import Rationals, is_pth_power, make_extension, make_field
from germ.jets import (
    JetRing, VectorContext, SubspaceBasis, filtration_make, membership,
)
from germ.germs import (
    JetMatrix,
    LeftAut,
    MapGerm,
    Pair,
    RightAut,
    extend_element,
    extend_jet,
    extend_map,
    extend_ring,
    group_level,
    product_ring,
    restrict_map,
)
from germ.tangent import (
    ContactVector,
    DerVector,
    MatVector,
    TargetDerVector,
    comparison_bound,
    exp_combination,
    log_element,
    tangent_space,
    vector_level,
)
from germ.descent import (
    DescentProblem,
    central_fiber,
    descend,
    family_trivialize,
    verify_witness,
)
from germ.polysys import (
    PolyRing,
    assemble_witness,
    brute_solve,
    compile_system,
    enumerate_group,
    extend_system,
    groebner_inconsistent,
    orbit_split,
)

Q = Rationals()


def _finish(num, label, t0, limit):
    elapsed = time.perf_counter() - t0
    print(f"criterion {num}: {label}: PASS in {elapsed:.2f}s (limit {limit}s)")
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"


def _rat(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 2, 3])
    return Q.from_int(num) / Q.from_int(den)


def _rand_jet(ring, rng, min_deg, density=0.5):
    coeffs = {}
    for mon in ring.monomials:
        if sum(mon) < min_deg:
            continue
        if rng.random() < density:
            coeffs[mon] = _rat(rng)
    if not coeffs:
        for mon in ring.monomials:
            if sum(mon) == min_deg:
                coeffs[mon] = _rat(rng)
                break
    return ring.jet(coeffs)


def test_01_quadratic_squash_solvable_only_upstairs():
    t0 = time.perf_counter()
    F3 = make_field("F3")
    R2 = JetRing(F3, ["x"], 2)
    T2 = JetRing(F3, ["y"], 2)
    f = MapGerm(R2, T2, [R2.from_expr("x^2")])
    ft = MapGerm(R2, T2, [R2.from_expr("2*x^2")])
    S = compile_system("R", f, ft)

    assert brute_solve(S) == []

    ext9 = make_extension(F3, "b^2+1")
    sols = brute_solve(S, field=ext9.top)
    assert len(sols) >= 1
    SK = extend_system(S, ext9)
    w, rep = assemble_witness(SK, sols[0])
    assert rep["ok"]
    assert verify_witness(w, SK.layout["f"], SK.layout["f_tilde"])["ok"]

    assert groebner_inconsistent(S).inconsistent is False
    _finish(1, "quadratic squash over F3 vs F9", t0, 1)


def test_02_inseparable_obstruction_and_finite_surrogate():
    t0 = time.perf_counter()
    F3s = make_field("F3(s)")
    R6 = JetRing(F3s, ["x"], 6)
    T6 = JetRing(F3s, ["y"], 6)
    f = MapGerm(R6, T6, [R6.from_expr("x^3")])
    ft = MapGerm(R6, T6, [R6.from_expr("x^3+s*x^6")])
    S = compile_system("R", f, ft)
    shapes = [{S.ring.mon_str(m): str(c) for m, c in eq.coeffs.items()}
              for eq in S.equations]
    assert {"a2^3": "1", "a1^6": "s"} in shapes
    assert is_pth_power(F3s.generator_env()["s"], 3) is None

    F3 = make_field("F3")
    ext27 = make_extension(F3, "c^3+2*c+1")
    R6c = JetRing(ext27.top, ["x"], 6)
    T6c = JetRing(ext27.top, ["y"], 6)
    fc = MapGerm(R6c, T6c, [R6c.from_expr("x^3")])
    ftc = MapGerm(R6c, T6c, [R6c.from_expr("x^3+c*x^6")])
    Sc = compile_system("R", fc, ftc)
    embedded = [ext27.embed(e) for e in F3.elements()]
    assert brute_solve(Sc, domain=embedded) == []
    full = brute_solve(Sc, limit=1)
    assert len(full) == 1
    wc, repc = assemble_witness(Sc, full[0])
    assert repc["ok"]
    _finish(2, "cube-root obstruction, with its F27 surrogate", t0, 5)


_DESCENT_MAPS = [
    (["x"], ("x^2",), 4),
    (["x"], ("x^3",), 4),
    (["x"], ("x^2+x^3",), 4),
    (["x"], ("x^2", "x^3"), 4),
    (["x", "y"], ("x^2+y^2",), 3),
    (["x", "y"], ("x*y", "x^2-y^2"), 3),
    (["x", "y"], ("x", "y^2+x*y"), 3),
]


def _level_j_element(tag, R, T, j, rng):
    parts = {"R": DerVector(R, [_rand_jet(R, rng, j + 1) for _ in R.xvars])}
    if tag == "LR":
        parts["L"] = TargetDerVector(
            T, [_rand_jet(T, rng, j + 1) for _ in T.xvars])
    if tag == "Klin":
        m = len(T.xvars)
        parts["Mat"] = MatVector(
            R, T, [[_rand_jet(R, rng, j, density=0.3) for _ in range(m)]
                   for _ in range(m)])
    return exp_combination(tag, parts, R, T)


def _irrational_stabilizer(tag, RK, TK, order, gen_jet):
    comps = [RK.var(n) for n in RK.xvars]
    comps[0] = comps[0] + gen_jet * RK.var(RK.xvars[0]) ** order
    sigma = RightAut(RK, comps)
    if tag == "R":
        return sigma
    if tag == "LR":
        return Pair(LeftAut.identity(TK), sigma)
    return Pair(JetMatrix.identity(RK, TK), sigma)


def test_03_extension_witnesses_descend_for_every_group():
    t0 = time.perf_counter()
    ext = make_extension(Q, "a^2-2")
    for tag in ("R", "Klin", "LR"):
        count = 0
        for xv, exprs, order in _DESCENT_MAPS:
            tv = ["u", "v"][:len(exprs)]
            R = JetRing(Q, xv, order)
            T = JetRing(Q, tv, order)
            f = MapGerm(R, T, [R.from_expr(e) for e in exprs])
            madic = filtration_make(R, "madic")
            RK = extend_ring(R, ext)
            TK = extend_ring(T, ext)
            gen = RK.jet({RK.unit_mon: ext.top.generator_env()["a"]})
            deep = madic.order_of(f.components) >= 2
            for j in (1, 2):
                for seed in range(8):
                    rng = random.Random(10_000 * j + 100 * seed + order)
                    g = _level_j_element(tag, R, T, j, rng)
                    ft = g.act(f)
                    wK = extend_element(g, ext, RK, TK)
                    if deep and seed % 2:
                        wK = wK.compose(
                            _irrational_stabilizer(tag, RK, TK, order, gen))
                    cert = descend(DescentProblem(
                        tag, f, ft, madic, j, ext=ext, witness=wK))
                    assert cert.verified
                    assert verify_witness(cert.witness, f, ft)["ok"]
                    orders = [s["residual_order"] for s in cert.steps]
                    for p, q in zip(orders, orders[1:]):
                        assert q - p >= j, (tag, exprs, j, seed, orders)
                    count += 1
        assert count >= 100, (tag, count)
    _finish(3, "100+ descents per group, peel gap >= level", t0, 60)


def test_04_logarithm_inverts_the_exponential_exactly():
    t0 = time.perf_counter()
    rings = [(["x"], 5), (["x"], 4), (["x", "y"], 3), (["x", "y"], 4)]
    trips = 0

    for i in range(60):
        xv, order = rings[i % len(rings)]
        rng = random.Random(i)
        R = JetRing(Q, xv, order)
        T = JetRing(Q, ["u"], order)
        madic = filtration_make(R, "madic")
        v = DerVector(R, [_rand_jet(R, rng, 2) for _ in xv])
        g = v.exp()
        rec = log_element(g)["R"]
        assert all((a - b).is_zero() for a, b in zip(rec.comps, v.comps))
        assert group_level(g, R, T, madic) >= vector_level(v, R, T, madic)
        trips += 1

    for i in range(20):
        rng = random.Random(1000 + i)
        R = JetRing(Q, ["x"], 4)
        T = JetRing(Q, ["u", "v"], 4)
        madic = filtration_make(R, "madic")
        mv = MatVector(R, T, [[_rand_jet(R, rng, 1, density=0.4)
                               for _ in range(2)] for _ in range(2)])
        pair = mv.exp()
        rec = log_element(pair)["Mat"]
        assert all((a - b).is_zero()
                   for ra, rb in zip(rec.rows, mv.rows)
                   for a, b in zip(ra, rb))
        assert group_level(pair, R, T, madic) >= vector_level(mv, R, T, madic)
        trips += 1

    for i in range(20):
        rng = random.Random(2000 + i)
        R = JetRing(Q, ["x"], 4)
        T = JetRing(Q, ["u"], 4)
        madic = filtration_make(R, "madic")
        joint = product_ring(R, T)
        upos = [joint.variables.index(n) for n in T.xvars]
        coeffs = {}
        for mon in joint.monomials:
            if sum(mon) < 2 or all(mon[p] == 0 for p in upos):
                continue
            if rng.random() < 0.4:
                coeffs[mon] = _rat(rng)
        comp = joint.jet(coeffs) if coeffs else joint.from_expr("x*u")
        cv = ContactVector(R, T, [comp], joint=joint)
        g = cv.exp()
        rec = log_element(g)["C"]
        assert all((a - b).is_zero() for a, b in zip(rec.comps, cv.comps))
        assert group_level(g, R, T, madic) >= vector_level(cv, R, T, madic)
        trips += 1

    # a singular target, the union of the axes uv = 0: target-side vectors
    # u*a d/du + v*b d/dv keep the ideal, and both levels probe only the
    # monomial tuples that respect it
    for i in range(20):
        rng = random.Random(3000 + i)
        xv, order = [(["x"], 4), (["x", "y"], 3)][i % 2]
        R = JetRing(Q, xv, order)
        T = JetRing(Q, ["u", "v"], order, ideal=[{(1, 1): Q.one}])
        madic = filtration_make(R, "madic")
        if i % 4 < 2:
            ring, kind = T, "L"
        else:
            ring, kind = product_ring(R, T), "C"
        comps = [ring.var(n) * _rand_jet(ring, rng, rng.choice((1, 2)))
                 for n in T.xvars]
        vec = (TargetDerVector(T, comps) if kind == "L"
               else ContactVector(R, T, comps, joint=ring))
        g = vec.exp()
        rec = log_element(g)[kind]
        assert all((a - b).is_zero() for a, b in zip(rec.comps, vec.comps))
        assert group_level(g, R, T, madic) >= vector_level(vec, R, T, madic)
        trips += 1

    assert trips == 120
    _finish(4, "120 exact exp/log round trips", t0, 10)


def _depth_map(xv, exprs, order):
    tv = ["u", "v"][:len(exprs)]
    R = JetRing(Q, xv, order)
    T = JetRing(Q, tv, order)
    f = MapGerm(R, T, [R.from_expr(e) for e in exprs])
    return f, filtration_make(R, "madic")


def _check_certificates(cb, frame):
    R = frame.context.ring
    for cert in cb.certificates:
        jets = tuple(R.zero if s == "0" else R.from_expr(s)
                     for s in cert["vector"])
        coords = frame.basis.membership(frame.context.to_vec(jets))
        assert coords is not None
        assert [str(c) for c in coords] == cert["coordinates"]


def _escapes_level(frame0, framej, madic, d):
    """Whether some full-tangent vector of order >= d lies outside the
    level-j tangent, i.e. whether depth d is too small."""
    monset = {mon for mon in madic.ring.monomials if madic.mon_order(mon) >= d}
    inter = frame0.basis.intersect_positions(frame0.context.positions_in(monset))
    return any(membership(row, framej.basis) is None for row in inter.rows)


def test_05_depth_comparison_bounds_are_found_and_certified():
    t0 = time.perf_counter()
    cases = [
        (["x"], ("x^2",)),
        (["x"], ("x^3",)),
        (["x", "y"], ("x^2", "y^3")),
        (["x", "y"], ("x", "y^3+x*y")),
    ]
    runs = 0
    cells = {}
    for xv, exprs in cases:
        f, madic = _depth_map(xv, exprs, 6)
        for tag in ("R", "Klin", "LR"):
            frame0 = tangent_space(tag, f, 0, madic)
            for j in (1, 2):
                cb = comparison_bound(tag, f, j, madic)
                assert cb.found, (tag, exprs, j)
                frame = tangent_space(tag, f, j, madic)
                _check_certificates(cb, frame)
                cells[tag, exprs, j] = (xv, cb.bound, madic, frame0, frame)
                runs += 1
    assert runs == 24
    # (a) Each bound b is least: one order lower, some full-tangent vector
    # of order >= b-1 has no coordinates in the level-j frame.
    # (b) A bound equal to the vanishing depth of the m-adic filtration holds
    # only because nothing of that order survives the truncation: it comes
    # with no certificate and says nothing inside the jet window.  Such a
    # cell is recomputed one jet order higher, where the same depth must
    # come back below the new vanishing depth, least, and certified.
    # (c) The hand reckoning behind the two LR level-2 cells whose least
    # depth is 7 at order 6: on (x^2, y^3), (y^6, 0) = (v^2 d/du)(f) is in
    # the full tangent, but the level-2 R part only gives first components
    # in 2x*m^3 and the level-2 L part gives no pure y-power below y^9.
    for (tag, exprs, j), (xv, bound, madic, frame0, frame) in cells.items():
        if bound > 1:
            assert _escapes_level(frame0, frame, madic, bound - 1), \
                (tag, exprs, j, bound)
        if bound == madic.vanishing_depth():
            f7, madic7 = _depth_map(xv, exprs, 7)
            cb = comparison_bound(tag, f7, j, madic7)
            assert cb.bound == bound < madic7.vanishing_depth(), \
                (tag, exprs, j, cb.bound)
            assert cb.certificates, (tag, exprs, j)
            frame7 = tangent_space(tag, f7, j, madic7)
            _check_certificates(cb, frame7)
            assert _escapes_level(tangent_space(tag, f7, 0, madic7), frame7,
                                  madic7, bound - 1), (tag, exprs, j)
    *_, frame0, frame2 = cells["LR", ("x^2", "y^3"), 2]
    R = frame2.context.ring
    witness = (R.from_expr("y^6"), R.zero)
    assert membership(witness, frame0.basis) is not None
    assert membership(witness, frame2.basis) is None
    _finish(5, "comparison bounds certified on the whole grid", t0, 30)


def _rational_census_by_enumeration(f, ext):
    srcK = extend_ring(f.source, ext)
    tgtK = extend_ring(f.target, ext)
    fK = extend_map(f, ext, srcK, tgtK)
    seen = set()
    for g in enumerate_group("R", srcK, tgtK):
        down = restrict_map(g.act(fK), ext, f.source, f.target)
        if down is not None:
            seen.add(tuple(str(c) for c in down.components))
    return seen


def test_06_rational_orbit_splitting_matches_direct_enumeration():
    t0 = time.perf_counter()
    F3 = make_field("F3")
    ext9 = make_extension(F3, "b^2+1")
    src3 = JetRing(F3, ["x"], 2)
    tgt3 = JetRing(F3, ["y"], 2)
    sq = MapGerm(src3, tgt3, [src3.from_expr("x^2")])
    census = orbit_split("R", sq, ext9)
    assert census.extension_orbit_size == 4
    assert census.orbits == [[("2*x^2",)], [("x^2",)]]
    assert _rational_census_by_enumeration(sq, ext9) == \
        {k for o in census.orbits for k in o}

    F5 = make_field("F5")
    ext25 = make_extension(F5, "b^2+2")
    src5 = JetRing(F5, ["x"], 2)
    tgt5 = JetRing(F5, ["y"], 2)
    p = MapGerm(src5, tgt5, [src5.from_expr("x^2")])
    census5 = orbit_split("R", p, ext25)
    assert census5.extension_orbit_size == 12
    assert len(census5.orbits) == 2
    assert sorted(len(o) for o in census5.orbits) == [2, 2]
    assert _rational_census_by_enumeration(p, ext25) == \
        {k for o in census5.orbits for k in o}
    _finish(6, "orbit splits cross-checked by enumeration", t0, 30)


def test_07_extension_membership_descends_by_coordinate_slicing():
    t0 = time.perf_counter()
    R = JetRing(Q, ["x", "y"], 4)
    ext = make_extension(Q, "a^2-2")
    RK = extend_ring(R, ext)
    ctx = VectorContext(R, 1)
    ctxK = VectorContext(RK, 1)
    failures = 0
    checks = 0

    for trial in range(100):
        rng = random.Random(trial)
        gens = [_rand_jet(R, rng, 1) for _ in range(rng.randint(3, 5))]
        span_q = SubspaceBasis.span(ctx, [ctx.to_vec(g) for g in gens])
        span_k = SubspaceBasis.span(
            ctxK, [ctxK.to_vec(extend_jet(g, ext, RK)) for g in gens])
        if trial % 2 == 0:
            w = R.zero
            for g in gens:
                w = w + g.scale(_rat(rng))
        else:
            w = gens[0].scale(_rat(rng)) + _rand_jet(R, rng, 1)

        coords_k = span_k.membership(ctxK.to_vec(extend_jet(w, ext, RK)))
        coords_q = span_q.membership(ctx.to_vec(w))
        if coords_k is None:
            # no coordinates upstairs, so none can exist downstairs either
            if coords_q is not None:
                failures += 1
        else:
            # reduced bases of rational generators coincide over both
            # fields, so the base-field slice of the extension coordinates
            # must recombine to w against the rational rows
            sliced = []
            for c in coords_k:
                parts = ext.coordinates(c)
                sliced.append(parts[0] if parts else Q.zero)
            acc = [Q.zero] * ctx.dim
            for a, row in zip(sliced, span_q.rows):
                acc = [s + a * e for s, e in zip(acc, row)]
            recomb = ctx.to_jets(tuple(acc))[0]
            if not (recomb - w).is_zero() or coords_q is None:
                failures += 1
        checks += 1

    assert checks == 100
    assert failures == 0
    _finish(7, "100 membership descents, zero failures", t0, 5)


def test_08_one_parameter_family_trivializes_over_the_base():
    t0 = time.perf_counter()
    RF = JetRing(Q, ["x"], 3, tvars=["t"], torder=1)
    TF = JetRing(Q, ["y"], 3, tvars=["t"], torder=1)
    fam = MapGerm(RF, TF, [RF.from_expr("x^2+t*x^3")])
    cert = family_trivialize("R", fam)
    assert verify_witness(cert.witness, fam, central_fiber(fam))["ok"]
    expected = RF.from_expr("x-(1/2)*t*x^2")
    assert (cert.witness.comps[0] - expected).is_zero()
    assert group_level(cert.witness, RF, RF,
                       filtration_make(RF, "tadic")) >= 1
    _finish(8, "x^2 + t x^3 trivialized mod (x^4, t^2)", t0, 1)


_MINPOLYS = {
    2: {2: "e^2+e+1", 3: "e^3+e+1"},
    3: {2: "e^2+1", 3: "e^3+2*e+1"},
}

# (prime, unknowns, equations, solvable); every consistent ideal here has
# a zero within a degree-3 extension, so exhaustive search is a complete
# referee for the certificates
_FIXED_SYSTEMS = [
    (2, ["a"], ["a"], True),
    (2, ["a"], ["a", "a+1"], False),
    (2, ["a"], ["a^2+a+1"], True),
    (2, ["a"], ["a^3+a+1"], True),
    (2, ["a", "b"], ["a*b+1", "a"], False),
    (2, ["a", "b"], ["a*b+1", "a+1"], True),
    (2, ["a", "b"], ["a^2+a+1", "b^2+b+1", "a+b+1"], True),
    (2, ["a", "b"], ["a^2+a+1", "a+b", "b^2+b"], False),
    (2, ["a", "b", "c"], ["a+b+c", "a*b+a*c+b*c", "a*b*c+1"], True),
    (2, ["a", "b"], ["a^2+b", "b^2+a"], True),
    (3, ["a"], ["a-1"], True),
    (3, ["a"], ["a-1", "a-2"], False),
    (3, ["a"], ["a^2+1"], True),
    (3, ["a"], ["a^3-a-1"], True),
    (3, ["a", "b"], ["a^2+b^2+1", "a*b"], True),
    (3, ["a", "b"], ["a^2-2", "a+b", "a-b"], False),
    (3, ["a", "b"], ["a*b-1", "a^2+1", "b^2+1"], True),
    (3, ["a", "b", "c"], ["a+b+c-1", "a*b*c-1", "c"], False),
    (3, ["a", "b", "c"], ["a^2-c", "c-2", "b-1", "a*b^2-a"], True),
    (3, ["a", "b", "c", "d"], ["a-1", "b-2", "c-a*b", "d-c^2"], True),
]


def _solvable_up_to_cubic_extensions(prime, names, eqs):
    base = make_field(f"F{prime}")
    for k in (1, 2, 3):
        K = base if k == 1 else make_extension(base, _MINPOLYS[prime][k]).top
        ringK = PolyRing(K, names)
        polys = [ringK.from_expr(t) for t in eqs]
        for values in itertools.product(list(K.elements()), repeat=len(names)):
            env = dict(zip(names, values))
            if all(p.evaluate(env).is_zero() for p in polys):
                return True
    return False


def test_09_groebner_verdicts_agree_with_exhaustive_search():
    t0 = time.perf_counter()
    assert len(_FIXED_SYSTEMS) == 20
    for prime, names, eqs, expected in _FIXED_SYSTEMS:
        base = make_field(f"F{prime}")
        ring = PolyRing(base, names)
        report = groebner_inconsistent([ring.from_expr(t) for t in eqs])
        found = _solvable_up_to_cubic_extensions(prime, names, eqs)
        assert found == expected, (prime, eqs, found)
        assert report.inconsistent is (not found), (prime, eqs, report.status)
        if report.inconsistent:
            assert report.certificate is not None
    _finish(9, "20 fixed systems refereed exhaustively", t0, 60)
