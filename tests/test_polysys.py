import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from germ.exactfield import is_pth_power, make_extension, make_field
from germ.jets import JetRing, filtration_make
from germ.germs import (
    GermError,
    MapGerm,
    extend_map,
    extend_ring,
    factor_identity,
    factor_layout,
    from_factors,
    group_level,
    identity_element,
    product_ring,
    restrict_map,
)
from germ.descent import verify_witness
from germ.tangent import _candidates
from germ.polysys import (
    Poly,
    PolyError,
    PolyRing,
    PolySystem,
    _census_generators,
    assemble_witness,
    brute_solve,
    compile_system,
    enumerate_group,
    extend_system,
    groebner_inconsistent,
    orbit_split,
    system_from_json,
)

F3 = make_field("F3")
Q = make_field("Q")


def germ_map(ring, target, *exprs):
    return MapGerm(ring, target, [ring.from_expr(e) for e in exprs])


def eq_set(system):
    return {e.key() for e in system.equations}


def expected(system, *texts):
    return {system.ring.from_expr(t).key() for t in texts}


def squash_system():
    R2 = JetRing(F3, ["x"], 2)
    T2 = JetRing(F3, ["y"], 2)
    f = germ_map(R2, T2, "x^2")
    ft = germ_map(R2, T2, "2*x^2")
    return compile_system("R", f, ft)


def test_compiled_equations_for_a_quadratic_squash():
    S = squash_system()
    assert S.unknowns == ("a1", "a2", "z")
    # keys, not strings: -1 prints as 2 over F3
    assert eq_set(S) == expected(S, "2*a1^2-1", "a1*z-1")


def test_compiling_a_map_against_itself_pins_the_identity():
    R1 = JetRing(F3, ["x"], 1)
    T1 = JetRing(F3, ["y"], 1)
    fid = germ_map(R1, T1, "x")
    Sid = compile_system("R", fid, fid)
    assert eq_set(Sid) == expected(Sid, "a1-1", "a1*z-1")


def test_brute_search_moves_to_the_quadratic_extension():
    S = squash_system()
    assert brute_solve(S) == []
    extF9 = make_extension(F3, "b^2+1")
    sols = brute_solve(S, field=extF9.top)
    assert len(sols) >= 1
    SK = extend_system(S, extF9)
    w, rep = assemble_witness(SK, sols[0])
    assert rep["ok"]
    assert verify_witness(w, SK.layout["f"], SK.layout["f_tilde"])["ok"]


def test_groebner_verdicts():
    S = squash_system()
    # consistent over the closure, so no inconsistency certificate exists
    assert groebner_inconsistent(S).inconsistent is False
    PRq = PolyRing(Q, ["a"])
    gq = groebner_inconsistent([PRq.from_expr("a-1"), PRq.from_expr("a-2")])
    assert gq.inconsistent is True
    assert gq.certificate is not None
    pr3 = PolyRing(F3, ["a"])
    assert groebner_inconsistent([pr3.from_expr("a^2+1")]).inconsistent is False


def test_system_json_round_trip():
    S = squash_system()
    data = json.loads(json.dumps(S.describe()))
    S2 = system_from_json(data, F3)
    assert [str(e) for e in S2.equations] == [str(e) for e in S.equations]
    assert (json.dumps(S2.describe(), sort_keys=True)
            == json.dumps(S.describe(), sort_keys=True))


def test_level_one_systems_only_produce_level_one_witnesses():
    R3 = JetRing(F3, ["x"], 3)
    T3 = JetRing(F3, ["y"], 3)
    fl = germ_map(R3, T3, "x^2")
    Sl = compile_system("R", fl, fl, level=1)
    assert Sl.ring.from_expr("a1-1").key() in eq_set(Sl)
    madic = filtration_make(R3, "madic")
    sols = brute_solve(Sl)
    assert sols
    for sol in sols:
        wl, repl = assemble_witness(Sl, sol)
        assert repl["ok"]
        assert group_level(wl, R3, T3, madic) >= 1


def test_inseparable_direction_over_a_non_perfect_field():
    F3s = make_field("F3(s)")
    R6 = JetRing(F3s, ["x"], 6)
    T6 = JetRing(F3s, ["y"], 6)
    f3 = germ_map(R6, T6, "x^3")
    ft3 = germ_map(R6, T6, "x^3+s*x^6")
    S3 = compile_system("R", f3, ft3)
    shapes = [{S3.ring.mon_str(m): str(c) for m, c in eq.coeffs.items()}
              for eq in S3.equations]
    # the obstruction pairs a bare cube against an s-multiple, so any
    # solution would exhibit a cube root of s
    assert {"a2^3": "1", "a1^6": "s"} in shapes
    assert is_pth_power(F3s.generator_env()["s"], 3) is None


def test_finite_surrogate_solves_only_upstairs():
    ext27 = make_extension(F3, "c^3+2*c+1")
    F27 = ext27.top
    R6c = JetRing(F27, ["x"], 6)
    T6c = JetRing(F27, ["y"], 6)
    fc = germ_map(R6c, T6c, "x^3")
    ftc = germ_map(R6c, T6c, "x^3+c*x^6")
    Sc = compile_system("R", fc, ftc)
    embedded = [ext27.embed(e) for e in F3.elements()]
    assert brute_solve(Sc, domain=embedded) == []
    full = brute_solve(Sc, limit=1)
    assert len(full) == 1
    wc, repc = assemble_witness(Sc, full[0])
    assert repc["ok"]


def test_orbit_split_of_the_quadratic_over_f3():
    sq_src = JetRing(F3, ["x"], 2)
    sq_tgt = JetRing(F3, ["y"], 2)
    sq = germ_map(sq_src, sq_tgt, "x^2")
    census = orbit_split("R", sq, make_extension(F3, "b^2+1"))
    assert census.extension_orbit_size == 4
    assert census.orbits == [[("2*x^2",)], [("x^2",)]]


def test_orbit_split_of_the_quadratic_over_f5():
    F5 = make_field("F5")
    ext25 = make_extension(F5, "b^2+2")
    p_src = JetRing(F5, ["x"], 2)
    p_tgt = JetRing(F5, ["y"], 2)
    p = germ_map(p_src, p_tgt, "x^2")
    census5 = orbit_split("R", p, ext25)
    assert census5.extension_orbit_size == 12
    assert sorted(len(o) for o in census5.orbits) == [2, 2]
    members = sorted(k for o in census5.orbits for k in o)
    assert members == [("2*x^2",), ("3*x^2",), ("4*x^2",), ("x^2",)]


def test_orbit_split_agrees_with_direct_group_enumeration():
    F2 = make_field("F2")
    ext4 = make_extension(F2, "b^2+b+1")
    m_src = JetRing(F2, ["x"], 2)
    m_tgt = JetRing(F2, ["y"], 2)
    mf = germ_map(m_src, m_tgt, "x^2")
    census2 = orbit_split("R", mf, ext4)
    m_srcK = extend_ring(m_src, ext4)
    m_tgtK = extend_ring(m_tgt, ext4)
    mfK = extend_map(mf, ext4, m_srcK, m_tgtK)
    seen = set()
    for g in enumerate_group("R", m_srcK, m_tgtK):
        down = restrict_map(g.act(mfK), ext4, m_src, m_tgt)
        if down is not None:
            seen.add(tuple(str(c) for c in down.components))
    assert seen == {k for o in census2.orbits for k in o}


# -- orbit censuses against one sweep of the enumerated group ----------------

F2 = make_field("F2")
EXT4 = make_extension(F2, "b^2+b+1")
EXT9 = make_extension(F3, "b^2+1")


def _census_by_enumeration(tag, f, ext):
    """The census as one sweep of every group element: the extension orbit
    is the set of images of f, and each rational orbit, taken in order of
    its least member, the set of images of that member."""
    source, target = f.source, f.target
    source_K, target_K = extend_ring(source, ext), extend_ring(target, ext)
    f_K = extend_map(f, ext, source_K, target_K)

    def key(m):
        return tuple(str(c) for c in m.components)

    big, rational = set(), {}
    for g in enumerate_group(tag, source_K, target_K):
        moved = g.act(f_K)
        big.add(key(moved))
        down = restrict_map(moved, ext, source, target)
        if down is not None:
            rational[key(down)] = down
    group = enumerate_group(tag, source, target)
    orbits, representatives, placed = [], [], set()
    for k in sorted(rational):
        if k in placed:
            continue
        orbit = {key(g.act(rational[k])) for g in group}
        assert orbit <= set(rational)
        placed |= orbit
        orbits.append(sorted(orbit))
        representatives.append(list(k))
    return {"group": tag, "extension_orbit_size": len(big),
            "rational_members": len(rational), "orbits": orbits,
            "representatives": representatives}


def _shape(p, source_vars, target_vars, order, singular=False):
    field = F2 if p == 2 else F3
    ideal = [{(2,): field.one}] if singular else ()
    return (JetRing(field, source_vars, order),
            JetRing(field, target_vars, order, ideal=ideal))


ALL = ("R", "L", "LR", "Klin", "C", "K")
# (p, source, target, jet order, group, singular target): smooth shapes whose groups
# enumerate within about 2 s over F4 or F9, and the fallback on the fat
# point u^2 = 0
CENSUS_CASES = (
    [(2, ["x"], ["y"], 2, tag, False) for tag in ALL]
    + [(2, ["x"], ["y"], 3, tag, False) for tag in ("R", "L", "LR", "Klin", "C")]
    + [(2, ["x", "y"], ["u"], 1, tag, False) for tag in ALL]
    + [(2, ["x", "y"], ["u", "v"], 1, tag, False) for tag in ("R", "L", "C")]
    + [(3, ["x"], ["y"], 2, tag, False) for tag in ("R", "L", "LR", "C")]
    + [(3, ["x"], ["y"], 3, tag, False) for tag in ("R", "L")]
    + [(3, ["x", "y"], ["u"], 1, tag, False) for tag in ("R", "L", "C")]
    + [(2, ["x"], ["u"], 2, tag, True) for tag in ("R", "L", "LR", "C", "K")]
    + [(3, ["x"], ["u"], 2, tag, True) for tag in ("R", "L", "LR", "C")]
)


@pytest.mark.parametrize("case", range(len(CENSUS_CASES)))
def test_orbit_census_matches_one_sweep_of_the_enumerated_group(case):
    p, source_vars, target_vars, order, tag, singular = CENSUS_CASES[case]
    source, target = _shape(p, source_vars, target_vars, order, singular)
    rng = random.Random(case)
    units = [c for c in source.field.elements() if not c.is_zero()]
    # every other map of jet order >= 2 vanishes to order 2, where square
    # classes split; on u^2 = 0 every map must, to respect the ideal
    low = 2 if singular or (case % 2 == 0 and order >= 2) else 1
    mons = [m for m in source.monomials if sum(m) >= low]
    f = MapGerm(source, target, [source.zero] * len(target_vars))
    while all(c.is_zero() for c in f.components):
        f = MapGerm(source, target, [
            source.jet({m: rng.choice(units) for m in mons if rng.random() < 2 / 3})
            for _ in target_vars])
    ext = EXT4 if p == 2 else EXT9
    census = orbit_split(tag, f, ext)
    assert (json.dumps(census.describe())
            == json.dumps(_census_by_enumeration(tag, f, ext)))


def test_quadratic_forms_in_two_variables_split_over_f3():
    # x^2+y^2 and x*y are R-equivalent over F9 (-1 is a square there), not
    # over F3 (it is not): the nondegenerate binary forms over F3 are the
    # |GL_2(3)|/|O-_2(3)| = 48/8 anisotropic ones and the 48/4 split ones,
    # inside a GL_2(9)-orbit of |GL_2(9)|/|O+_2(9)| = 5760/16
    start = time.perf_counter()
    source = JetRing(F3, ["x", "y"], 2)
    target = JetRing(F3, ["u"], 2)
    censuses = [orbit_split("R", germ_map(source, target, text), EXT9)
                for text in ("x^2+y^2", "x*y")]
    for census in censuses:
        assert census.extension_orbit_size == 360
        assert census.rational_count == 18
        assert sorted(len(o) for o in census.orbits) == [6, 12]
    assert censuses[0].describe() == censuses[1].describe()
    by_member = {k: len(o) for o in censuses[0].orbits for k in o}
    assert by_member[("x^2+y^2",)] == 6
    assert by_member[("x*y",)] == 12
    assert time.perf_counter() - start < 10


def test_orbit_census_cap_counts_group_actions():
    sq = germ_map(JetRing(F3, ["x"], 2), JetRing(F3, ["y"], 2), "x^2")
    with pytest.raises(PolyError, match="exceeds the cap of 5 group actions"):
        orbit_split("R", sq, EXT9, cap=5)
    # x^2 has 4 images over F9 and 2 rational orbits of one member; R over
    # F9 has 3 generators and over F3 2
    assert orbit_split("R", sq, EXT9, cap=4 * 3 + 2 * 2).extension_orbit_size == 4
    with pytest.raises(PolyError, match="cap"):
        orbit_split("R", sq, EXT9, cap=4 * 3 + 2 * 2 - 1)


def _as_element(tag, g, source, target):
    """A factor's generator as the group element with the other factor's identity."""
    return from_factors([g if one.tag == g.tag else one
                         for one in identity_element(tag, source, target).factors()])


F4_SHAPE = (JetRing(EXT4.top, ["x"], 2), JetRing(EXT4.top, ["y"], 2))
GENERATION_CASES = (
    [(_shape(p, ["x"], ["y"], 2), tag) for p in (2, 3) for tag in ALL]
    + [(_shape(2, ["x", "y"], ["u"], 1), tag) for tag in ALL]
    + [(_shape(2, ["x"], ["u", "v"], 1), tag) for tag in ALL]
    + [(F4_SHAPE, tag) for tag in ALL]
)


@pytest.mark.parametrize("case", range(len(GENERATION_CASES)))
def test_census_generators_generate_the_enumerated_group(case):
    (source, target), tag = GENERATION_CASES[case]
    elements, generating = _census_generators(tag, source, target, 10 ** 7)
    assert generating
    gens = [_as_element(tag, g, source, target) for g in elements]
    one = identity_element(tag, source, target)
    reached = {one.key()}
    frontier = [one]
    while frontier:
        fresh = []
        for h in frontier:
            for g in gens:
                gh = g.compose(h)
                if gh.key() not in reached:
                    reached.add(gh.key())
                    fresh.append(gh)
        frontier = fresh
    assert reached == {g.key() for g in enumerate_group(tag, source, target)}


# group elements in enumeration order: sha256 of repr([g.key() ...]),
# recorded with the three per-factor enumerators this one replaced
ENUMERATION_DIGESTS = [
    ((2, ["x"], ["y"], 2, False), "R", 2, "712e21bd3555e7f53fe75e4e52a18cec51df531afb082eb6a0653eeca882efab"),
    ((2, ["x"], ["y"], 2, False), "L", 2, "712e21bd3555e7f53fe75e4e52a18cec51df531afb082eb6a0653eeca882efab"),
    ((2, ["x"], ["y"], 2, False), "LR", 4, "c851fa1b30e079e26f0657c6592b4cc842ccd44fcd8fd3ed5a4f61cbaa9061eb"),
    ((2, ["x"], ["y"], 2, False), "Klin", 8, "3e168151c4cdba815ddafe189eb8b216645721f5f67267ac2731e5402bde861f"),
    ((2, ["x"], ["y"], 2, False), "C", 4, "b350bbf5b8ac8a1ac4b4f3ab712d8e72c05c4538dd14248813d4206e52b43282"),
    ((2, ["x"], ["y"], 2, False), "K", 8, "0785057846f226622b61f39593ba0de788c162e31d34b1c47373183255278c4d"),
    ((3, ["x"], ["y"], 2, False), "R", 6, "151566bba81bf157192609e0de5f000f6aa87462d4d0e21f19ceb2d015cad140"),
    ((3, ["x"], ["y"], 2, False), "LR", 36, "fdf8e2b716667a8270f551e45f95dbb9c03aa38ac7dfe334766dd32fc9fb7fff"),
    ((3, ["x"], ["y"], 2, False), "Klin", 108, "0854284abe9a915a89aba4db7882a9febf145c1b5d4ee1e86739adbba7dd2e7a"),
    ((3, ["x"], ["y"], 2, False), "C", 18, "7fe4a0b2e0df7e41ac165f94f5f1517fd5fd6007217b557f854f9c9f60ebb2ae"),
    ((3, ["x"], ["y"], 2, False), "K", 108, "856c92f0dacfa60e7b8301748ff3bff7813fddaae22643a38951197b2d0a1195"),
    ((2, ["x", "y"], ["u"], 1, False), "R", 6, "6f10aa0bbba86dd0ac7d7ae795d1e8b9425b1204f68d61bb4f1ce06ac4521099"),
    ((2, ["x", "y"], ["u"], 1, False), "Klin", 24, "5a715cdb30ea3b50621488a5a84f8361c0fa7b0c473ed65c23bb10a409a3c61f"),
    ((2, ["x", "y"], ["u"], 1, False), "C", 1, "b380bd47dbceef47521969fbf291f0ed26c02338916f1af15939ef13ccd6d30a"),
    ((2, ["x", "y"], ["u"], 1, False), "K", 6, "0693c39ee815c53918cdd0ebb69f95a7c8357368b237075f7c3e0eb786c1a2a5"),
    ((2, ["x", "y"], ["u", "v"], 1, False), "L", 6, "6f10aa0bbba86dd0ac7d7ae795d1e8b9425b1204f68d61bb4f1ce06ac4521099"),
    ((2, ["x", "y"], ["u", "v"], 1, False), "C", 6, "05f560668cdbb416cc75c37b1f295839776157ef327c192a5b1099b95c42adef"),
    ((3, ["x"], ["u"], 2, True), "L", 6, "117581dbdddb912fe9bcdff17f1ae275d4e602f8d47b02ab389909ffa01d392f"),
    ((3, ["x"], ["u"], 2, True), "LR", 36, "91eb486cef30a36a0745cce263b179d160fcdb0bc197b7bd634a4cbe91549f4a"),
    ((3, ["x"], ["u"], 2, True), "C", 18, "c51fe2388267dbc8c7df75b0048aaa0e5f6aa5c37f4ce15f50c4d0eb8bd7070f"),
    ((3, ["x"], ["u"], 2, True), "K", 108, "be67bb1efaf028b8af53ebba33c7138ae0551752617ac6b213ad077e1080ae4b"),
]


@pytest.mark.parametrize("shape,tag,size,digest", ENUMERATION_DIGESTS)
def test_group_enumeration_order_is_pinned(shape, tag, size, digest):
    group = enumerate_group(tag, *_shape(*shape))
    assert len(group) == size
    assert hashlib.sha256(repr([g.key() for g in group]).encode()).hexdigest() == digest


# -- depth-first search against the full product search ----------------------

def _product_search(system, values, limit=None):
    """Every point of the box over the occurring unknowns, in product order,
    at which all equations vanish; the other unknowns are zero."""
    active = system.occurring()
    zero = system.field.zero
    out = []
    for point in itertools.product(sorted(values, key=lambda e: e.key()),
                                   repeat=len(active)):
        env = dict(zip(active, point))
        if all(eq.evaluate(env).is_zero() for eq in system.equations):
            out.append({**env, **{n: zero for n in system.ring.names if n not in env}})
            if limit is not None and len(out) >= limit:
                break
    return out


FIELDS = {3: F3, 5: make_field("F5")}
EXTENSIONS = {3: EXT9, 5: make_extension(FIELDS[5], "b^2+2")}


@st.composite
def _systems(draw):
    p = draw(st.sampled_from([3, 5]))
    field = FIELDS[p]
    mode = draw(st.sampled_from(["base", "domain", "extension", "extension-domain"]))
    # at most 9^3 points in the box
    most = 2 if mode.startswith("extension") and p == 5 else 3
    names = ["a", "b", "c"][:draw(st.integers(0, most))]
    ring = PolyRing(field, names)
    exps = st.tuples(*[st.integers(0, 2) for _ in names])
    equations = []
    for _ in range(draw(st.integers(0, 3))):
        terms = draw(st.dictionaries(exps, st.integers(0, p - 1), max_size=3))
        equations.append(ring.poly({m: field.from_int(c) for m, c in terms.items()}))
    system = PolySystem(ring, equations, [{} for _ in equations])
    limit = draw(st.one_of(st.none(), st.integers(1, 4)))
    return system, p, mode, limit, draw(st.randoms(use_true_random=False))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_systems())
def test_brute_solve_matches_the_product_search(drawn):
    system, p, mode, limit, rng = drawn
    kwargs = {} if limit is None else {"limit": limit}
    searched = system
    if mode.startswith("extension"):
        ext = EXTENSIONS[p]
        kwargs["field"] = ext.top
        searched = extend_system(system, ext)
    values = list(searched.field.elements())
    if mode.endswith("domain"):
        values = rng.sample(values, rng.randrange(len(values) + 1))
        kwargs["domain"] = values
    got = brute_solve(system, **kwargs)
    want = _product_search(searched, values, limit)
    assert [list(s.items()) for s in got] == [list(s.items()) for s in want]


def test_an_equation_is_tested_once_its_last_unknown_is_set(monkeypatch):
    ring = PolyRing(F3, ["a", "b", "c"])
    system = PolySystem(ring, [ring.from_expr("a^2+1"), ring.from_expr("b*c")],
                        [{}, {}])
    calls = []
    evaluate = Poly.evaluate
    monkeypatch.setattr(Poly, "evaluate",
                        lambda self, env: calls.append(dict(env)) or evaluate(self, env))
    assert brute_solve(system) == []
    # a^2+1 has no root in F3: three evaluations at a alone, none deeper
    assert [sorted(env) for env in calls] == [["a"]] * 3


def test_a_nonzero_constant_equation_has_no_solutions():
    ring = PolyRing(F3, ["a", "b"])
    system = PolySystem(ring, [ring.from_expr("a*b"), ring.from_expr("2")], [{}, {}])
    assert brute_solve(system) == []
    empty = PolySystem(PolyRing(F3, []), [], [])
    assert brute_solve(empty) == [{}]


# each factor kind with a group that has it and the name of its unknowns in
# a compiled system's provenance
LAYOUT_GROUPS = {"R": ("R", "right"), "L": ("L", "left"), "Mat": ("Klin", "mat"),
                 "C": ("C", "contact")}
PLANE = JetRing(Q, ["x", "y"], 2)
# (source, target, map) of each shape: smooth, a singular target (the axes
# uv = 0), one variable, a family over t, and a singular source (xy = y^2)
LAYOUT_SHAPES = {
    "smooth": (PLANE, JetRing(Q, ["u", "v"], 2), ("x^2", "y^2")),
    "uv": (PLANE, JetRing(Q, ["u", "v"], 2, ideal=[{(1, 1): Q.one}]), ("x^2", "0")),
    "line": (JetRing(Q, ["x"], 3), JetRing(Q, ["u"], 3), ("x^2",)),
    "family": (JetRing(Q, ["x"], 2, tvars=["t"], torder=1),
               JetRing(Q, ["u"], 2, tvars=["t"], torder=1), ("x^2 + t*x",)),
    "quotient": (JetRing(Q, ["x", "y"], 2, ideal=[{(1, 1): Q.one, (0, 2): -Q.one}]),
                 JetRing(Q, ["u"], 2), ("x^2",)),
}
LAYOUT_CASES = [(kind, shape) for shape in LAYOUT_SHAPES for kind in LAYOUT_GROUPS
                if not (kind == "Mat" and shape == "uv")]


@pytest.mark.parametrize("kind,shape", LAYOUT_CASES,
                         ids=[f"{kind}-{shape}" for kind, shape in LAYOUT_CASES])
def test_factor_layout_agrees_with_its_readers(kind, shape):
    source, target, comps = LAYOUT_SHAPES[shape]
    ring, identity, mons, build = factor_layout(kind, source, target)
    size = len(identity) * len(mons)
    assert build(identity, True) == factor_identity(kind, source, target)

    # a substitution's terms are the monomials with a changed variable in
    # them (a matrix takes every monomial), and the validity rule refuses a
    # term exactly off them; on a layout monomial it may refuse only a
    # moved ideal generator
    if kind == "Mat":
        assert mons == list(ring.monomials)
    else:
        changed = [ring.var_index[n] for n in (source if kind == "R" else target).xvars]
        assert mons == [mon for mon in ring.monomials if any(mon[i] for i in changed)]
    for mon in ring.monomials:
        jets = [identity[0] + ring.monomial(mon)] + list(identity[1:])
        try:
            build(jets, True)
        except GermError as e:
            assert mon not in mons or "ideal" in str(e), (ring.mon_str(mon), str(e))
        else:
            assert mon in mons, ring.mon_str(mon)

    tag, part = LAYOUT_GROUPS[kind]
    f = germ_map(source, target, *comps)
    unknowns = compile_system(tag, f, f).provenance["unknown_factors"][part]
    m = target.nx
    positions = [[k // m, k % m] if kind == "Mat" else k for k in range(len(identity))]
    assert [u[1:] for u in unknowns] == [[positions[k], ring.mon_str(mon)]
                                         for k in range(len(identity)) for mon in mons]
    assert len(unknowns) == size

    cands = _candidates(kind, source, target, product_ring(source, target),
                        filtration_make(source, "madic"))
    assert len(cands) == size
