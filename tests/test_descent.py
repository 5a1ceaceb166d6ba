import pytest

from germ.exactfield import Rationals, make_extension
from germ.germs import (
    LeftAut,
    MapGerm,
    RightAut,
    extend_element,
    extend_map,
    extend_ring,
    group_level,
)
from germ.jets import JetRing, filtration_make
from germ.tangent import DerVector
from germ.descent import (
    DescentError,
    DescentProblem,
    central_fiber,
    descend,
    element_t_slice,
    family_trivialize,
    stabilizer_sample,
    verify_witness,
)

Q = Rationals()


@pytest.fixture(scope="module")
def line6():
    R = JetRing(Q, ["x"], 6)
    T = JetRing(Q, ["y"], 6)
    return R, filtration_make(R, "madic"), MapGerm(R, T, [R.from_expr("x^2")])


def test_single_step_peel(line6):
    R, madic, f = line6
    half = R.jet({R.unit_mon: Q.from_int(1) / Q.from_int(2)})
    g_true = DerVector(R, [R.from_expr("x^3") * half]).exp()
    ft = g_true.act(f)
    cert = descend(DescentProblem("R", f, ft, madic, 2, witness=g_true))
    assert cert.verified
    assert len(cert.steps) >= 1
    assert verify_witness(cert.witness, f, ft)["ok"]


def test_multi_step_peel_orders_strictly_increase(line6):
    R, madic, f = line6
    g2 = DerVector(R, [R.from_expr("x^2+x^3")]).exp()
    ft2 = g2.act(f)
    cert2 = descend(DescentProblem("R", f, ft2, madic, 1, witness=g2))
    assert cert2.verified
    assert len(cert2.steps) >= 2
    orders = [s["residual_order"] for s in cert2.steps]
    assert orders == sorted(orders)
    assert len(set(orders)) == len(orders)


def test_irrational_witness_descends_to_a_rational_one(line6):
    R, madic, f = line6
    ext = make_extension(Q, "a^2-2")
    RK = extend_ring(R, ext)
    TK = extend_ring(f.target, ext)
    fK = extend_map(f, ext, RK, TK)
    a = RK.jet({RK.unit_mon: ext.top.generator_env()["a"]})
    sigma = RightAut(RK, [RK.var("x") + a * RK.var("x") ** 6])
    g_rat = RightAut(R, [R.from_expr("x+x^2")])
    gK = extend_element(g_rat, ext, RK, TK).compose(sigma)
    ft = g_rat.act(f)
    # the irrational factor stabilizes the moved map at this truncation
    assert all((p - q).is_zero()
               for p, q in zip(gK.act(fK).components,
                               extend_map(ft, ext, RK, TK).components))
    cert = descend(DescentProblem("R", f, ft, madic, 1, ext=ext, witness=gK))
    assert cert.verified
    assert verify_witness(cert.witness, f, ft)["ok"]
    assert "a" not in str(cert.witness.describe()["source"])


def test_residual_outside_the_frame_is_an_obstruction(line6):
    R, madic, f = line6
    bad = MapGerm(R, f.target, [R.from_expr("x^2+x^3")])
    with pytest.raises(DescentError, match="obstruction"):
        descend(DescentProblem("R", f, bad, madic, 3))


def test_invalid_witness_names_the_offending_coefficient():
    R = JetRing(Q, ["x"], 4)
    T = JetRing(Q, ["y"], 4)
    f = MapGerm(R, T, [R.from_expr("x^2")])
    bad = MapGerm(R, T, [R.from_expr("2*x^2")])
    w = RightAut(R, [R.from_expr("x+x^2")])
    with pytest.raises(DescentError, match="mismatch at coefficient x\\^2"):
        DescentProblem("R", f, bad, filtration_make(R, "madic"), 1, witness=w)


def test_stabilizer_samples_fix_the_map():
    R2 = JetRing(Q, ["x"], 5)
    T2 = JetRing(Q, ["u", "v"], 5)
    fc = MapGerm(R2, T2, [R2.from_expr("x^2"), R2.from_expr("x^3")])
    mad2 = filtration_make(R2, "madic")
    for seed in range(3):
        st = stabilizer_sample("LR", fc, 1, mad2, seed=seed)
        assert verify_witness(st, fc, fc)["ok"]


@pytest.fixture(scope="module")
def cubic_family():
    RF = JetRing(Q, ["x"], 3, tvars=["t"], torder=1)
    TF = JetRing(Q, ["y"], 3, tvars=["t"], torder=1)
    return RF, MapGerm(RF, TF, [RF.from_expr("x^2+t*x^3")])


def test_family_trivializes_over_the_base(cubic_family):
    RF, fam = cubic_family
    cert = family_trivialize("R", fam)
    f0 = central_fiber(fam)
    assert verify_witness(cert.witness, fam, f0)["ok"]
    expected = RF.from_expr("x-(1/2)*t*x^2")
    assert (cert.witness.comps[0] - expected).is_zero()
    assert group_level(cert.witness, RF, RF, filtration_make(RF, "tadic")) >= 1


def test_family_witness_zero_slice_is_normalized_away(cubic_family):
    RF, fam = cubic_family
    ext = make_extension(Q, "b^2-3")
    RFK = extend_ring(RF, ext)
    TFK = extend_ring(fam.target, ext)
    famK = extend_map(fam, ext, RFK, TFK)
    b = RFK.jet({RFK.unit_mon: ext.top.generator_env()["b"]})
    half = RFK.jet({RFK.unit_mon: ext.top.from_int(1) / ext.top.from_int(2)})
    w0 = DerVector(RFK, [RFK.var("t") * RFK.var("x") ** 2 * (-half)]).exp()
    sigma = RightAut(RFK, [RFK.var("x") + b * RFK.var("x") ** 3])
    wit = sigma.compose(w0)
    assert not wit.is_identity()
    assert not element_t_slice(wit).is_identity()
    moved = wit.act(famK)
    fiber_K = extend_map(central_fiber(fam), ext, RFK, TFK)
    assert all((p - q).is_zero()
               for p, q in zip(moved.components, fiber_K.components))
    cert = family_trivialize("R", fam, ext=ext, witness=wit)
    assert verify_witness(cert.witness, fam, central_fiber(fam))["ok"]


@pytest.mark.parametrize("tag", ["L", "LR", "C", "K"])
def test_a_target_change_of_parameter_level_one_descends_to_one(tag):
    # the level-1 t-adic frame holds no vector that moves the fibre t = 0,
    # so the peeled witness keeps t-adic level 1
    X = JetRing(Q, ["x", "y"], 4, tvars=["t"], torder=2)
    Y = JetRing(Q, ["u", "v"], 4, tvars=["t"], torder=2)
    tadic = filtration_make(X, "tadic")
    f = MapGerm(X, Y, [X.from_expr("x^2+y^3"), X.from_expr("x*y")])
    lp = LeftAut(Y, [Y.from_expr("u+t*u^2+t*v^2"), Y.from_expr("v+t^2*u*v")])
    cert = descend(DescentProblem(tag, f, lp.act(f), tadic, 1))
    assert verify_witness(cert.witness, f, lp.act(f))["ok"]
    assert group_level(cert.witness, X, Y, tadic) >= 1
