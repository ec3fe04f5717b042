import gc
import operator
import random
import re
import weakref
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krawpv import maps, painleve, systems
from krawpv.expr import (
    Add,
    Const,
    Div,
    EvaluationDivisionError,
    Mul,
    Neg,
    Pow,
    Sub,
    Sym,
    UnboundSymbolError,
    _domain,
    _MISSING,
    compile_float,
    syms,
)
from krawpv.jets import Jet1, Jet2, slots

x, y = syms("x y")

fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


def test_operator_overloading_builds_trees():
    e = (x + 1) * y - x / y
    env = {"x": Fraction(2), "y": Fraction(3)}
    assert e.evaluate(env) == Fraction(3) * 3 - Fraction(2, 3)


def test_unbound_symbol_is_loud():
    with pytest.raises(UnboundSymbolError):
        (x + y).evaluate({"x": Fraction(1)})


def test_division_by_zero_is_loud():
    # exact, float and jet zeros raise one error family, naming the denominator
    for zero in (Fraction(0), 0.0, Jet2(Fraction(0), Fraction(1), Fraction(0)),
                 Jet2(0.0, 1.0, 0.0), Jet1(Fraction(0), Fraction(1))):
        with pytest.raises(EvaluationDivisionError) as exc:
            (1 / (y * x)).evaluate({"x": zero, "y": Fraction(2)})
        assert isinstance(exc.value, ZeroDivisionError)
        assert exc.value.subtree == y * x
    # exact Jet1s: jet/jet, Fraction/jet and jet/Fraction(0); a zero rate slot divides fine
    jet, zero_jet = Jet1(Fraction(2), Fraction(3)), Jet1(Fraction(0), Fraction(5))
    for num, den in ((jet, zero_jet), (Fraction(2), zero_jet), (jet, Fraction(0))):
        with pytest.raises(EvaluationDivisionError) as exc:
            (x / (y - 1)).evaluate({"x": num, "y": den + 1})
        assert exc.value.subtree == y - 1
    assert slots((x / y).evaluate({"x": jet, "y": Jet1(Fraction(4), Fraction(0))})) == \
        (Fraction(1, 2), Fraction(3, 4))


def test_negative_power_rejected():
    with pytest.raises(Exception):
        x ** (-1)


@given(a=fractions, b=fractions)
@settings(max_examples=50, deadline=None)
def test_diff_product_rule_pointwise(a, b):
    # d/dx (x^2 * y) = 2xy, checked by evaluation
    e = x**2 * y
    d = e.diff("x")
    env = {"x": a, "y": b}
    assert d.evaluate(env) == 2 * a * b


@given(a=fractions)
@settings(max_examples=50, deadline=None)
def test_diff_quotient_rule_pointwise(a):
    e = 1 / (x + 1)
    d = e.diff("x")
    if a == -1:
        return
    env = {"x": a}
    assert d.evaluate(env) == -1 / (a + 1) ** 2


@given(a=fractions, b=fractions)
@settings(max_examples=50, deadline=None)
def test_subs_is_simultaneous(a, b):
    # x -> y, y -> x must swap, not cascade
    e = x + 2 * y
    swapped = e.subs({"x": y, "y": x})
    env = {"x": a, "y": b}
    assert swapped.evaluate(env) == b + 2 * a


@given(a=fractions, b=fractions)
@settings(max_examples=50, deadline=None)
def test_as_num_den_agrees_with_tree(a, b):
    e = (x + 1 / y) / (y - x / (y + 3))
    if b == 0 or b == -3:
        return
    env = {"x": a, "y": b}
    try:
        want = e.evaluate(env)
    except EvaluationDivisionError:
        return
    num, den = e.as_num_den()
    dv = den.evaluate(env)
    assert dv != 0
    assert num.evaluate(env) / dv == want


def test_jet_evaluation_gives_derivatives():
    # f(t) = t^2 + 1/t at t = 2: f' = 2t - 1/t^2 = 15/4, f'' = 2 + 2/t^3 = 9/4
    (t,) = syms("t")
    e = t**2 + 1 / t
    j = e.evaluate({"t": Jet2.variable(Fraction(2))})
    assert (j.v, j.d1, j.d2) == (Fraction(9, 2), Fraction(15, 4), Fraction(9, 4))


def test_compile_float_matches_exact():
    e = (x**3 - 2) / (y + 5)
    f = compile_float(e, ["x", "y"])
    env = {"x": Fraction(3, 2), "y": Fraction(1, 3)}
    exact = e.evaluate(env)
    assert abs(f(1.5, 1 / 3) - float(exact)) < 1e-15
    assert compile_float(e, ("x", "y")) is f  # cached on the tree by argument list
    assert compile_float(e, ["y", "x"]) is not f


def test_compiled_functions_die_with_their_tree():
    # a tree built for one check must free its functions without the cycle collector
    e = (x**3 - 2) / (y + 5)
    e.evaluate({"x": Fraction(1), "y": Fraction(2)})
    for jet in (Jet1(Fraction(1), Fraction(2)), Jet2(Fraction(1), Fraction(2), Fraction(3))):
        e.evaluate({"x": jet, "y": Fraction(2)})  # exact jets: one kernel per jet order
    e.evaluate({"x": 1, "y": Fraction(2)})  # an int: the scalar rational kernel, dispatched
    kernels = list(vars(e)["_kernels"].values())
    assert len(kernels) == 3
    refs = [weakref.ref(fn) for fn in [e._evaluator, compile_float(e, ["x", "y"]), *kernels]]
    del kernels
    gc.disable()
    try:
        del e
        assert [ref() for ref in refs] == [None] * 5
    finally:
        gc.enable()


def test_to_prefix_deterministic():
    e = x * (y + 1)
    assert e.to_prefix() == "(* x (+ y 1))"


# --- the compiled evaluator against the recursive tree walk ---------------

_WALK_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def reference_evaluate(e, env):
    """The recursive per-node tree walk the compiled evaluator replaced."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundSymbolError(f"unbound symbol {e.name!r}") from None
    if isinstance(e, Div):
        den = reference_evaluate(e.b, env)
        num = reference_evaluate(e.a, env)
        try:
            return num / den
        except ZeroDivisionError:
            raise EvaluationDivisionError(e.b) from None
    if isinstance(e, Neg):
        return -reference_evaluate(e.a, env)
    if isinstance(e, Pow):
        return reference_evaluate(e.a, env) ** e.k
    return _WALK_OPS[type(e)](reference_evaluate(e.a, env), reference_evaluate(e.b, env))


def _reading_order(e):
    """The symbols of ``e`` in the order the tree walk first reads them."""
    if isinstance(e, Sym):
        return [e.name]
    kids = [e.b, e.a] if isinstance(e, Div) else [getattr(e, f) for f in "ab" if hasattr(e, f)]
    return list(dict.fromkeys(name for kid in kids for name in _reading_order(kid)))


def _cast(value, scalar):
    """``value`` with every slot converted by ``scalar``."""
    return type(value)(*map(scalar, slots(value))) if isinstance(value, (Jet1, Jet2)) \
        else scalar(value)


def domain_reference(e, env):
    """The tree walk on the domain the bindings of ``e`` choose.

    The first symbol the walk reads that is unbound raises, and jets of two
    orders raise.  Otherwise the walk runs on the bound values with every
    slot rounded to float when any slot is a float, and with ints read as
    Fractions when none is.
    """
    names = _reading_order(e)
    for name in names:
        if name not in env:
            raise UnboundSymbolError(f"unbound symbol {name!r}")
    values = [env[name] for name in names]
    if {Jet1, Jet2} <= set(map(type, values)):
        raise TypeError("jets of two orders in one binding")
    floaty = any(type(s) is float for v in values for s in slots(v))
    return reference_evaluate(e, {nm: _cast(v, float if floaty else Fraction)
                                  for nm, v in zip(names, values)})


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the comparison covers every exception class
        return "raised", exc


def _same_value(a, b):
    """Equal and of the same type, slot by slot for jets; floats bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (Jet1, Jet2)):
        return all(_same_value(p, q) for p, q in zip(slots(a), slots(b)))
    if isinstance(a, float):
        return repr(a) == repr(b)  # also nan == nan and the sign of zero
    return a == b


def _assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if want[0] == "value":
        assert _same_value(got[1], want[1]), (got, want)
    else:
        assert type(got[1]) is type(want[1]), (got, want)
        assert str(got[1]) == str(want[1])  # names the same symbol or denominator
        if isinstance(want[1], EvaluationDivisionError):
            assert got[1].subtree == want[1].subtree


NAMES = ("x", "y", "z")
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
leaves = st.one_of(
    small_fractions.map(Const),  # includes zero, so denominators vanish
    st.sampled_from(NAMES).map(Sym),
    # two symbols joined, so that the values of mixed bindings meet inside a tree
    st.builds(lambda op, a, b: op(Sym(a), Sym(b)), st.sampled_from([Add, Sub, Mul, Div]),
              st.sampled_from(NAMES), st.sampled_from(NAMES)),
)


def _extend(children):
    binary = st.sampled_from([Add, Sub, Mul, Div])
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), binary, children, children),
        children.map(Neg),
        st.builds(Pow, children, st.integers(0, 3)),
        # a repeated subtree, in the same object and rebuilt, to exercise CSE
        st.builds(lambda op, a, b: op(op(a, b), Div(b, op(a, b))), binary, children, children),
        children.map(lambda a: Mul(a, Pow(a.subs({}), 2))),
        st.builds(lambda a, j, k: Sub(Pow(a, j), Pow(a, k)),
                  children, st.integers(0, 3), st.integers(0, 3)),
    )


trees = st.recursive(leaves, _extend, max_leaves=12)

# denominators up to 10, such as tenths: computed exactly and then rounded, a product
# or sum of them often differs in the last bit from the product or sum of their roundings
den10_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=10)
scalars = {
    "fraction": small_fractions,
    "fraction_den10": den10_fractions,
    "int": st.integers(-3, 3),
    "float": st.floats(-3, 3, allow_nan=False).filter(lambda v: v != 0) | st.just(0.0),
    "jet_fraction": st.builds(Jet2, small_fractions, small_fractions, small_fractions),
    "jet1_fraction": st.builds(Jet1, small_fractions, small_fractions),
    "jet_float": st.builds(Jet2, *[st.floats(-3, 3, allow_nan=False)] * 3),
    # exact slots beside a float slot: the float domain, every slot rounded on entry
    "jet_mixed": st.builds(Jet2, den10_fractions, st.floats(-3, 3, allow_nan=False),
                           den10_fractions),
}


@st.composite
def bindings(draw):
    """Bindings of one kind or mixed, sometimes with a symbol left unbound."""
    kinds = draw(st.one_of(
        st.sampled_from(sorted(scalars)).map(lambda k: [k] * len(NAMES)),
        st.lists(st.sampled_from(sorted(scalars)), min_size=len(NAMES), max_size=len(NAMES)),
        # the exact checks' shape: Fraction parameters, exact jets of one order for the rest
        st.sampled_from(["jet_fraction", "jet1_fraction"]).flatmap(lambda jet: st.lists(
            st.sampled_from(["fraction", jet]), min_size=len(NAMES), max_size=len(NAMES))),
    ))
    bound = draw(st.sets(st.sampled_from(NAMES)).map(lambda s: set(NAMES) - s)
                 | st.just(set(NAMES)))
    return {nm: draw(scalars[kind]) for nm, kind in zip(NAMES, kinds) if nm in bound}


@given(e=trees, envs=st.lists(bindings(), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_compiled_evaluate_matches_tree_walk(e, envs):
    # one tree, several bindings: the cached function switches kernels per call
    for env in envs:
        _assert_same_outcome(_outcome(e.evaluate, env), _outcome(domain_reference, e, env))


@st.composite
def exact_pair_then_float(draw):
    """A tree reading all three symbols, two bound exactly and one to a float.

    The two exact values meet before the float does, so only rounding each
    exact value on entry gives the float domain's result: their exact sum,
    product or quotient, rounded once, often differs in the last bit.
    """
    binary = st.sampled_from([Add, Sub, Mul, Div])
    p, q, r = draw(st.permutations(NAMES))
    core = draw(binary)(draw(binary)(Sym(p), Sym(q)), Sym(r))
    e = draw(st.just(core)
             | st.builds(lambda op, t: op(core, t), binary, trees)
             | st.builds(lambda op, t: op(t, core), binary, trees))
    return e, {p: draw(den10_fractions), q: draw(den10_fractions), r: draw(scalars["float"])}


@given(case=exact_pair_then_float())
@settings(max_examples=100, deadline=None)
def test_exact_values_are_rounded_before_they_meet_a_float(case):
    e, env = case
    _assert_same_outcome(_outcome(e.evaluate, env), _outcome(domain_reference, e, env))


@given(e=trees, values=st.lists(scalars["float"], min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_compile_float_is_bit_identical_to_tree_walk(e, values):
    env = dict(zip(NAMES, values))
    want = _outcome(reference_evaluate, e, env)
    if want[0] == "value" and isinstance(want[1], Fraction):
        want = ("value", float(want[1]))  # a tree without symbols
    got = _outcome(lambda: compile_float(e, list(NAMES))(*values))
    _assert_same_outcome(got, want)


def test_first_error_is_the_tree_walks():
    # post-order with a quotient's denominator first, as the tree walk raised
    (z,) = syms("z")
    e = (x / y) / (x / z)
    for zero in (Fraction(0), 0.0, 0):
        with pytest.raises(EvaluationDivisionError) as exc:
            e.evaluate({"x": Fraction(1), "y": zero, "z": zero})
        assert exc.value.subtree == z
    with pytest.raises(UnboundSymbolError, match="'z'"):
        e.evaluate({})
    # a missing symbol raises before any arithmetic, even where the walk divides by 0 first
    for tree in (x + 1 / Const(Fraction(0)), 1 / Const(Fraction(0)) + x):
        with pytest.raises(UnboundSymbolError, match="'x'"):
            tree.evaluate({})
    # among bound values, a constant zero denominator raises where the walk reaches it
    for value in (Fraction(1), 1, 1.0, Jet2(1.0, 2.0, 3.0)):
        with pytest.raises(EvaluationDivisionError) as exc:
            (1 / Const(Fraction(0)) + x / (x - 1)).evaluate({"x": value})
        assert exc.value.subtree == Const(Fraction(0))
    # a symbolic numerator keeps x/0 from folding; exact bindings still name the 0
    for value in (Fraction(0), Fraction(2), 0.0, 2):
        with pytest.raises(EvaluationDivisionError) as exc:
            (x / Const(Fraction(0)) * x).evaluate({"x": value})
        assert exc.value.subtree == Const(Fraction(0))


def test_exact_jet_powers_and_unit_factors():
    # the cases the generator writes specially: powers 0 to 4, a power of a constant jet,
    # and factors and denominators known to be 1
    exprs = [x**k for k in range(5)] + [Pow(x**0, 2), (x**0 - x**0) * y, 1 / x, x - 1,
                                        1 - 1 / (x * y), (x + y) / (x - y)]
    for jets in ((Jet1(Fraction(2, 3), Fraction(-5, 7)), Jet1(Fraction(3), Fraction(1, 2))),
                 (Jet2(Fraction(2, 3), Fraction(-5, 7), Fraction(4)),
                  Jet2(Fraction(3), Fraction(1, 2), Fraction(-1, 9)))):
        for env in ({"x": jets[0], "y": jets[1]}, {"x": jets[0], "y": Fraction(5, 4)},
                    {"x": Fraction(5, 4), "y": jets[1]}):
            for e in exprs:
                _assert_same_outcome(_outcome(e.evaluate, env),
                                     _outcome(reference_evaluate, e, env))


# --- exact jets on the catalogue's trees -------------------------------------

def _rational(rng):
    return Fraction(rng.randint(-99, 99), rng.randint(1, 99))


def _pv_jets(jet, names, rng):
    """t, y and yp as seeded exact jets of the class ``jet``, every other name a Fraction."""
    k = len(jet.__slots__)
    values = [_rational(rng) for _ in range(k + 1)]
    jets = {"t": jet.variable(values[0]), "y": jet(*values[:k]), "yp": jet(*values[1:])}
    return {nm: jets[nm] if nm in jets else _rational(rng) for nm in names}


def _flow_jets(system, coords, rng):
    """A seeded point's flow jets along ``system`` (seeded rates without one); None at a pole."""
    env = {nm: _rational(rng) for nm in (*maps.PARAMS, *coords)}
    if system is None:
        rates = {c: Jet1(env[c], _rational(rng)) for c in coords}
        return {**env, "t": Jet1.variable(env["t"]), **rates}
    if system.alpha_fixed is not None:
        env["alpha"] = system.alpha_fixed
    try:
        return system.along_flow(env)
    except ZeroDivisionError:
        return None


def _exact_jet_cases():
    """name -> (tree, make_env(rng)): the trees the exact checks evaluate on jets."""
    cases = {"PV_RHS@Jet1": (painleve.PV_RHS, partial(_pv_jets, Jet1, painleve.PV_RHS.symbols()))}
    order2 = {"BACKLUND_Y": painleve.BACKLUND_Y}
    order2.update({f"closed_form:{k}": c.closed_form for k, c in painleve.COMPOSITIONS.items()})
    for name, e in order2.items():
        cases[f"{name}@Jet2"] = (e, partial(_pv_jets, Jet2, e.symbols()))
    by_chart = {}
    for sid in systems.system_ids():
        system = systems.get_system(sid)
        by_chart.setdefault(tuple(system.chart), system)
        for rhs in ("rhs1", "rhs2"):
            cases[f"{sid}.{rhs}@flow"] = (getattr(system, rhs),
                                          partial(_flow_jets, system, system.chart))
    for mid, m in maps.map_registry().items():
        make = partial(_flow_jets, by_chart.get(tuple(m.target_coords)), m.target_coords)
        for coord, e in m.forward.items():
            cases[f"{mid}.{coord}@flow"] = (e, make)
    return cases


EXACT_JET_CASES = _exact_jet_cases()


@pytest.mark.parametrize("name", sorted(EXACT_JET_CASES))
def test_exact_jets_equal_the_tree_walk_on_catalogue_trees(name):
    # deep trees with Fraction parameters and exact jets: the rational jet kernel runs and
    # equals the tree walk slot for slot, or raises its error
    tree, make = EXACT_JET_CASES[name]
    e = tree.subs({})  # a fresh copy: no kernel cached by other tests
    rng = random.Random(f"exact jets:{name}")
    values = 0
    for _ in range(20):
        env = make(rng)
        if env is None:
            continue
        got, want = _outcome(e.evaluate, env), _outcome(reference_evaluate, e, env)
        _assert_same_outcome(got, want)
        values += got[0] == "value"
    assert values >= 15
    [orders] = vars(e)["_kernels"]  # one rational jet kernel ran, nothing else
    assert max(orders) > 0 and "_float_fns" not in vars(e)


def test_an_int_sign_takes_the_exact_jet_kernel():
    # backlund_apply binds the sign e3 as an int: an int reads as n/1, so the Jet2s of
    # Fractions run the rational jet kernel and give the jet a Fraction e3 gives
    e = painleve.BACKLUND_Y.subs({})  # fresh copies: no kernel cached by other tests
    fraction_sign = painleve.BACKLUND_Y.subs({})
    rng = random.Random("int sign")
    values = 0
    for _ in range(20):
        env = _pv_jets(Jet2, e.symbols(), rng)
        env["e3"] = rng.choice((1, -1))
        got = _outcome(e.evaluate, env)
        want = _outcome(fraction_sign.evaluate, {**env, "e3": Fraction(env["e3"])})
        _assert_same_outcome(got, want)
        _assert_same_outcome(got, _outcome(domain_reference, e, env))
        values += got[0] == "value"
    assert values >= 15
    [orders] = vars(e)["_kernels"]
    assert max(orders) == 2 and "_float_fns" not in vars(e)


# --- the tree operations against independent oracles -----------------------

exact_points = st.fixed_dictionaries({nm: small_fractions for nm in NAMES})


def _value(e, env):
    """``e`` at ``env``, or None where a denominator vanishes."""
    try:
        return e.evaluate(env)
    except ZeroDivisionError:
        return None


@given(e=trees, env=exact_points)
@settings(max_examples=200, deadline=None)
def test_diff_matches_forward_mode_jets(e, env):
    for name in NAMES:
        got = _value(e.diff(name), env)
        jets = {nm: (Jet2.variable if nm == name else Jet2.constant)(v) for nm, v in env.items()}
        want = _value(e, jets)
        if got is None or want is None:
            continue
        assert got == (want.d1 if isinstance(want, Jet2) else 0)  # no symbols: derivative 0


@given(e=trees, env=exact_points)
@settings(max_examples=200, deadline=None)
def test_subs_swaps_simultaneously(e, env):
    swapped = {**env, "x": env["y"], "y": env["x"]}
    got, want = _value(e.subs({"x": y, "y": x}), env), _value(e, swapped)
    if got is not None and want is not None:
        assert got == want


@given(e=trees, env=exact_points)
@settings(max_examples=200, deadline=None)
def test_as_num_den_quotient_is_the_tree(e, env):
    num, den = e.as_num_den()
    n, d, want = _value(num, env), _value(den, env), _value(e, env)
    if n is not None and d and want is not None:
        assert n / d == want


@given(e=trees)
@settings(max_examples=200, deadline=None)
def test_symbols_are_the_names_in_the_prefix_form(e):
    assert e.symbols() == set(re.findall(r"[a-z]\w*", e.to_prefix())) - {"neg"}


def test_exact_bindings_take_exact_arithmetic():
    # ints and Fractions are one exact domain: an int reads as n/1
    e = x / y
    for env in ({"x": Fraction(1), "y": Fraction(3)}, {"x": 1, "y": 3}, {"x": 1, "y": Fraction(3)}):
        got = e.evaluate(env)
        assert got == Fraction(1, 3) and type(got) is Fraction
    assert e.evaluate({"x": 1, "y": 3.0}) == 1 / 3  # a float slot makes the binding float


# --- float constants for float bindings ------------------------------------

def _catalogue_trees():
    """The trees the float PV checks evaluate, by name."""
    trees = {"PV_RHS": painleve.PV_RHS, "BACKLUND_Y": painleve.BACKLUND_Y}
    trees.update({f"closed_form:{k}": c.closed_form for k, c in painleve.COMPOSITIONS.items()})
    trees.update({f"ode2:{k}": systems.get_ode2(k).rhs for k in systems.ode2_ids()})
    return trees


CATALOGUE_TREES = _catalogue_trees()


@pytest.mark.parametrize("name", sorted(CATALOGUE_TREES))
def test_float_bindings_give_the_bits_of_fraction_constants(name):
    # float constants in place of Fraction ones: float(c) op x is what a Fraction computed
    e = CATALOGUE_TREES[name]
    names = sorted(e.symbols())
    fn = compile_float(e, names)
    rng = random.Random(f"float constants:{name}")
    for _ in range(25):
        values = [rng.uniform(-3, 3) for _ in names]
        env = dict(zip(names, values))
        want = _outcome(reference_evaluate, e, env)
        _assert_same_outcome(_outcome(e.evaluate, env), want)
        _assert_same_outcome(_outcome(fn, *values), want)


@pytest.mark.parametrize("name", sorted(CATALOGUE_TREES))
def test_float_jet_bindings_give_the_bits_of_fraction_constants(name):
    # the transform_jet shape (t, y, yp jets of either order, parameters floats),
    # then every symbol a jet
    e = CATALOGUE_TREES[name]
    rng = random.Random(f"float jet constants:{name}")
    for order in (Jet2, Jet1):
        for jets in (("t", "y", "yp"), e.symbols()):
            for _ in range(10):
                env = {nm: order(*(rng.uniform(-3, 3) for _ in order.__slots__)) if nm in jets
                       else rng.uniform(-3, 3) for nm in e.symbols()}
                _assert_same_outcome(_outcome(e.evaluate, env),
                                     _outcome(reference_evaluate, e, env))


def test_a_fraction_constant_and_its_float_give_the_same_bits_on_float_jets():
    # a scalar scales every slot and makes no zero slot, so 0.0 * c and -0.0 * c keep
    # the signs float(c) gives them, and evaluate's float constants change no bit
    signed = [Jet1(1.0, 0.0), Jet1(-0.0, -2.5), Jet2(1.0, -0.0, 0.0), Jet2(-2.0, 0.0, 0.5)]
    for c in (Fraction(-1), Fraction(1, 3), Fraction(-2, 7), Fraction(0)):
        for e in (Const(c) * x, x * Const(c), x + Const(c), Const(c) - x, x / Const(c),
                  Const(c) / x, (x - Const(c)) * (x + Const(c))):
            for jet in signed:
                env = {"x": jet}
                _assert_same_outcome(_outcome(e.evaluate, env),
                                     _outcome(reference_evaluate, e, env))
        for jet in signed:
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                for pair in ((jet, c), (c, jet)):
                    _assert_same_outcome(_outcome(op, *pair),
                                         _outcome(op, *(float(s) if s is c else s for s in pair)))
            if isinstance(jet, Jet2):  # Jet2.constant(c) is c by value; zero signs may differ
                assert Jet2.constant(float(c)) == float(c) and Jet2.constant(c) == c
                for op in (operator.add, operator.sub, operator.mul):
                    assert op(jet, Jet2.constant(float(c))) == op(jet, float(c))
                    assert op(Jet2.constant(c), jet) == op(c, jet)


def test_the_bindings_choose_one_of_two_domains():
    names = ("x", "y")
    # every slot a float: the float kernel takes the values as they are
    for values in ((1.0, Jet2(1.0, 2.0, 3.0)), (Jet1(1.0, 2.0), -0.0)):
        key, args = _domain(names, values)
        assert key is None and args is values
    # some slot a float: every exact slot is rounded once, slot for slot
    for other in (Fraction(1, 3), 1, Jet1(1.0, Fraction(2)), Jet2(Fraction(1), 2.0, 3.0),
                  Jet2(1.0, 2.0, 3)):
        key, args = _domain(names, (0.5, other))
        jet = isinstance(other, (Jet1, Jet2))
        assert key is None and args[0] == 0.5 and type(args[1]) is (type(other) if jet else float)
        assert [type(s) for s in slots(args[1])] == [float] * len(slots(other))
        assert slots(args[1]) == tuple(map(float, slots(other)))
    # every slot an int or a Fraction: each value's jet order keys the rational kernel
    for values, orders in (((1, Fraction(2)), (0, 0)), ((Jet2(1, Fraction(2), 3), 5), (2, 0)),
                           ((Fraction(1), Jet1(Fraction(1), 0)), (0, 1))):
        key, args = _domain(names, values)
        assert key == orders and args is values
    # a missing symbol first, in the walk's order; then jets of two orders; then other types
    for values in ((_MISSING, _MISSING), (1.0, _MISSING), (Jet1(1, 2), _MISSING)):
        missing = names[values.index(_MISSING)]
        with pytest.raises(UnboundSymbolError, match=f"'{missing}'"):
            _domain(names, values)
    for values in ((Jet1(1.0, 2.0), Jet2(1.0, 2.0, 3.0)), (Jet1(1, 2), Jet2(1.0, 2, 3))):
        with pytest.raises(TypeError, match="two orders"):
            _domain(names, values)
    for values in ((1.0, "1"), (Fraction(1), complex(1)), (Jet1(1, None), 1)):
        with pytest.raises(TypeError, match="cannot evaluate"):
            _domain(names, values)


def test_mixed_bindings_round_to_float_and_exact_ones_stay_exact():
    # x - c is exactly -10**-30 only in exact arithmetic; a float slot anywhere in the
    # binding rounds x, so x - c is 0.0 and y/0.0 raises, as with x bound to a float
    c = Fraction(1, 3) + Fraction(1, 10**30)
    e = y / (x - Const(c))
    assert e.evaluate({"x": Fraction(1, 3), "y": Fraction(2)}) == -2 * 10**30
    for env in ({"x": Fraction(1, 3), "y": 2.0}, {"x": float(Fraction(1, 3)), "y": 2.0},
                {"x": Fraction(1, 3), "y": Jet1(2.0, 0.0)}):
        with pytest.raises(EvaluationDivisionError) as exc:
            e.evaluate(env)
        assert exc.value.subtree == x - Const(c)
    # two exact values in a float binding meet as floats: 0.1 * 0.1 is not float(1/100)
    assert (x * x * y).evaluate({"x": Fraction(1, 10), "y": 1.0}) == 0.1 * 0.1 != 0.01
    # an exact jet keeps Fraction slots
    j = (x * Const(Fraction(1, 3)) - 2 * y).evaluate(
        {"x": Jet2(Fraction(1), Fraction(2), Fraction(3)), "y": Jet2.variable(Fraction(5))})
    assert (j.v, j.d1, j.d2) == (Fraction(-29, 3), Fraction(-4, 3), Fraction(1))
    assert all(type(s) is Fraction for s in (j.v, j.d1, j.d2))


def test_a_constant_beyond_float_range_still_evaluates_exactly():
    # no float constant exists for it: exact bindings work, a float meets the Fraction
    e = Const(Fraction(10) ** 400) * x
    assert e.evaluate({"x": Fraction(1, 10**399)}) == 10
    with pytest.raises(OverflowError):
        e.evaluate({"x": 1.0})


def test_a_float_zero_denominator_names_its_subtree():
    den = y - Const(Fraction(2))
    for zero in (2.0, Jet2(2.0, 1.0, 0.0)):
        with pytest.raises(EvaluationDivisionError) as exc:
            (x / den).evaluate({"x": 1.5, "y": zero})
        assert exc.value.subtree == den
    with pytest.raises(EvaluationDivisionError) as exc:
        (x / Const(Fraction(0)) + x).evaluate({"x": Jet2(1.0, 2.0, 3.0)})
    assert exc.value.subtree == Const(Fraction(0))


def test_structural_equality_and_hash():
    # equal trees built apart compare and hash equal; any differing node breaks equality
    a = (x + 1) * y / (x - y) ** 2
    b = (x + 1) * y / (x - y) ** 2
    assert a == b and hash(a) == hash(b) and a is not b
    assert Const(Fraction(1)) == Const(1) and hash(Const(Fraction(1))) == hash(Const(1))
    for other in ((x + 1) * y / (x - y) ** 3, (x + 1) * y / (y - x) ** 2,
                  (x + 2) * y / (x - y) ** 2, (x + 1) * x / (x - y) ** 2,
                  (x + 1) * y * (x - y) ** 2, Add(x, y), x):
        assert a != other and not a == other
    assert (x == "x") is False and x != 1
    # a subtree shared by reference equals the same subtree built twice
    s = x * y
    assert s + s == x * y + x * y


def test_deep_trees_compile_and_evaluate():
    # a chain 1000 nodes deep: no recursion or parenthesis-nesting limit is hit
    e, exact, approx = x, Fraction(1, 2), 0.5
    for _ in range(1000):
        e = e * x + 1
        exact = exact * Fraction(1, 2) + 1
        approx = approx * 0.5 + 1.0
    assert e.evaluate({"x": Fraction(1, 2)}) == exact
    assert e.evaluate({"x": 0.5}) == approx
    assert compile_float(e, ["x"])(0.5) == approx
    # every tree operation walks iteratively too, == and hash included
    half = {"x": Fraction(1, 2)}
    f = x
    for _ in range(1000):
        f = f * x + 1
    assert e == f and hash(e) == hash(f) and e is not f
    assert e != f * x + 1 and e != (f - 1) + 1
    assert len({e, f, e.subs({})}) == 1
    assert e.diff("x").evaluate(half) == e.evaluate({"x": Jet2.variable(Fraction(1, 2))}).d1
    assert e.subs({}).evaluate(half) == exact
    assert e.symbols() == {"x"}
    assert e.to_prefix().count("(") == 2000
    num, den = e.as_num_den()
    assert num.evaluate(half) == exact and den.evaluate(half) == 1
    # the division error names a deep denominator
    d = x
    for _ in range(999):
        d = d * x
    with pytest.raises(EvaluationDivisionError) as exc:
        (1 / d).evaluate({"x": Fraction(0)})
    assert exc.value.subtree is d
