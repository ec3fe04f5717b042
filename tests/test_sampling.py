import random
from fractions import Fraction

import pytest

from krawpv.expr import UnboundSymbolError, syms
from krawpv.sampling import MAX_RESAMPLES_PER_POINT, Sampler, run_case

x, z = syms("x z")


def points(*values):
    """A draw that hands out x = values[0], values[1], ... in turn."""
    it = iter(values)
    return lambda: {"x": Fraction(next(it))}


def test_singular_points_are_redrawn_and_counted():
    # 1/x raises EvaluationDivisionError at x = 0; the check raises ZeroDivisionError at x = 5
    def check(env):
        if env["x"] == 5:
            raise ZeroDivisionError
        (1 / x).evaluate(env)
        return []

    sampler = Sampler(random.Random(0))
    case = run_case("c", sampler, 3, points(0, 1, 5, 0, 2, 3), check)
    assert (case.id, case.status, case.samples, case.resamples) == ("c", "PASS", 3, 3)
    assert case.failures == [] and case.residual == "0"


def test_resamples_include_rejections_inside_draw():
    sampler = Sampler(random.Random(0))
    case = run_case(
        "c", sampler, 5, lambda: sampler.draw(["x"], reject=lambda e: e["x"] < 0),
        lambda env: [],
    )
    assert case.samples == 5
    assert case.resamples == sampler.resamples > 0


def test_failures_are_numbered_by_completed_sample():
    def check(env):
        (1 / x).evaluate(env)
        return ["first", "second"] if env["x"] == 2 else []

    case = run_case("c", Sampler(random.Random(0)), 3, points(0, 1, 0, 2, 3), check)
    assert (case.status, case.residual, case.samples, case.resamples) == ("FAIL", "nonzero", 3, 2)
    assert case.failures == ["sample 2: first", "sample 2: second"]


def test_always_singular_check_fails_instead_of_raising():
    def check(env):
        raise ZeroDivisionError

    sampler = Sampler(random.Random(0))
    case = run_case("c", sampler, 2, lambda: sampler.draw(["x"]), check)
    assert (case.status, case.samples) == ("FAIL", 0)
    assert case.resamples == 2 * MAX_RESAMPLES_PER_POINT + 1
    assert case.failures == ["sampling exhausted after 0 samples"]


def test_a_typo_is_not_taken_for_a_pole():
    # 1/(x - x) vanishes at every point, but z is unbound: the check is wrong, not singular,
    # so the missing symbol raises before any arithmetic instead of exhausting the sampler
    def check(env):
        (1 / (x - x) + z).evaluate(env)
        return []

    sampler = Sampler(random.Random(0))
    with pytest.raises(UnboundSymbolError, match="'z'"):
        run_case("c", sampler, 50, lambda: sampler.draw(["x"]), check)
    assert sampler.resamples == 0


def test_exhausted_draw_fails_after_completed_samples():
    sampler = Sampler(random.Random(0))
    draws = iter([{"x": Fraction(1)}])

    def draw():
        # one admissible point, then a draw that rejects everything
        return next(draws, None) or sampler.draw(["x"], reject=lambda e: True)

    case = run_case("c", sampler, 3, draw, lambda env: [])
    assert (case.status, case.samples, case.resamples) == ("FAIL", 1, MAX_RESAMPLES_PER_POINT)
    assert case.failures == ["sampling exhausted after 1 samples"]


@pytest.mark.parametrize("samples", [0, -3])
def test_nonpositive_samples_rejected(samples):
    with pytest.raises(ValueError):
        run_case("c", Sampler(random.Random(0)), samples, points(1), lambda env: [])
