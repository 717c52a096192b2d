import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerbook import BoundsError, build_constraints, lp
from centerbook.cli import parse_agent
from centerbook.lp import find_feasible_point
from helpers import phase_one_by_fractions

F = Fraction


def _satisfies(point, rows):
    for coeffs, op, rhs in rows:
        value = sum(coeffs.get(name, F(0)) * point[name] for name in point)
        if op == "<=" and not value <= rhs:
            return False
        if op == ">=" and not value >= rhs:
            return False
    return True


def test_simple_feasible_system():
    rows = [({"x": F(1), "y": F(1)}, "<=", F(1)), ({"x": F(1)}, ">=", F(1, 2))]
    bounds = {"x": (F(0), F(1)), "y": (F(0), F(1))}
    point = find_feasible_point(rows, bounds)
    assert point is not None
    assert _satisfies(point, rows)
    assert F(0) <= point["x"] <= F(1) and F(0) <= point["y"] <= F(1)


def test_infeasible_against_bounds():
    assert find_feasible_point([({"x": F(1)}, ">=", F(2))], {"x": (F(0), F(1))}) is None


def test_negative_rhs_exercises_artificials():
    rows = [({"x": F(1)}, "<=", F(-1))]
    assert find_feasible_point(rows, {"x": (F(0), F(5))}) is None
    rows = [({"x": F(-1)}, "<=", F(-1))]  # i.e. x >= 1
    point = find_feasible_point(rows, {"x": (F(0), F(5))})
    assert point is not None and point["x"] >= 1


def test_equality_via_opposing_inequalities():
    rows = [({"x": F(3)}, ">=", F(1)), ({"x": F(3)}, "<=", F(1))]
    point = find_feasible_point(rows, {"x": (F(0), F(1))})
    assert point == {"x": F(1, 3)}


def test_fixed_variables_fold_into_constants():
    rows = [({"x": F(1), "y": F(1)}, ">=", F(3))]
    point = find_feasible_point(rows, {"x": (F(2), F(2)), "y": (F(0), F(4))})
    assert point is not None and point["x"] == F(2) and point["x"] + point["y"] >= 3
    assert find_feasible_point(
        [({"x": F(1)}, ">=", F(3))], {"x": (F(2), F(2))}
    ) is None


def test_empty_bounds_rejected():
    with pytest.raises(BoundsError):
        find_feasible_point([], {"x": (F(2), F(1))})


def test_unknown_variable_rejected():
    with pytest.raises(BoundsError):
        find_feasible_point([({"ghost": F(1)}, "<=", F(1))], {"x": (F(0), F(1))})


def test_no_constraints_returns_lower_corner():
    assert find_feasible_point([], {"x": (F(3), F(7))}) == {"x": F(3)}


def test_random_systems_match_grid_oracle():
    rng = random.Random(11)
    names = ["x", "y"]
    bounds = {name: (F(0), F(4)) for name in names}
    grid = [F(v) for v in range(5)]
    for _ in range(120):
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {name: F(rng.randint(-3, 3)) for name in names}
            rows.append((coeffs, rng.choice(["<=", ">="]), F(rng.randint(-5, 5))))
        point = find_feasible_point(rows, bounds)
        grid_hit = any(
            _satisfies({"x": x, "y": y}, rows) for x, y in itertools.product(grid, grid)
        )
        if point is not None:
            assert _satisfies(point, rows)
            assert all(F(0) <= point[name] <= F(4) for name in names)
        else:
            # solver says infeasible over the box, so the grid must agree
            assert not grid_hit


def _with_both_kernels(rows, bounds):
    """find_feasible_point run on the integer kernel and on the Fraction reference."""
    point = find_feasible_point(rows, bounds)
    with mock.patch.object(lp, "_phase_one", phase_one_by_fractions):
        reference = find_feasible_point(rows, bounds)
    return point, reference


def _random_rational(rng, top):
    return F(rng.randint(-top, top), rng.randint(1, 12))


def _random_system(rng):
    """1-6 variables, 1-10 rows, denominators up to 12, some variables fixed.

    Most rows hold at an anchor point inside the bounds, so about half of the
    systems are feasible.
    """
    bounds, anchor = {}, {}
    for name in (f"v{k}" for k in range(rng.randint(1, 6))):
        lo = _random_rational(rng, 6)
        hi = lo if rng.random() < 0.2 else lo + abs(_random_rational(rng, 24))
        bounds[name] = (lo, hi)
        anchor[name] = lo + (hi - lo) * F(rng.randint(0, 4), 4)
    rows = []
    for _ in range(rng.randint(1, 10)):
        picked = rng.sample(sorted(bounds), rng.randint(1, len(bounds)))
        coeffs = {name: _random_rational(rng, 12) for name in picked}
        value = sum(c * anchor[name] for name, c in coeffs.items())
        slack = abs(_random_rational(rng, 6)) * (1 if rng.random() < 0.7 else -1)
        op = rng.choice(["<=", ">="])
        rows.append((coeffs, op, value + slack if op == "<=" else value - slack))
    return rows, bounds


def test_integer_kernel_matches_fraction_reference_on_seeded_systems():
    outcomes = set()
    for seed in range(300):
        rows, bounds = _random_system(random.Random(seed))
        point, reference = _with_both_kernels(rows, bounds)
        assert point == reference, seed
        if point is not None:
            assert _satisfies(point, rows)
        outcomes.add(point is None)
    assert outcomes == {True, False}


def _fractions(top):
    return st.builds(F, st.integers(-top, top), st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(_fractions(12), min_size=3, max_size=3),
            st.sampled_from(["<=", ">="]),
            _fractions(30),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_integer_kernel_matches_fraction_reference_on_drawn_rows(drawn):
    names = ["x", "y", "z"]
    bounds = {"x": (F(0), F(7)), "y": (F(-2), F(5, 2)), "z": (F(3, 4), F(3, 4))}
    rows = [(dict(zip(names, coeffs)), op, rhs) for coeffs, op, rhs in drawn]
    point, reference = _with_both_kernels(rows, bounds)
    assert point == reference


@pytest.mark.parametrize("rule", ["halfer", "halfer-ra", "thirder"])
@pytest.mark.parametrize("theory", ["cdt", "edt"])
def test_integer_kernel_matches_fraction_reference_on_wbg_systems(
    wbg, wbg_template, rule, theory
):
    constraints = build_constraints(parse_agent(f"{rule}+{theory}"), wbg, wbg_template, F(1))
    rows = [(dict(c.coeffs), c.op, c.rhs) for c in constraints]
    point, reference = _with_both_kernels(rows, wbg_template.bounds())
    assert point == reference
