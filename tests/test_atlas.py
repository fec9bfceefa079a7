"""Cells, fiber component counts, and the full census pipeline."""
import json
from fractions import Fraction as Q

import pytest

from fiberatlas import atlas
from fiberatlas.atlas import (
    ParameterCell,
    UnsupportedModeError,
    components_complement,
    fiber_b0,
    grid_b0,
    interior_points,
    run_atlas,
)
from fiberatlas.eliminate import DiscriminantSet
from fiberatlas.polycore import Ring, parse_polynomial
from fiberatlas.semialg import SignCondition, parse_formula

R = Ring(1, 1)


def P(text, ring=R):
    return parse_polynomial(text, ring)


def _disc(roots):
    return DiscriminantSet((), tuple(roots))


def test_components_no_roots_single_cell():
    cells = components_complement(_disc([]))
    assert len(cells) == 1
    assert cells[0].left is None and cells[0].right is None
    assert cells[0].sample == 0


def test_components_two_roots_three_cells():
    cells = components_complement(
        _disc([(Q(1), Q(1), 0), (Q(2), Q(2), 0)]))
    assert len(cells) == 3
    assert cells[0].right == Q(1) and cells[1].left == Q(1)
    assert cells[1].sample == Q(3, 2)
    assert cells[0].sample < Q(1) < cells[1].sample < Q(2) < cells[2].sample


def test_components_interval_roots_use_hulls():
    cells = components_complement(
        _disc([(Q(0), Q(1, 2), 0), (Q(3), Q(4), 0)]))
    assert len(cells) == 3
    assert cells[1].left == Q(1, 2) and cells[1].right == Q(3)


def test_components_overlapping_roots_rejected():
    with pytest.raises(ValueError):
        components_complement(_disc([(Q(0), Q(2), 0), (Q(1), Q(3), 0)]))


def test_cell_contains():
    cell = ParameterCell(Q(0), Q(1), Q(1, 2))
    assert cell.contains(Q(1, 3))
    assert not cell.contains(Q(2))
    unbounded = ParameterCell(None, Q(1), Q(0))
    assert unbounded.contains(Q(-100))


def test_interior_points_stay_inside():
    for cell in (
        ParameterCell(Q(0), Q(1), Q(1, 2)),
        ParameterCell(None, Q(1), Q(0)),
        ParameterCell(Q(1), None, Q(2)),
    ):
        pts = interior_points(cell, 3)
        assert len(set(pts)) == 3
        for t in pts:
            assert cell.contains(t)


def test_fiber_b0_band_example():
    f = parse_formula("(X1^2 + Y1 - 3/4 >= 0) and (X1^2 + Y1 - 5/4 <= 0)", R)
    assert fiber_b0(f, Q(0), 1).b0 == 2
    assert fiber_b0(f, Q(1), 1).b0 == 1
    assert fiber_b0(f, Q(9, 4), 1).b0 == 0


def test_fiber_b0_grid_matches_exact_on_band():
    f = parse_formula("(X1^2 + Y1 - 3/4 >= 0) and (X1^2 + Y1 - 5/4 <= 0)", R)
    for y in (Q(0), Q(1), Q(9, 4), Q(-3)):
        exact = fiber_b0(f, y, 1).b0
        grid = grid_b0(f, y, Q(1, 1024))
        assert exact == grid


def test_fiber_b0_isolated_points_counted():
    f = parse_formula("(X1 - 1)*(X1 - 2) = 0", R)
    rep = fiber_b0(f, Q(0), 1)
    assert rep.b0 == 2
    assert rep.method == "exact-univariate"


def test_fiber_b0_true_false_formulas():
    from fiberatlas.semialg import FALSE, TRUE

    assert fiber_b0(FALSE, Q(0), 1).b0 == 0
    assert fiber_b0(TRUE, Q(0), 1).b0 == 1


def test_fiber_b0_refuses_two_fiber_vars_in_either_mode():
    ring = Ring(2, 1)
    f = parse_formula("X1^2 + X2^2 + Y1 - 1 <= 0", ring)
    with pytest.raises(UnsupportedModeError, match="m = 2"):
        fiber_b0(f, Q(0), 2)
    with pytest.raises(UnsupportedModeError, match="m = 2"):
        grid_b0(f, Q(0), Q(1, 8))


def test_run_atlas_quadric_census():
    base = (P("X1^2 + Y1 - 1"),)
    report = run_atlas(base, [SignCondition(base, (0,))], 1)
    assert len(report.cells) == 3
    assert sorted(f.b0 for f in report.fibers) == [0, 1, 2]
    assert report.distinct_signatures == 3
    assert report.stabilization


def test_run_atlas_empty_sigma():
    base = (P("X1^2 + Y1 - 1"),)
    report = run_atlas(base, [], 1)
    assert len(report.cells) == 1
    assert report.fibers[0].b0 == 0


def test_run_atlas_empty_base_rejected():
    with pytest.raises(ValueError):
        run_atlas((), [], 1)


def test_report_json_shape():
    base = (P("X1^2 + Y1 - 1"),)
    report = run_atlas(base, [SignCondition(base, (0,))], 1)
    data = json.loads(report.to_json())
    assert data["stabilization"] is True
    assert len(data["cells"]) == len(data["fibers"]) == 3
    assert data["fibers"][0]["sample"].count("/") == 1
    table = report.to_table()
    assert "distinct signatures: 3" in table


def _unstable_runs(monkeypatch):
    """Replace _single_run by one whose census never stabilizes (its cell
    count follows delta); returns the list of deltas it is called with."""
    calls = []

    def fake(base, sigma_set, m, delta):
        calls.append(delta)
        k = delta.denominator.bit_length()
        return ((ParameterCell(None, None, Q(0)),) * k,
                (atlas.FiberReport(Q(0), 1, "exact-univariate"),) * k)

    monkeypatch.setattr(atlas, "_single_run", fake)
    return calls


def test_refinement_round_reuses_the_delta_squared_run(monkeypatch):
    calls = _unstable_runs(monkeypatch)
    base = (P("X1^2 + Y1 - 1"),)
    d = Q(1, 64)
    report = run_atlas(base, [], 1, delta=d)
    assert calls == [d, d ** 2, d ** 4, d ** 8]  # REFINE_ROUNDS + 1 runs
    assert not report.stabilization
    assert report.delta_used == d ** 4


def test_proportional_members_stabilize_at_the_first_delta():
    """X1 - Y1 and 64*(X1 - Y1) shifted by powers of delta = 1/64 share a
    factor; the census is still taken at 1/64, with one cell of b0 1."""
    base = (P("X1 - Y1"), P("64*X1 - 64*Y1"))
    report = run_atlas(base, [SignCondition(base, (1, 1))], 1)
    assert report.delta_used == Q(1, 64)
    assert report.stabilization
    assert [f.b0 for f in report.fibers] == [1]


ROWS = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]


@pytest.mark.parametrize("texts", [
    *(("X1 - Y1", f"{c}*(X1 - Y1)") for c in ("64", "-64", "1/64", "-1/64")),
    *(("X1^2 + Y1", f"{c}*(X1^2 + Y1)") for c in ("64", "-64", "1/64")),
])
def test_single_run_on_proportional_members_at_delta_1_64(texts):
    """Members shifted from proportional base polynomials share factors
    at delta = 1/64 for some sign rows; every row gives a census."""
    base = tuple(P(t) for t in texts)
    for row in ROWS:
        cells, fibers = atlas._single_run(base, [SignCondition(base, row)], 1, Q(1, 64))
        assert len(cells) == len(fibers) >= 1, row


@pytest.mark.parametrize("n", [2, 0])
def test_run_atlas_refuses_n_other_than_1_before_any_run(monkeypatch, n):
    def never(*args):
        raise AssertionError("_single_run called")

    monkeypatch.setattr(atlas, "_single_run", never)
    ring = Ring(1, n)
    base = (P("X1 - 1", ring),)
    with pytest.raises(UnsupportedModeError, match=f"n = {n}"):
        run_atlas(base, [SignCondition(base, (0,))], 1, n)


def test_fiber_b0_grid_refuses_above_the_sample_cap():
    """A grid has 2 * radius / pitch + 1 samples: 32,769 at pitch 1/1024
    are counted, 2^20 + 1 at pitch 1/32768 are refused, and so is any
    grid at m = 2."""
    f = parse_formula("X1^2 + Y1 - 1 <= 0", R)
    assert grid_b0(f, Q(0), Q(1, 1024)) == 1
    with pytest.raises(UnsupportedModeError, match="above the cap"):
        grid_b0(f, Q(0), Q(1, 32768))
    g = parse_formula("X1^2 + X2^2 + Y1 - 1 <= 0", Ring(2, 1))
    with pytest.raises(UnsupportedModeError):
        grid_b0(g, Q(0), Q(1, 32))
