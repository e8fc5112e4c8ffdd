import numpy as np
import pytest

from actsens import (
    InvalidBounds,
    ParameterCuboid,
    SamplingError,
    analyze_global,
    build_sample_matrices,
    evaluate_family,
    vbs_tsi,
)
from actsens.globalsens import (
    _FIRST_PRIMES, _blocks, _family_rows, _halton_points, _rows_valid,
)
from actsens.presets import family_evaluator, builtin_cuboid, row_validity

UNIT2 = ParameterCuboid.from_dict({"x1": (0.0, 1.0), "x2": (0.0, 1.0)})
UNIT3 = ParameterCuboid.from_dict({"x1": (0.0, 1.0), "x2": (0.0, 1.0),
                                   "x3": (0.0, 1.0)})
GRID = np.array([0.0, 1.0])


def constant_in_time(values):
    """Trajectory ensemble that repeats a per-row scalar at every time."""
    return np.repeat(np.asarray(values, dtype=float)[:, None], GRID.size, axis=1)


# ---------------------------------------------------------------------------
# sample-matrix construction
# ---------------------------------------------------------------------------


def test_single_parameter_swap_is_total_swap():
    cub = ParameterCuboid.from_dict({"x": (0.0, 1.0)})
    m = build_sample_matrices(cub, n=8, seed=3)
    _, _, a_swapped, b_swapped = _blocks(_family_rows(m.a, m.b), m.n)
    assert np.array_equal(a_swapped[0], m.b)
    assert np.array_equal(b_swapped[0], m.a)


def test_matrices_are_deterministic_and_in_bounds():
    cub = ParameterCuboid.from_dict({"x1": (-1.0, 2.0), "x2": (5.0, 6.0)})
    m1 = build_sample_matrices(cub, n=4, seed=11)
    m2 = build_sample_matrices(cub, n=4, seed=11)
    assert np.array_equal(m1.a, m2.a) and np.array_equal(m1.b, m2.b)
    assert np.array_equal(_family_rows(m1.a, m1.b), _family_rows(m2.a, m2.b))
    for arr in (m1.a, m1.b):
        assert np.all(arr >= cub.lower) and np.all(arr <= cub.upper)
    m3 = build_sample_matrices(cub, n=4, seed=12)
    assert not np.array_equal(m1.a, m3.a)


def test_swap_structure():
    m = build_sample_matrices(UNIT3, n=16, seed=0)
    rows = _family_rows(m.a, m.b)
    assert rows.shape == (2 * 16 * (3 + 1), 3)
    a, b, a_swapped, b_swapped = _blocks(rows, 16)
    assert np.array_equal(a, m.a) and np.array_equal(b, m.b)
    for i in range(3):
        other = [j for j in range(3) if j != i]
        assert np.array_equal(a_swapped[i][:, other], m.a[:, other])
        assert np.array_equal(a_swapped[i][:, i], m.b[:, i])
        assert np.array_equal(b_swapped[i][:, other], m.b[:, other])
        assert np.array_equal(b_swapped[i][:, i], m.a[:, i])


def test_invalid_bounds_rejected_but_degenerate_allowed():
    with pytest.raises(InvalidBounds):
        ParameterCuboid.from_dict({"x": (1.0, 0.0)})
    cub = ParameterCuboid.from_dict({"x1": (0.0, 1.0), "x2": (0.7, 0.7)})
    m = build_sample_matrices(cub, n=8, seed=1)
    assert np.all(m.a[:, 1] == 0.7) and np.all(m.b[:, 1] == 0.7)


def test_validity_predicate_holds_for_all_swaps():
    validity = row_validity("hatze")
    cub = builtin_cuboid("hatze")
    m = build_sample_matrices(cub, n=64, seed=7, validity=validity)
    names = cub.names
    for row in _family_rows(m.a, m.b):
        assert validity(dict(zip(names, row)))


def test_halton_sampler_deterministic_and_valid():
    cub = builtin_cuboid("zajac")
    m1 = build_sample_matrices(cub, n=16, seed=5, sampler="halton",
                               validity=row_validity("zajac"))
    m2 = build_sample_matrices(cub, n=16, seed=5, sampler="halton",
                               validity=row_validity("zajac"))
    assert np.array_equal(m1.a, m2.a)
    assert np.all(m1.a >= cub.lower) and np.all(m1.a <= cub.upper)


def _row_valid_per_row(names, validity, row_a, row_b):
    """One row pair checked with a dict of scalars per A, B and swap row."""
    if not validity(dict(zip(names, row_a))) or not validity(dict(zip(names, row_b))):
        return False
    for i in range(len(names)):
        sa, sb = row_a.copy(), row_b.copy()
        sa[i], sb[i] = row_b[i], row_a[i]
        if not validity(dict(zip(names, sa))) or not validity(dict(zip(names, sb))):
            return False
    return True


VALIDITY_CASES = {
    "zajac": (builtin_cuboid("zajac"), row_validity("zajac")),
    "hatze": (builtin_cuboid("hatze"), row_validity("hatze")),
    # three columns: a B swap is not an A swap in disguise
    "sum-below-two": (UNIT3, lambda row: row["x1"] + row["x2"] + row["x3"] < 2.0),
}


@pytest.mark.parametrize("case", list(VALIDITY_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rows_valid_equals_per_row_dict_evaluation(case, seed):
    cub, validity = VALIDITY_CASES[case]
    # raw draws, before any rejection: some rows are invalid
    u = np.random.default_rng(seed).random((400, 2, cub.n_params))
    a, b = cub.scale(u[:, 0]), cub.scale(u[:, 1])
    expect = [_row_valid_per_row(cub.names, validity, ra, rb) for ra, rb in zip(a, b)]
    got = _rows_valid(cub, validity, a, b)
    assert got.dtype == bool and got.tolist() == expect
    assert 0 < got.sum() < got.size
    assert _rows_valid(cub, lambda row: False, a, b).tolist() == [False] * 400
    assert _rows_valid(cub, None, a, b).all()


def test_halton_points_equal_the_scalar_van_der_corput_sequence():
    def point(index, dims):
        out = []
        for base in _FIRST_PRIMES[:dims]:
            i, f, x = index, 1.0, 0.0
            while i > 0:
                f /= base
                x += f * (i % base)
                i //= base
            out.append(x)
        return out

    indices = np.array([0, 1, 2, 7, 99, 1000, 1_000_004, 3 * 1_000_003 + 17])
    expect = [point(int(k), 16) for k in indices]
    assert _halton_points(indices, 16).tolist() == expect


def test_impossible_validity_raises():
    cub = ParameterCuboid.from_dict({"x": (0.0, 1.0)})
    with pytest.raises(SamplingError):
        build_sample_matrices(cub, n=2, seed=0, validity=lambda row: False,
                              max_draws=50)


# ---------------------------------------------------------------------------
# family evaluation
# ---------------------------------------------------------------------------


def test_constant_model_gives_identical_trajectories_and_zero_variance():
    m = build_sample_matrices(UNIT2, n=32, seed=2)
    fam = evaluate_family(lambda rows, grid: np.full((rows.shape[0], grid.size), 3.5),
                          m, GRID)
    assert fam.n_evaluations == 2 * 32 * (2 + 1)
    assert np.all(fam.values == 3.5)
    res = vbs_tsi(fam, m)
    assert np.all(res.undefined)
    assert np.all(np.isnan(res.vbs))


def test_evaluation_count_matches_sample_arithmetic():
    cub = builtin_cuboid("zajac")  # N = 5
    m = build_sample_matrices(cub, n=16, seed=0, validity=row_validity("zajac"))
    fam = evaluate_family(family_evaluator("zajac"), m, np.linspace(0.0, 0.2, 5))
    assert fam.n_evaluations == 16 * 2 * (5 + 1)


def test_failed_rows_are_resampled_not_zero_filled():
    m = build_sample_matrices(UNIT2, n=16, seed=9)
    state = {"calls": 0}

    def flaky(rows, grid):
        state["calls"] += 1
        out = np.repeat(rows[:, :1], grid.size, axis=1)
        if state["calls"] == 1:  # first pass: rows with small x1 fail
            out[rows[:, 0] < 0.4] = np.nan
        return out

    fam = evaluate_family(flaky, m, GRID)
    assert np.all(np.isfinite(fam.values))
    assert len(fam.resampled_rows) > 0


def test_values_are_the_stacked_blocks_after_resampling():
    m = build_sample_matrices(UNIT2, n=16, seed=9)
    state = {"calls": 0}

    def flaky(rows, grid):
        state["calls"] += 1
        out = np.repeat(rows[:, :1], grid.size, axis=1)
        if state["calls"] == 1:
            out[rows[:, 0] < 0.4] = np.nan
        return out

    fam = evaluate_family(flaky, m, GRID)
    assert len(fam.resampled_rows) > 0
    values = fam.values
    assert values.flags.c_contiguous and values.shape == (2 * 16 * 3, GRID.size)
    y_a, y_b, y_as, y_bs = _blocks(values, fam.n)
    parts = [y_a, y_b, y_as.reshape(-1, GRID.size), y_bs.reshape(-1, GRID.size)]
    assert all(np.shares_memory(part, values) for part in parts)
    assert np.array_equal(values, np.concatenate(parts))
    # the resampled solutions were written through: values matches the
    # final sample rows
    final = _family_rows(m.a, m.b)
    assert np.array_equal(values, np.repeat(final[:, :1], GRID.size, axis=1))


def test_evaluation_count_includes_resampled_rows():
    m = build_sample_matrices(UNIT2, n=16, seed=9)
    state = {"calls": 0}

    def one_failure(rows, grid):
        state["calls"] += 1
        out = np.repeat(rows[:, :1], grid.size, axis=1)
        if state["calls"] == 1:  # first pass: one base row fails once
            out[3] = np.nan
        return out

    fam = evaluate_family(one_failure, m, GRID)
    assert fam.resampled_rows == (3,)
    n, N = 16, 2
    assert fam.n_evaluations == 2 * n * (N + 1) + 2 * (N + 1)
    res = vbs_tsi(fam, m)
    assert res.resampled_rows == 1
    assert res.n_evaluations == fam.n_evaluations


def test_unrecoverable_rows_raise():
    m = build_sample_matrices(UNIT2, n=4, seed=9)

    def broken(rows, grid):
        return np.full((rows.shape[0], grid.size), np.nan)

    with pytest.raises(SamplingError):
        evaluate_family(broken, m, GRID, max_retries=2)


# ---------------------------------------------------------------------------
# variance decomposition on analytic models
# ---------------------------------------------------------------------------


def _global(fun, cuboid, n=2048, seed=17):
    m = build_sample_matrices(cuboid, n=n, seed=seed)
    fam = evaluate_family(lambda rows, grid: constant_in_time(fun(rows)), m, GRID)
    return vbs_tsi(fam, m)


def test_identity_map_attributes_all_variance_to_its_parameter():
    res = _global(lambda rows: rows[:, 0], UNIT3)
    assert res.vbs[0, 0] == pytest.approx(1.0, abs=0.05)
    assert res.tsi[0, 0] == pytest.approx(1.0, abs=0.05)
    for i in (1, 2):
        assert abs(res.vbs[i, 0]) < 0.05
        assert abs(res.tsi[i, 0]) < 0.05


def test_additive_model_splits_variance_evenly():
    res = _global(lambda rows: rows[:, 0] + rows[:, 1], UNIT2)
    for i in range(2):
        assert res.vbs[i, 0] == pytest.approx(0.5, abs=0.05)
        assert res.tsi[i, 0] == pytest.approx(0.5, abs=0.05)


def test_pure_interaction_model_has_no_first_order_share():
    res = _global(lambda rows: (rows[:, 0] - 0.5) * (rows[:, 1] - 0.5), UNIT2)
    for i in range(2):
        assert abs(res.vbs[i, 0]) < 0.05
        assert res.tsi[i, 0] == pytest.approx(1.0, abs=0.05)


def test_degenerate_column_has_no_effect():
    cub = ParameterCuboid.from_dict({"x1": (0.0, 1.0), "x2": (0.7, 0.7)})
    res = _global(lambda rows: rows[:, 0] + rows[:, 1], cub)
    assert res.vbs[1, 0] == pytest.approx(0.0, abs=1e-12)
    assert res.tsi[1, 0] == pytest.approx(0.0, abs=0.05)
    assert res.vbs[0, 0] == pytest.approx(1.0, abs=0.05)


def test_index_bounds_and_consistency():
    res = _global(lambda rows: rows[:, 0] + 0.3 * rows[:, 1] * rows[:, 2], UNIT3)
    assert np.all(res.v_total >= 0.0)
    assert np.all(res.vbs >= 0.0) and np.all(res.vbs <= 1.05)
    assert np.all(res.tsi >= 0.0)
    assert res.vbs[:, 0].sum() <= 1.05
    assert res.tsi[:, 0].sum() >= 0.95
    assert np.all(res.tsi[:, 0] >= res.vbs[:, 0] - 0.05)


def test_global_analysis_is_bit_reproducible():
    cub = builtin_cuboid("zajac")
    grid = np.linspace(0.0, 0.2, 6)
    kw = dict(n=32, seed=123, grid=grid, validity=row_validity("zajac"))
    r1 = analyze_global(family_evaluator("zajac"), cub, **kw)
    r2 = analyze_global(family_evaluator("zajac"), cub, **kw)
    assert np.array_equal(r1.vbs, r2.vbs)
    assert np.array_equal(r1.tsi, r2.tsi)
    assert np.array_equal(r1.v_total, r2.v_total)
