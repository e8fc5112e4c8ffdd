import math

import numpy as np
import pytest

from actsens import (
    InvalidBounds,
    ParameterCuboid,
    ParameterOutOfRange,
    PoleViolation,
    SamplingError,
    analyze_global,
    build_sample_matrices,
    evaluate_family,
    globalsens,
    hatze_model,
    presets,
    vbs_tsi,
    zajac_model,
)
from actsens.globalsens import (
    _FIRST_PRIMES, FamilyEvaluation, _blocks, _family_rows, _halton_points, _rows_valid,
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


@pytest.mark.parametrize("bad", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan),
                                 (math.nan, 1.0), (math.nan, math.nan)])
def test_non_finite_bounds_rejected_naming_the_parameter(bad):
    with pytest.raises(InvalidBounds, match=r"finite for \['x'\]"):
        ParameterCuboid.from_dict({"x": bad, "y": (0.0, 1.0)})


@pytest.mark.parametrize("name, factory", [("zajac", zajac_model), ("hatze", hatze_model)])
def test_builtin_cuboid_follows_canonical_order(name, factory):
    # family_evaluator unpacks a row positionally in this order
    assert builtin_cuboid(name).names == factory().canonical_order


def test_validity_predicate_holds_for_all_swaps():
    for model in ("hatze", "zajac"):
        validity = row_validity(model)
        cub = builtin_cuboid(model)
        m = build_sample_matrices(cub, n=64, seed=7, validity=validity)
        names = cub.names
        for row in _family_rows(m.a, m.b):
            assert validity(dict(zip(names, row)))


# cuboids reaching past every limit of each model's field ranges (canonical order)
STRADDLING = {
    "zajac": {"q_Z0": (-0.2, 1.2), "sigma": (-0.2, 1.2), "q0": (-0.2, 1.2),
              "tau": (-0.01, 0.05), "beta": (-0.2, 1.2)},
    "hatze": {"q_H0": (-0.2, 1.2), "sigma": (-0.2, 1.2), "q0": (-0.2, 1.2),
              "m": (-1.0, 11.0), "rho_c": (-1.0, 11.0), "nu": (0.5, 4.0),
              "ell_rho": (0.5, 3.6), "ell_CErel": (-0.2, 3.6)},
}


def _boundary_rows(model):
    """Rows exactly on the limits of the model's domain, from one valid row."""
    cub = builtin_cuboid(model)
    names = cub.names
    base = dict(zip(names, (cub.lower + cub.upper) / 2))
    init = names[0]
    cases = [{"q0": 0.3, init: 0.3}, {"sigma": 1.0}, {"sigma": 0.0}, {"q0": 0.0},
             {init: 1.0}, {init: 0.0}, {"q0": np.nan}, {"sigma": np.inf}]
    if model == "hatze":
        cases += [{"ell_CErel": 2.9, "ell_rho": 2.9}, {"ell_rho": 1.0, "ell_CErel": 0.5},
                  {"nu": 1.0}, {"ell_CErel": 0.0}]
    else:
        cases += [{"tau": 0.0}, {"beta": 0.0}, {"q0": 1.0, init: 1.0}]
    return np.array([[dict(base, **case)[n] for n in names] for case in cases])


@pytest.mark.parametrize("model", ["zajac", "hatze"])
def test_row_validity_accepts_exactly_what_validate_accepts(model):
    spec = {"zajac": zajac_model, "hatze": hatze_model}[model]()
    cub = ParameterCuboid.from_dict(STRADDLING[model])
    assert cub.names == spec.canonical_order
    rows = np.vstack([cub.scale(np.random.default_rng(3).random((2000, cub.n_params))),
                      _boundary_rows(model)])

    def validates(row):
        try:
            spec.params_of(*row).validate()
        except (ParameterOutOfRange, PoleViolation):
            return False
        return True

    expect = [validates(row) for row in rows]
    validity = row_validity(model)
    got = validity(dict(zip(cub.names, rows.T)))
    assert got.dtype == bool and got.tolist() == expect
    assert 50 < sum(expect) < len(expect) - 50  # both kinds of row are well represented
    # and row by row, on a dict of scalars
    assert [bool(validity(dict(zip(cub.names, row)))) for row in rows] == expect


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


def test_impossible_validity_raises(monkeypatch):
    monkeypatch.setattr(globalsens, "MAX_DRAWS", 50)
    cub = ParameterCuboid.from_dict({"x": (0.0, 1.0)})
    with pytest.raises(SamplingError):
        build_sample_matrices(cub, n=2, seed=0, validity=lambda row: False)


def test_resampling_honours_the_draw_cap(monkeypatch):
    # the first draw is valid; every row redrawn after a failed evaluation
    # is not, so its redraw must stop at the same cap as the first draw
    monkeypatch.setattr(globalsens, "MAX_DRAWS", 3)
    calls = []

    def first_call_only(cols):
        calls.append(1)
        return np.full(len(cols["x1"]), len(calls) == 1)

    def one_failed_row(rows, grid):
        out = np.repeat(rows[:, :1], grid.size, axis=1)
        out[3] = np.nan
        return out

    m = build_sample_matrices(UNIT2, n=8, seed=9, validity=first_call_only)
    with pytest.raises(SamplingError, match="row 3: no valid sample within 3 draws"):
        evaluate_family(one_failed_row, m, GRID)
    assert len(calls) == 1 + 3


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


@pytest.mark.parametrize("model", ["zajac", "hatze"])
def test_fallback_returns_nan_for_the_failing_row_only(model, monkeypatch):
    cub = builtin_cuboid(model)
    m = build_sample_matrices(cub, n=4, seed=3, validity=row_validity(model))
    rows, grid, bad = _family_rows(m.a, m.b), np.linspace(0.0, 0.2, 5), 5
    rows[bad, 0] = bad_q_init = 0.5123  # the one row that starts there
    assert np.count_nonzero(rows[:, 0] == bad_q_init) == 1
    solo = family_evaluator(model)
    rhs_name = presets.BUILTIN_MODELS[model].rhs
    rhs = getattr(presets, rhs_name)

    def failing_rhs(q, p):
        # that row's rate is NaN, so every solve it takes part in fails
        return np.where(p.q_init == bad_q_init, np.nan, rhs(q, p))

    monkeypatch.setattr(presets, rhs_name, failing_rhs)  # looked up by name
    out = family_evaluator(model)(rows, grid)
    assert out.shape == (rows.shape[0], grid.size) and out.T.flags.c_contiguous
    assert np.all(np.isnan(out[bad]))
    for j in np.delete(np.arange(rows.shape[0]), bad):
        assert np.array_equal(out[j], solo(rows[j:j + 1], grid)[0])


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
    # the evaluator returned a C-ordered (rows, T) array, copied once into
    # the time-major layout
    assert values.T.flags.c_contiguous and values.shape == (2 * 16 * 3, GRID.size)
    y_a, y_b, y_as, y_bs = _blocks(values, fam.n)
    parts = [y_a, y_b, y_as.reshape(-1, GRID.size), y_bs.reshape(-1, GRID.size)]
    assert all(np.shares_memory(part, values) for part in parts)
    assert np.array_equal(values, np.concatenate(parts))
    # the resampled solutions were written through: values matches the
    # final sample rows
    final = _family_rows(m.a, m.b)
    assert np.array_equal(values, np.repeat(final[:, :1], GRID.size, axis=1))


def test_time_major_evaluator_output_is_kept_without_a_copy():
    m = build_sample_matrices(UNIT2, n=16, seed=9)
    returned = []

    def time_major(rows, grid):
        out = np.repeat(rows[:, :1].T, grid.size, axis=0)  # (T, R), C-contiguous
        returned.append(out)
        return out.T

    fam = evaluate_family(time_major, m, GRID)
    assert fam.values.base is returned[0]


def _vbs_tsi_broadcast(values, n):
    """The reduction as four broadcast (N, n, T) products over the row-major
    blocks: the reference the block-by-block reduction must match."""
    y_a, y_b, y_as, y_bs = _blocks(np.ascontiguousarray(values), n)
    v_first = 0.5 * (
        np.mean(y_b[None, :, :] * (y_as - y_a[None, :, :]), axis=1)
        + np.mean(y_a[None, :, :] * (y_bs - y_b[None, :, :]), axis=1)
    )
    v_complement = 0.5 * (
        np.mean(y_a[None, :, :] * (y_as - y_b[None, :, :]), axis=1)
        + np.mean(y_b[None, :, :] * (y_bs - y_a[None, :, :]), axis=1)
    )
    return np.ascontiguousarray(values).var(axis=0, ddof=1), v_first, v_complement


@pytest.mark.parametrize("layout", ["time-major", "row-major"])
def test_vbs_tsi_matches_the_broadcast_reduction(layout):
    m = build_sample_matrices(UNIT3, n=512, seed=4)
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 1.0, 7)
    rows = _family_rows(m.a, m.b)
    # a nonlinear family with an interaction and a time-dependent mix
    values = (np.sin(3.0 * rows[:, :1] + t) + rows[:, 1:2] * rows[:, 2:3] * t
              + 0.01 * rng.standard_normal((rows.shape[0], t.size)))
    if layout == "time-major":
        values = np.ascontiguousarray(values.T).T
    fam = FamilyEvaluation(times=t, values=values, n=m.n, n_evaluations=rows.shape[0])
    res = vbs_tsi(fam, m)
    v_total, v_first, v_complement = _vbs_tsi_broadcast(values, m.n)
    np.testing.assert_allclose(res.v_total, v_total, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(res.v_first, v_first, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(res.v_complement, v_complement, rtol=0.0, atol=1e-13)


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


def test_unrecoverable_rows_raise(monkeypatch):
    monkeypatch.setattr(globalsens, "MAX_RETRIES", 2)

    def broken(rows, grid):
        return np.full((rows.shape[0], grid.size), np.nan)

    for n in (4, 512):
        m = build_sample_matrices(UNIT2, n=n, seed=9)
        with pytest.raises(SamplingError) as info:
            evaluate_family(broken, m, GRID)
        # the count and the first failing row, not every row index
        message = str(info.value)
        assert f"{n} of {n} rows" in message and "index 0" in message
        assert len(message) < 120


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
