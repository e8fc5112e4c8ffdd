import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    _FIRST_PRIMES, FamilyEvaluation, _family_rows, _halton_points, _rows_valid,
)
from actsens.models import in_domain
from actsens.odecore import make_grid
from actsens.presets import family_evaluator, builtin_cuboid

UNIT2 = ParameterCuboid.from_dict({"x1": (0.0, 1.0), "x2": (0.0, 1.0)})
UNIT3 = ParameterCuboid.from_dict({"x1": (0.0, 1.0), "x2": (0.0, 1.0),
                                   "x3": (0.0, 1.0)})
GRID = np.array([0.0, 1.0])


def _blocks(rows, n):
    """(A, B, A_swapped, B_swapped) of rows stacked in ``_family_rows`` order."""
    N = rows.shape[0] // (2 * n) - 1
    return (rows[:n], rows[n:2 * n], rows[2 * n:(N + 2) * n].reshape(N, n, -1),
            rows[(N + 2) * n:].reshape(N, n, -1))


def constant_in_time(values):
    """Time-major (T, R) trajectory ensemble that repeats a per-row scalar at every time."""
    return np.repeat(np.asarray(values, dtype=float)[None, :], GRID.size, axis=0)


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
        cub = builtin_cuboid(model)
        m = build_sample_matrices(cub, n=64, seed=7)
        names = cub.names
        for row in _family_rows(m.a, m.b):
            assert cub.validity(dict(zip(names, row)))


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
    validity = builtin_cuboid(model).validity
    got = validity(dict(zip(cub.names, rows.T)))
    assert got.dtype == bool and got.tolist() == expect
    assert 50 < sum(expect) < len(expect) - 50  # both kinds of row are well represented
    # and row by row, on a dict of scalars
    assert [bool(validity(dict(zip(cub.names, row)))) for row in rows] == expect


def test_halton_sampler_deterministic_and_valid():
    cub = builtin_cuboid("zajac")
    m1 = build_sample_matrices(cub, n=16, seed=5, sampler="halton")
    m2 = build_sample_matrices(cub, n=16, seed=5, sampler="halton")
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
    "zajac": builtin_cuboid("zajac"),
    "hatze": builtin_cuboid("hatze"),
    # three columns: a B swap is not an A swap in disguise
    "sum-below-two": dataclasses.replace(
        UNIT3, validity=lambda row: row["x1"] + row["x2"] + row["x3"] < 2.0),
}


@pytest.mark.parametrize("case", list(VALIDITY_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rows_valid_equals_per_row_dict_evaluation(case, seed):
    cub = VALIDITY_CASES[case]
    # raw draws, before any rejection: some rows are invalid
    u = np.random.default_rng(seed).random((400, 2, cub.n_params))
    a, b = cub.scale(u[:, 0]), cub.scale(u[:, 1])
    expect = [_row_valid_per_row(cub.names, cub.validity, ra, rb) for ra, rb in zip(a, b)]
    got = _rows_valid(cub, a, b)
    assert got.dtype == bool and got.tolist() == expect
    assert 0 < got.sum() < got.size
    never = dataclasses.replace(cub, validity=lambda row: False)
    assert _rows_valid(never, a, b).tolist() == [False] * 400
    assert _rows_valid(dataclasses.replace(cub, validity=None), a, b).all()


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
    cub = dataclasses.replace(ParameterCuboid.from_dict({"x": (0.0, 1.0)}),
                              validity=lambda row: False)
    with pytest.raises(SamplingError):
        build_sample_matrices(cub, n=2, seed=0)


def test_resampling_honours_the_draw_cap(monkeypatch):
    # the first draw is valid; every row redrawn after a failed evaluation
    # is not, so its redraw must stop at the same cap as the first draw
    monkeypatch.setattr(globalsens, "MAX_DRAWS", 3)
    calls = []

    def first_call_only(cols):
        calls.append(1)
        return np.full(len(cols["x1"]), len(calls) == 1)

    def one_failed_row(rows, grid):
        out = np.repeat(rows[:, :1].T, grid.size, axis=0)
        out[:, 3] = np.nan
        return out

    m = build_sample_matrices(dataclasses.replace(UNIT2, validity=first_call_only), n=8, seed=9)
    with pytest.raises(SamplingError, match="row 3: no valid sample within 3 draws"):
        evaluate_family(one_failed_row, m, GRID)
    assert len(calls) == 1 + 3


def test_sample_matrices_reject_one_row_and_an_unknown_sampler():
    with pytest.raises(ValueError, match=r"need at least two sample rows, got n=1"):
        build_sample_matrices(UNIT2, n=1, seed=0)
    with pytest.raises(ValueError, match=r"unknown sampler 'sobol'"):
        build_sample_matrices(UNIT2, n=4, seed=0, sampler="sobol")


class _Drew(Exception):
    """Raised by a stand-in draw: sampling has begun."""


def test_halton_takes_at_most_its_stride_of_rows_checked_before_any_draw(monkeypatch):
    def drew(*args):
        raise _Drew

    monkeypatch.setattr(globalsens, "_halton_points", drew)
    monkeypatch.setattr(ParameterCuboid, "scale", drew)
    with pytest.raises(ValueError, match=r"^the halton sampler takes at most n=1000003 rows, "
                                         r"got n=1000004$"):
        build_sample_matrices(UNIT2, n=1_000_004, seed=0, sampler="halton")
    with pytest.raises(_Drew):  # up to the stride, drawing begins
        build_sample_matrices(UNIT2, n=1_000_003, seed=0, sampler="halton")
    with pytest.raises(ValueError, match=r"unknown sampler 'sobol'"):
        build_sample_matrices(UNIT2, n=4, seed=0, sampler="sobol")


def test_halton_draws_repeat_no_point_up_to_the_stride(monkeypatch):
    # with a stride of 8, the 8 rows' blocks 0-3 are Halton indices 1-32;
    # a ninth row's block 0 would be row 0's block 1
    monkeypatch.setattr(globalsens, "HALTON_STRIDE", 8)
    with pytest.raises(ValueError, match=r"at most n=8 rows, got n=9"):
        build_sample_matrices(UNIT2, n=9, seed=0, sampler="halton")
    m = build_sample_matrices(UNIT2, n=8, seed=0, sampler="halton")
    points = [np.hstack([m.a, m.b])]
    for _ in range(3):
        m = m.redrawn(np.arange(8))
        points.append(np.hstack([m.a, m.b]))
    assert np.array_equal(m.blocks_used, np.full(8, 4))
    assert np.unique(np.vstack(points), axis=0).shape == (32, 4)


# ---------------------------------------------------------------------------
# family evaluation
# ---------------------------------------------------------------------------


def test_evaluator_of_the_wrong_shape_is_rejected():
    m = build_sample_matrices(UNIT2, n=4, seed=0)
    n_rows = 2 * 4 * (2 + 1)
    with pytest.raises(ValueError, match=rf"evaluator returned shape \(3, {n_rows}\), "
                                         rf"expected \(T, R\) = \(2, {n_rows}\)"):
        evaluate_family(lambda rows, grid: np.zeros((grid.size + 1, rows.shape[0])), m, GRID)
    # an evaluator of the former (R, T) contract, R != T
    with pytest.raises(ValueError, match=rf"evaluator returned shape \({n_rows}, 2\), "
                                         rf"expected \(T, R\) = \(2, {n_rows}\)"):
        evaluate_family(lambda rows, grid: np.zeros((rows.shape[0], grid.size)), m, GRID)


def test_constant_model_gives_identical_trajectories_and_zero_variance():
    m = build_sample_matrices(UNIT2, n=32, seed=2)
    fam = evaluate_family(lambda rows, grid: np.full((grid.size, rows.shape[0]), 3.5),
                          m, GRID)
    assert fam.n_evaluations == 2 * 32 * (2 + 1)
    assert np.all(fam.values == 3.5)
    res = vbs_tsi(fam)
    assert np.all(res.undefined)
    assert np.all(np.isnan(res.vbs))


def test_evaluation_count_matches_sample_arithmetic():
    cub = builtin_cuboid("zajac")  # N = 5
    m = build_sample_matrices(cub, n=16, seed=0)
    fam = evaluate_family(family_evaluator("zajac"), m, np.linspace(0.0, 0.2, 5))
    assert fam.n_evaluations == 16 * 2 * (5 + 1)


@pytest.mark.parametrize("model", ["zajac", "hatze"])
def test_fallback_returns_nan_for_the_failing_row_only(model, monkeypatch):
    cub = builtin_cuboid(model)
    m = build_sample_matrices(cub, n=4, seed=3)
    rows, grid, bad = _family_rows(m.a, m.b), np.linspace(0.0, 0.2, 5), 5
    rows[bad, 0] = bad_q_init = 0.5123  # the one row that starts there
    assert np.count_nonzero(rows[:, 0] == bad_q_init) == 1
    solo = family_evaluator(model)
    rhs_name = presets.BUILTIN_MODELS[model].rhs
    rhs = getattr(presets, rhs_name)

    def failing_rhs(q, p, out):
        # that row's rate is NaN, so every solve it takes part in fails
        np.copyto(out, np.where(p.q_init == bad_q_init, np.nan, rhs(q, p)))

    monkeypatch.setattr(presets, rhs_name, failing_rhs)  # looked up by name
    out = family_evaluator(model)(rows, grid)
    assert out.shape == (grid.size, rows.shape[0]) and out.flags.c_contiguous
    assert np.all(np.isnan(out[:, bad]))
    for j in np.delete(np.arange(rows.shape[0]), bad):
        assert np.array_equal(out[:, j], solo(rows[j:j + 1], grid)[:, 0])


def test_failed_rows_are_resampled_not_zero_filled():
    m = build_sample_matrices(UNIT2, n=16, seed=9)
    state = {"calls": 0}

    def flaky(rows, grid):
        state["calls"] += 1
        out = np.repeat(rows[:, :1].T, grid.size, axis=0)
        if state["calls"] == 1:  # first pass: rows with small x1 fail
            out[:, rows[:, 0] < 0.4] = np.nan
        return out

    fam = evaluate_family(flaky, m, GRID)
    assert np.all(np.isfinite(fam.values))
    assert len(fam.resampled_rows) > 0


def test_values_are_the_stacked_blocks_after_resampling():
    m = build_sample_matrices(UNIT2, n=16, seed=9)
    state = {"calls": 0}

    def flaky(rows, grid):
        state["calls"] += 1
        out = np.repeat(rows[:, :1].T, grid.size, axis=0)
        if state["calls"] == 1:
            out[:, rows[:, 0] < 0.4] = np.nan
        return out

    fam = evaluate_family(flaky, m, GRID)
    assert len(fam.resampled_rows) > 0
    values = fam.values
    # the evaluator returned a C-ordered (T, rows) array, kept as it is
    assert values.flags.c_contiguous and values.shape == (GRID.size, 2 * 16 * 3)
    by_block = values.reshape(GRID.size, 2 * (2 + 1), fam.matrices.n)  # (T, 2(N+1), n)
    y_a, y_b = by_block[:, 0], by_block[:, 1]
    y_as, y_bs = by_block[:, 2:4], by_block[:, 4:]
    parts = [y_a, y_b, y_as.reshape(GRID.size, -1), y_bs.reshape(GRID.size, -1)]
    assert all(np.shares_memory(part, values) for part in parts)
    assert np.array_equal(values, np.concatenate(parts, axis=1))
    # the resampled solutions were written through: values matches the
    # final sample rows
    final = _family_rows(fam.matrices.a, fam.matrices.b)
    assert np.array_equal(values, np.repeat(final[:, :1].T, GRID.size, axis=0))


def test_time_major_evaluator_output_is_kept_without_a_copy():
    m = build_sample_matrices(UNIT2, n=16, seed=9)
    returned = []

    def time_major(rows, grid):
        out = np.repeat(rows[:, :1].T, grid.size + 1, axis=0)
        returned.append(out)
        return out[:-1]  # (T, R), a C-contiguous view

    fam = evaluate_family(time_major, m, GRID)
    assert fam.values.base is returned[0]
    # family_evaluator's output is kept as well
    evaluate = family_evaluator("zajac")

    def recorded(rows, grid):
        returned.append(evaluate(rows, grid))
        return returned[-1]

    m = build_sample_matrices(builtin_cuboid("zajac"), n=16, seed=9)
    fam = evaluate_family(recorded, m, np.linspace(0.0, 0.2, 5))
    assert fam.values is returned[-1]


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
    # the (T, rows) family C-ordered (time-major) and F-ordered (row-major)
    m = build_sample_matrices(UNIT3, n=512, seed=4)
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 1.0, 7)
    rows = _family_rows(m.a, m.b)
    # a nonlinear family with an interaction and a time-dependent mix
    values = (np.sin(3.0 * rows[:, :1] + t) + rows[:, 1:2] * rows[:, 2:3] * t
              + 0.01 * rng.standard_normal((rows.shape[0], t.size)))
    values = values.T.copy(order="C" if layout == "time-major" else "F")
    fam = FamilyEvaluation(times=t, values=values, matrices=m, n_evaluations=rows.shape[0])
    res = vbs_tsi(fam)
    v_total, v_first, v_complement = _vbs_tsi_broadcast(values.T, m.n)
    np.testing.assert_allclose(res.v_total, v_total, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(res.v_first, v_first, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(res.v_complement, v_complement, rtol=0.0, atol=1e-13)


# run in a fresh process, where the BLAS thread count is read at start-up
_REDUCE_SEEDED_FAMILY = """
import sys
import numpy as np
from actsens.globalsens import (
    FamilyEvaluation, ParameterCuboid, _family_rows, build_sample_matrices, vbs_tsi)
cub = ParameterCuboid.from_dict({"x1": (0.0, 1.0), "x2": (0.0, 1.0), "x3": (0.0, 1.0)})
m = build_sample_matrices(cub, n=2048, seed=5)
rows = _family_rows(m.a, m.b)
t = np.linspace(0.0, 1.0, 7)
values = np.sin(3.0 * rows[:, :1] + t) + rows[:, 1:2] * rows[:, 2:3] * t
fam = FamilyEvaluation(times=t, values=np.ascontiguousarray(values.T), matrices=m,
                       n_evaluations=rows.shape[0])
res = vbs_tsi(fam)
np.savez(sys.argv[1], v_total=res.v_total, v_first=res.v_first,
         v_complement=res.v_complement)
"""


def test_vbs_tsi_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 16,384 rows per time: OpenBLAS splits a dot product over threads above
    # 10,000 elements, so one long dot per time would change with the count
    src = str(Path(globalsens.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    results = []
    for threads in ("1", None):  # one thread, then the default
        env = dict(base, OPENBLAS_NUM_THREADS=threads) if threads else base
        out = tmp_path / f"threads-{threads or 'default'}.npz"
        done = subprocess.run([sys.executable, "-c", _REDUCE_SEEDED_FAMILY, str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        results.append(np.load(out))
    one, default = results
    for key in ("v_total", "v_first", "v_complement"):
        assert one[key].tobytes() == default[key].tobytes(), key


@pytest.mark.parametrize("T", [1, 7, 101])
def test_a_column_without_effect_has_exactly_zero_first_order_variance(T):
    cub = ParameterCuboid.from_dict({"x1": (0.0, 1.0), "x2": (0.7, 0.7)})
    m = build_sample_matrices(cub, n=256, seed=17)
    t = np.linspace(0.0, 1.0, T)
    fam = evaluate_family(lambda rows, grid: rows[:, 0] * (1.0 + grid[:, None]) + rows[:, 1],
                          m, t)
    res = vbs_tsi(fam)
    assert np.all(res.v_first[1] == 0.0)
    assert np.all(res.v_first[0] > 0.0)


@pytest.mark.parametrize("model", ["zajac", "hatze"])
def test_columns_without_effect_at_the_start_have_exactly_zero_first_order_variance(model):
    # at t = 0 every solution is its initial activity, the first column; on
    # this sample, hatze's products of undifferenced blocks leave 1e-17 there
    cub = builtin_cuboid(model)
    m = build_sample_matrices(cub, n=512, seed=2)
    fam = evaluate_family(family_evaluator(model), m, make_grid(0.5, 101))
    for T in (1, 7, 101):  # the first T times, still time-major
        res = vbs_tsi(FamilyEvaluation(times=fam.times[:T], values=fam.values[:T],
                                       matrices=m, n_evaluations=fam.n_evaluations))
        assert np.all(res.v_first[1:, 0] == 0.0), T
        assert res.v_first[0, 0] > 0.0 and np.all(res.v_first[:, 1:] != 0.0)


def test_vbs_tsi_holds_no_family_sized_temporary():
    # hatze's family at n = 2048: 8 parameters, 36,864 rows, 101 times
    cub = ParameterCuboid.from_dict({f"x{i}": (0.0, 1.0) for i in range(8)})
    m = build_sample_matrices(cub, n=2048, seed=3)
    values = np.random.default_rng(3).random((101, 2 * m.n * 9))  # time-major
    fam = FamilyEvaluation(times=np.linspace(0.0, 0.5, 101), values=values, matrices=m,
                           n_evaluations=values.shape[1])
    tracemalloc.start()
    try:
        vbs_tsi(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes / 8, (peak, values.nbytes)


def test_batched_solve_holds_a_fixed_working_set():
    # the seed-1 hatze family at n = 2048: 36,864 rows, 101 times. Beyond
    # its (101, rows) output the solve peaks at 27.04 (rows,) float64
    # arrays: the parameter columns and their rate factors, the stacked
    # (y, k1..k7) array, the step's buffers and the rhs's two temporaries.
    # The bound leaves under one array of margin, so a new per-step
    # temporary of the state's size fails it.
    m = build_sample_matrices(builtin_cuboid("hatze"), n=2048, seed=1)
    rows, evaluate = _family_rows(m.a, m.b), family_evaluator("hatze")
    assert rows.shape[0] == 36_864
    tracemalloc.start()
    try:
        out = evaluate(rows, make_grid(0.5, 101))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(out).all()
    arrays = (peak - out.nbytes) / (8 * rows.shape[0])
    assert arrays < 28.0, arrays


def test_evaluation_count_includes_resampled_rows():
    m = build_sample_matrices(UNIT2, n=16, seed=9)
    state = {"calls": 0}

    def one_failure(rows, grid):
        state["calls"] += 1
        out = np.repeat(rows[:, :1].T, grid.size, axis=0)
        if state["calls"] == 1:  # first pass: one base row fails once
            out[:, 3] = np.nan
        return out

    fam = evaluate_family(one_failure, m, GRID)
    assert fam.resampled_rows == (3,)
    n, N = 16, 2
    assert fam.n_evaluations == 2 * n * (N + 1) + 2 * (N + 1)
    res = vbs_tsi(fam)
    assert res.resampled_rows == 1
    assert res.n_evaluations == fam.n_evaluations
    # the family carries the matrices it was solved on, resampled rows
    # included, and the result reports their names, n and seed
    assert not m.blocks_used.any()
    assert fam.matrices.blocks_used.tolist() == [0, 0, 0, 1] + [0] * 12
    assert (res.param_names, res.n, res.seed) == (m.cuboid.names, m.n, m.seed)


def test_evaluating_the_same_matrices_twice_leaves_each_family_its_own_rows():
    m = build_sample_matrices(UNIT2, n=8, seed=9)
    before = m.a.copy(), m.b.copy(), m.blocks_used.copy()

    def rows_to_values(rows):
        return constant_in_time(rows[:, 0] + 3.0 * rows[:, 1])

    def failing_once(row):
        calls = []

        def evaluate(rows, grid):
            calls.append(1)
            out = rows_to_values(rows)
            if len(calls) == 1:
                out[:, row] = np.nan
            return out
        return evaluate

    families = [evaluate_family(failing_once(row), m, GRID) for row in (3, 5)]
    assert [f.resampled_rows for f in families] == [(3,), (5,)]
    for f in families:
        assert np.array_equal(f.values, rows_to_values(_family_rows(f.matrices.a, f.matrices.b)))
    assert all(np.array_equal(x, y) for x, y in zip((m.a, m.b, m.blocks_used), before))
    # nothing can write into sample matrices
    for array in (m.a, m.b, m.blocks_used):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.a = before[0]


def test_unrecoverable_rows_raise(monkeypatch):
    monkeypatch.setattr(globalsens, "MAX_RETRIES", 2)

    def broken(rows, grid):
        return np.full((grid.size, rows.shape[0]), np.nan)

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
    return vbs_tsi(fam)


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


@pytest.mark.parametrize("seed", [3, 4, 15])
def test_a_parameter_that_alone_sets_the_output_has_a_total_index_of_at_most_one(seed):
    # V_~i is 0 in exact arithmetic and a rounding below 0 on these seeds:
    # it is clipped before the ratio, and kept raw in v_complement
    res = _global(lambda rows: rows[:, 0], UNIT2, n=8, seed=seed)
    assert np.all(res.v_complement[0] < 0.0)
    assert np.all(res.tsi[0] == 1.0)


def test_index_bounds_and_consistency():
    res = _global(lambda rows: rows[:, 0] + 0.3 * rows[:, 1] * rows[:, 2], UNIT3)
    assert np.all(res.v_total >= 0.0)
    assert np.all(res.vbs >= 0.0) and np.all(res.vbs <= 1.05)
    assert np.all(res.tsi >= 0.0)
    assert res.vbs[:, 0].sum() <= 1.05
    assert res.tsi[:, 0].sum() >= 0.95
    assert np.all(res.tsi[:, 0] >= res.vbs[:, 0] - 0.05)


@pytest.mark.parametrize("model", ["zajac", "hatze"])
def test_the_evaluator_never_sees_a_row_outside_the_domain(model):
    # the built-in cuboid carries its model's domain, and so does a copy
    # with narrower bounds: every row pair that leaves it is redrawn
    spec, evaluate = presets.BUILTIN_MODELS[model].model(), family_evaluator(model)

    def checked(rows, grid):
        assert in_domain(spec.params_of(*rows.T)).all()
        return evaluate(rows, grid)

    cub = builtin_cuboid(model)
    # the initial activity below 0.1, so that q0 exceeds it in more rows
    narrow = dataclasses.replace(cub, upper=np.where(np.arange(cub.n_params) == 0, 0.1,
                                                     cub.upper))
    for cuboid in (cub, narrow):
        res = analyze_global(checked, cuboid, n=256, seed=1, grid=make_grid(0.05, 3))
        assert res.n_evaluations == 2 * 256 * (cub.n_params + 1)


def test_global_analysis_is_bit_reproducible():
    cub = builtin_cuboid("zajac")
    grid = np.linspace(0.0, 0.2, 6)
    kw = dict(n=32, seed=123, grid=grid)
    r1 = analyze_global(family_evaluator("zajac"), cub, **kw)
    r2 = analyze_global(family_evaluator("zajac"), cub, **kw)
    assert np.array_equal(r1.vbs, r2.vbs)
    assert np.array_equal(r1.tsi, r2.tsi)
    assert np.array_equal(r1.v_total, r2.v_total)


# ---------------------------------------------------------------------------
# exact indices of two standard test functions
# ---------------------------------------------------------------------------
#
# Both functions have closed-form first-order and total indices, so they
# check sampling, the family layout and the reduction against known values
# other than 0, 0.5 and 1. Each error is the max over parameters of
# |index - exact| at n = 2048; the pseudo sampler runs at seeds 1-20, fixed
# before any result was looked at, and halton ignores the seed.

ISHIGAMI_A, ISHIGAMI_B = 7.0, 0.1
ISHIGAMI_CUBOID = ParameterCuboid.from_dict({f"x{i}": (-math.pi, math.pi) for i in (1, 2, 3)})
G_A = np.array([0.0, 1.0, 4.5, 9.0, 99.0, 99.0])
G_CUBOID = ParameterCuboid.from_dict({f"x{i}": (0.0, 1.0) for i in range(1, 7)})


def ishigami(rows):
    """Ishigami & Homma (1990): sin x1 + a sin^2 x2 + b x3^4 sin x1."""
    return (np.sin(rows[:, 0]) + ISHIGAMI_A * np.sin(rows[:, 1]) ** 2
            + ISHIGAMI_B * rows[:, 2] ** 4 * np.sin(rows[:, 0]))


def ishigami_exact():
    """(S, T): V1 = (1 + b pi^4/5)^2/2, V2 = a^2/8, V13 = b^2 pi^8 (1/18 - 1/50)."""
    v1 = 0.5 * (1.0 + ISHIGAMI_B * math.pi ** 4 / 5.0) ** 2
    v2 = ISHIGAMI_A ** 2 / 8.0
    v13 = ISHIGAMI_B ** 2 * math.pi ** 8 * (1.0 / 18.0 - 1.0 / 50.0)
    v = v1 + v2 + v13
    return np.array([v1, v2, 0.0]) / v, np.array([v1 + v13, v2, v13]) / v


def g_function(rows):
    """Sobol's g-function: the product of (|4 x_i - 2| + a_i) / (1 + a_i)."""
    return np.prod((np.abs(4.0 * rows - 2.0) + G_A) / (1.0 + G_A), axis=1)


def g_exact():
    """(S, T): V_i = 1/(3 (1 + a_i)^2), V = prod(1 + V_j) - 1, T_i = V_i prod_{j != i}(1 + V_j) / V."""
    v_i = 1.0 / (3.0 * (1.0 + G_A) ** 2)
    product = np.prod(1.0 + v_i)
    v = product - 1.0
    return v_i / v, v_i * product / (1.0 + v_i) / v


_EXACT = {
    "ishigami": (ishigami, ISHIGAMI_CUBOID, ishigami_exact()),
    "g": (g_function, G_CUBOID, g_exact()),
}


def test_exact_indices_match_the_published_values():
    s, t = ishigami_exact()
    np.testing.assert_allclose(s, [0.3139, 0.4424, 0.0], atol=5e-5)
    np.testing.assert_allclose(t, [0.5576, 0.4424, 0.2437], atol=5e-5)
    s, t = g_exact()
    assert (s[0], t[0]) == (pytest.approx(0.7163, abs=5e-5), pytest.approx(0.7873, abs=5e-5))


def _index_errors(name, seed, sampler, n=2048):
    """Max over parameters of |VBS - exact| and of |TSI - exact|."""
    fun, cuboid, (s, t) = _EXACT[name]
    m = build_sample_matrices(cuboid, n=n, seed=seed, sampler=sampler)
    res = vbs_tsi(evaluate_family(lambda rows, grid: constant_in_time(fun(rows)), m, GRID))
    return np.abs(res.vbs[:, 0] - s).max(), np.abs(res.tsi[:, 0] - t).max()


# measured worst (mean) over seeds 1-20, VBS and TSI: Ishigami 0.0600
# (0.0285) and 0.0592 (0.0297); g 0.0325 (0.0164) and 0.0424 (0.0222)
@pytest.mark.parametrize("name, seed_bound, mean_bound", [
    ("ishigami", 0.075, 0.04),
    ("g", 0.05, 0.03),
], ids=["ishigami", "g"])
def test_pseudo_sampler_indices_match_the_exact_ones(name, seed_bound, mean_bound):
    errors = np.array([_index_errors(name, seed, "pseudo") for seed in range(1, 21)])
    assert errors.max() < seed_bound, errors.max(axis=0)
    assert np.all(errors.mean(axis=0) < mean_bound), errors.mean(axis=0)


# measured, VBS and TSI: Ishigami 0.0024 and 0.0035; g 0.0081 and 0.0110
@pytest.mark.parametrize("name, bound", [("ishigami", 0.005), ("g", 0.015)],
                         ids=["ishigami", "g"])
def test_halton_sampler_indices_match_the_exact_ones(name, bound):
    errors = _index_errors(name, 1, "halton")
    assert max(errors) < bound, errors


# The Monte-Carlo error of the pseudo sampler falls as n^(-1/2). Measured
# log-log slopes of the mean error over seeds 1-20, VBS and TSI: Ishigami
# -0.488 and -0.597, g -0.546 and -0.499. The band -0.5 +- 0.2 leaves at
# least 0.1 of margin and rejects both an error that does not fall (slope 0)
# and one that falls as 1/n.
@pytest.mark.parametrize("name", ["ishigami", "g"])
def test_pseudo_sampler_error_falls_as_one_over_root_n(name):
    ns = np.array([256, 512, 1024, 2048, 4096])
    mean_errors = np.array([
        np.mean([_index_errors(name, seed, "pseudo", n) for seed in range(1, 21)], axis=0)
        for n in ns
    ])  # (len(ns), 2): VBS and TSI
    slopes = np.polyfit(np.log(ns), np.log(mean_errors), 1)[0]
    assert np.all(np.abs(slopes + 0.5) < 0.2), slopes


# ---------------------------------------------------------------------------
# analyze_global's chunks of row pairs
# ---------------------------------------------------------------------------


def _ishigami_evaluator(calls=None):
    """Ishigami's values, constant in time, which do not depend on the batch;
    ``calls`` collects the row count of each call."""
    def evaluate(rows, grid):
        if calls is not None:
            calls.append(rows.shape[0])
        return constant_in_time(ishigami(rows))
    return evaluate


def test_chunks_pool_to_the_whole_family():
    # 1,100 pairs go in three chunks of 366, 367 and 367 pairs
    n, seed, rows_per_pair = 1100, 5, 2 * (3 + 1)
    calls = []
    res = analyze_global(_ishigami_evaluator(calls), ISHIGAMI_CUBOID, n=n, seed=seed, grid=GRID)
    assert calls == [rows_per_pair * k for k in (366, 367, 367)]
    m = build_sample_matrices(ISHIGAMI_CUBOID, n=n, seed=seed)
    whole = vbs_tsi(evaluate_family(_ishigami_evaluator(), m, GRID))
    for key in ("v_total", "v_first", "v_complement"):
        np.testing.assert_allclose(getattr(res, key), getattr(whole, key), rtol=1e-12,
                                   atol=0.0, err_msg=key)
    assert (res.n, res.seed, res.n_evaluations, res.resampled_rows) == (
        n, seed, whole.n_evaluations, 0)


@pytest.mark.parametrize("n", [2, 300, globalsens.PAIRS_PER_SOLVE])
def test_one_chunk_is_the_whole_family_bit_for_bit(n):
    calls = []
    res = analyze_global(_ishigami_evaluator(calls), ISHIGAMI_CUBOID, n=n, seed=5, grid=GRID)
    assert len(calls) == 1
    m = build_sample_matrices(ISHIGAMI_CUBOID, n=n, seed=5)
    whole = vbs_tsi(evaluate_family(_ishigami_evaluator(), m, GRID))
    for key in ("v_total", "v_first", "v_complement", "vbs", "tsi", "undefined"):
        assert getattr(res, key).tobytes() == getattr(whole, key).tobytes(), key


@pytest.mark.parametrize("sampler", ["pseudo", "halton"])
def test_a_chunk_redraws_a_row_as_the_whole_sample_does(sampler):
    m = build_sample_matrices(UNIT3, n=40, seed=5, sampler=sampler)
    start, stop, rows = 16, 32, np.array([0, 3, 15])
    chunk = m.pairs(start, stop)
    assert chunk.first_row == start and chunk.n == stop - start
    whole = m
    for _ in range(2):  # a second redraw continues each row's sequence
        chunk, whole = chunk.redrawn(rows), whole.redrawn(start + rows)
        for key in ("a", "b", "blocks_used"):
            assert np.array_equal(getattr(chunk, key), getattr(whole, key)[start:stop]), key
    assert chunk.first_row == start
    assert not np.array_equal(chunk.a, m.a[start:stop])


def test_a_failed_row_in_the_third_chunk_is_resampled_as_in_the_whole_family():
    n, seed, bad = 1100, 5, 900  # chunks start at pairs 0, 366 and 733
    m = build_sample_matrices(ISHIGAMI_CUBOID, n=n, seed=seed)

    def failing_once():
        failed = []

        def evaluate(rows, grid):  # the solve of A's row `bad` fails the first time
            out = constant_in_time(ishigami(rows))
            hit = np.all(rows == m.a[bad], axis=1)
            if hit.any() and not failed:
                failed.append(bad)
                out[:, hit] = np.nan
            return out
        return evaluate

    whole_family = evaluate_family(failing_once(), m, GRID)
    assert whole_family.resampled_rows == (bad,)
    whole = vbs_tsi(whole_family)
    res = analyze_global(failing_once(), ISHIGAMI_CUBOID, n=n, seed=seed, grid=GRID)
    assert (res.resampled_rows, res.n_evaluations) == (1, whole.n_evaluations)
    assert res.n_evaluations == 2 * n * 4 + 2 * 4
    for key in ("v_total", "v_first", "v_complement"):
        np.testing.assert_allclose(getattr(res, key), getattr(whole, key), rtol=1e-12,
                                   atol=0.0, err_msg=key)
    # the chunk's family names the row by its whole-sample index
    chunk = evaluate_family(failing_once(), m.pairs(733, n), GRID)
    assert chunk.resampled_rows == (bad,)
    assert np.array_equal(chunk.matrices.a, whole_family.matrices.a[733:])


def test_sampling_errors_name_rows_by_their_whole_sample_index(monkeypatch):
    monkeypatch.setattr(globalsens, "MAX_DRAWS", 3)
    monkeypatch.setattr(globalsens, "MAX_RETRIES", 2)
    calls = []

    def first_call_only(cols):
        calls.append(1)
        return np.full(len(cols["x1"]), len(calls) == 1)

    chunk = build_sample_matrices(dataclasses.replace(UNIT2, validity=first_call_only),
                                  n=8, seed=9).pairs(4, 8)
    with pytest.raises(SamplingError, match="row 5: no valid sample within 3 draws"):
        chunk.redrawn([1])

    def broken(rows, grid):
        return np.full((grid.size, rows.shape[0]), np.nan)

    chunk = build_sample_matrices(UNIT2, n=8, seed=9).pairs(4, 8)
    with pytest.raises(SamplingError, match="4 of 4 rows .* the first at index 4$"):
        evaluate_family(broken, chunk, GRID)


def test_analyze_global_holds_one_chunk_of_the_family():
    # the seed-1 hatze family at n = 2048 is 36,864 rows: (101, 36,864)
    # float64 is 29.8 MB, held whole by a one-batch solve (41.2 MB traced).
    # The bound, set before measuring, is half that; four chunks of 512
    # pairs hold one 7.4 MB chunk family and its solve's working set at a
    # time, measured at 11.2 MB.
    grid = make_grid(0.5, 101)
    family_bytes = grid.size * 2 * 2048 * (8 + 1) * 8
    tracemalloc.start()
    try:
        res = analyze_global(family_evaluator("hatze"), builtin_cuboid("hatze"), n=2048,
                             seed=1, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_evaluations == 36_864
    assert peak < family_bytes / 2, (peak, family_bytes)
