"""Variance-based global sensitivity analysis over a parameter cuboid.

Sample-matrix construction follows the pick-and-freeze scheme: two
independent uniform sample blocks A and B, plus per-parameter single-column
swaps between them. The time-resolved first-order and total variance shares
are estimated from correlations between runs that share all-but-one or only
one parameter column:

    V_i    from pairs sharing only column i      -> VBS_i = V_i / V
    V_~i   from pairs sharing all but column i   -> TSI_i = 1 - V_~i / V

Both estimators are averaged over their two available pairings. Sampling is
seeded and counter-based: every row owns its own substream, so rejection
resampling of one row never disturbs any other row and results are
bit-reproducible for a given (cuboid, n, seed, grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidBounds, SamplingError

__all__ = [
    "ParameterCuboid",
    "SampleMatrices",
    "FamilyEvaluation",
    "GlobalResult",
    "build_sample_matrices",
    "evaluate_family",
    "vbs_tsi",
    "analyze_global",
]

#: Total variance below this floor leaves VBS/TSI undefined at that time.
VARIANCE_FLOOR = 1e-12

_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71)

#: A joint constraint on sample rows: takes a dict of parameter columns (one
#: array per cuboid name, one entry per row) and returns a boolean array.
Validity = Callable[[dict[str, np.ndarray]], np.ndarray]


@dataclass(frozen=True)
class ParameterCuboid:
    """Per-parameter [lower, upper] ranges with uniform sampling."""

    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != (len(self.names),) or hi.shape != (len(self.names),):
            raise InvalidBounds("bounds must align with parameter names")
        if np.any(lo > hi):
            bad = [n for n, l, h in zip(self.names, lo, hi) if l > h]
            raise InvalidBounds(f"lower bound exceeds upper bound for {bad}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def from_dict(cls, bounds: dict[str, tuple[float, float]]) -> "ParameterCuboid":
        names = tuple(bounds)
        lo = np.array([bounds[n][0] for n in names])
        hi = np.array([bounds[n][1] for n in names])
        return cls(names=names, lower=lo, upper=hi)

    @property
    def n_params(self) -> int:
        return len(self.names)

    def scale(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube samples to the cuboid."""
        return self.lower + u * (self.upper - self.lower)


@dataclass
class SampleMatrices:
    """Base blocks A, B and all single-column swaps, plus resampling state.

    ``a_swapped[i]`` is A with column i taken from B; ``b_swapped[i]`` is B
    with column i taken from A. ``blocks_used`` counts per-row draw blocks so
    a later resampling can continue each row's substream deterministically.
    """

    cuboid: ParameterCuboid
    seed: int
    n: int
    a: np.ndarray  # (n, N)
    b: np.ndarray  # (n, N)
    a_swapped: np.ndarray  # (N, n, N)
    b_swapped: np.ndarray  # (N, n, N)
    blocks_used: np.ndarray  # (n,)
    validity: Validity | None = None
    sampler: str = "pseudo"


def _row_stream(seed: int, row: int) -> np.random.Generator:
    # Philox is counter-based; (seed, row) keys give independent substreams.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, row])))


def _halton_points(indices: np.ndarray, dims: int) -> np.ndarray:
    """Halton points of the given indices, (len(indices), dims), van der Corput per prime base."""
    if dims > len(_FIRST_PRIMES):
        raise ValueError(
            f"halton sampler supports up to {len(_FIRST_PRIMES) // 2} parameters"
        )
    out = np.zeros((len(indices), dims))
    for d in range(dims):
        base = _FIRST_PRIMES[d]
        i, f, x = np.array(indices, dtype=np.int64), 1.0, out[:, d]
        while np.any(i > 0):
            f /= base
            x += f * (i % base)  # adds exactly 0.0 where i has run out of digits
            i //= base
    return out


def _rows_valid(cuboid, validity, a, b) -> np.ndarray:
    """Rows j whose pair (a[j], b[j]) stays valid in A, B and every single-column swap."""
    ok = np.ones(a.shape[0], dtype=bool)
    if validity is None:
        return ok
    cols_a = dict(zip(cuboid.names, a.T))
    cols_b = dict(zip(cuboid.names, b.T))
    ok &= validity(cols_a)
    ok &= validity(cols_b)
    for name in cuboid.names:
        ok &= validity({**cols_a, name: cols_b[name]})
        ok &= validity({**cols_b, name: cols_a[name]})
    return ok


def _draw_row_pair(cuboid, seed, row, start_block, validity, sampler, max_draws):
    """Draw (a_row, b_row) from the row's substream, skipping used blocks."""
    dims = 2 * cuboid.n_params
    if sampler == "pseudo":
        gen = _row_stream(seed, row)
        if start_block:
            gen.random((start_block, dims))  # burn consumed blocks
    block = start_block
    while block - start_block < max_draws:
        if sampler == "pseudo":
            u = gen.random(dims)
        elif sampler == "halton":
            u = _halton_points([1 + row + block * 1_000_003], dims)[0]
        else:
            raise ValueError(f"unknown sampler {sampler!r}")
        block += 1
        vals = cuboid.scale(u.reshape(2, 1, cuboid.n_params))
        if _rows_valid(cuboid, validity, vals[0], vals[1])[0]:
            return vals[0, 0], vals[1, 0], block
    raise SamplingError(
        f"row {row}: no valid sample within {max_draws} draws; "
        "check bounds and validity predicate"
    )


def build_sample_matrices(
    cuboid: ParameterCuboid,
    n: int,
    seed: int,
    validity: Validity | None = None,
    sampler: str = "pseudo",
    max_draws: int = 10_000,
) -> SampleMatrices:
    """Construct A, B and the 2N single-column swap blocks (2n(N+1) rows total).

    All rows are drawn at once; rows violating the validity predicate (in
    any swap combination) are rejection-resampled from their own substream,
    so the result is deterministic in (cuboid, n, seed) and independent of
    other rows.
    """
    if n < 2:
        raise ValueError(f"need at least two sample rows, got n={n}")
    N = cuboid.n_params
    if sampler == "pseudo":
        # a bulk stream, not the rows' substreams: no substream block is used
        u = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed]))
        ).random((n, 2 * N))
        blocks = np.zeros(n, dtype=int)
    elif sampler == "halton":
        # each row's block 0, as _draw_row_pair would draw it first
        u = _halton_points(1 + np.arange(n), 2 * N)
        blocks = np.ones(n, dtype=int)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    scaled = cuboid.scale(u.reshape(n, 2, N))
    a, b = scaled[:, 0, :].copy(), scaled[:, 1, :].copy()
    for j in np.nonzero(~_rows_valid(cuboid, validity, a, b))[0]:
        a[j], b[j], blocks[j] = _draw_row_pair(
            cuboid, seed, int(j), 0, validity, sampler, max_draws
        )

    a_swapped = np.repeat(a[None, :, :], N, axis=0)
    b_swapped = np.repeat(b[None, :, :], N, axis=0)
    for i in range(N):
        a_swapped[i, :, i] = b[:, i]
        b_swapped[i, :, i] = a[:, i]
    return SampleMatrices(
        cuboid=cuboid, seed=seed, n=n, a=a, b=b,
        a_swapped=a_swapped, b_swapped=b_swapped,
        blocks_used=blocks, validity=validity, sampler=sampler,
    )


def _refresh_swaps(m: SampleMatrices, rows: np.ndarray) -> None:
    for i in range(m.cuboid.n_params):
        m.a_swapped[i, rows, :] = m.a[rows, :]
        m.a_swapped[i, rows, i] = m.b[rows, i]
        m.b_swapped[i, rows, :] = m.b[rows, :]
        m.b_swapped[i, rows, i] = m.a[rows, i]


def _blocks(values: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Views (A, B, A_swapped, B_swapped) into rows stacked in that order."""
    N = values.shape[0] // (2 * n) - 1
    return (
        values[:n],
        values[n:2 * n],
        values[2 * n:(N + 2) * n].reshape(N, n, -1),
        values[(N + 2) * n:].reshape(N, n, -1),
    )


@dataclass
class FamilyEvaluation:
    """Model outputs for every sample row: the family of solutions.

    ``values`` holds all 2n(N+1) solutions as one C-contiguous (rows, T)
    array, stacked A, B, then the N blocks of A_swapped and of B_swapped;
    ``y_a``, ``y_b``, ``y_a_swapped`` and ``y_b_swapped`` are views into it.
    """

    times: np.ndarray
    values: np.ndarray  # (2n(N+1), T)
    n: int
    n_evaluations: int
    resampled_rows: tuple[int, ...] = ()

    @property
    def y_a(self) -> np.ndarray:  # (n, T)
        return _blocks(self.values, self.n)[0]

    @property
    def y_b(self) -> np.ndarray:  # (n, T)
        return _blocks(self.values, self.n)[1]

    @property
    def y_a_swapped(self) -> np.ndarray:  # (N, n, T)
        return _blocks(self.values, self.n)[2]

    @property
    def y_b_swapped(self) -> np.ndarray:  # (N, n, T)
        return _blocks(self.values, self.n)[3]

    def pooled(self) -> np.ndarray:
        """All 2n(N+1) solutions stacked row-wise (the array itself, not a copy)."""
        return self.values


def evaluate_family(
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray],
    matrices: SampleMatrices,
    grid,
    max_retries: int = 5,
) -> FamilyEvaluation:
    """Evaluate the model on every sample row of every matrix.

    ``evaluator(rows, grid)`` maps an (R, N) parameter matrix to (R, T)
    output trajectories; rows it cannot solve must come back non-finite.
    Failed rows are resampled from their substream and re-evaluated
    (bounded retries); they are never silently zero-filled.
    ``n_evaluations`` counts every row passed to the evaluator, re-evaluated
    rows included.
    """
    grid = np.asarray(grid, dtype=float)
    n, N = matrices.n, matrices.cuboid.n_params
    evaluated = 0

    def run(rows_matrix):
        nonlocal evaluated
        evaluated += rows_matrix.shape[0]
        out = np.asarray(evaluator(rows_matrix, grid), dtype=float)
        if out.shape != (rows_matrix.shape[0], grid.size):
            raise ValueError(
                f"evaluator returned shape {out.shape}, "
                f"expected {(rows_matrix.shape[0], grid.size)}"
            )
        return out

    def stack(rows):
        return np.concatenate(
            [matrices.a[rows], matrices.b[rows],
             matrices.a_swapped[:, rows, :].reshape(-1, N),
             matrices.b_swapped[:, rows, :].reshape(-1, N)],
            axis=0,
        )

    values = np.ascontiguousarray(run(stack(slice(None))))  # every row
    y_a, y_b, y_as, y_bs = _blocks(values, n)

    def bad_rows():
        ok_a = np.all(np.isfinite(y_a), axis=1)
        ok_b = np.all(np.isfinite(y_b), axis=1)
        ok_as = np.all(np.isfinite(y_as), axis=(0, 2))
        ok_bs = np.all(np.isfinite(y_bs), axis=(0, 2))
        return np.nonzero(~(ok_a & ok_b & ok_as & ok_bs))[0]

    resampled: list[int] = []
    rows = bad_rows()
    attempt = 0
    while rows.size:
        if attempt >= max_retries:
            raise SamplingError(
                f"rows {rows.tolist()} still fail after {max_retries} resampling rounds"
            )
        attempt += 1
        for j in rows:
            matrices.a[j], matrices.b[j], matrices.blocks_used[j] = _draw_row_pair(
                matrices.cuboid, matrices.seed, int(j),
                int(matrices.blocks_used[j]), matrices.validity,
                matrices.sampler, 10_000,
            )
            resampled.append(int(j))
        _refresh_swaps(matrices, rows)
        # the block views write the new solutions through into values
        ys_a, ys_b, ys_as, ys_bs = _blocks(run(stack(rows)), rows.size)
        y_a[rows], y_b[rows] = ys_a, ys_b
        y_as[:, rows], y_bs[:, rows] = ys_as, ys_bs
        rows = bad_rows()

    return FamilyEvaluation(
        times=grid, values=values, n=n, n_evaluations=evaluated,
        resampled_rows=tuple(resampled),
    )


@dataclass
class GlobalResult:
    """Time-resolved variance decomposition and the VBS/TSI indices."""

    times: np.ndarray
    param_names: tuple[str, ...]
    v_total: np.ndarray  # (T,)
    v_first: np.ndarray  # (N, T)
    v_complement: np.ndarray  # (N, T): variance of everything but parameter i
    vbs: np.ndarray  # (N, T)
    tsi: np.ndarray  # (N, T)
    n: int
    seed: int
    n_evaluations: int
    resampled_rows: int  # rows redrawn after a failed evaluation, with repeats
    undefined: np.ndarray  # (T,) bool: V below the variance floor

    def index_of(self, name: str) -> int:
        return self.param_names.index(name)


def vbs_tsi(family: FamilyEvaluation, matrices: SampleMatrices,
            var_floor: float = VARIANCE_FLOOR) -> GlobalResult:
    """Estimate V(t), V_i(t), V_~i(t) and form VBS_i = V_i/V, TSI_i = 1 - V_~i/V.

    Negative Monte-Carlo variance estimates are clipped at zero before the
    ratios; times where V(t) falls below the floor are flagged undefined.
    """
    y_a, y_b = family.y_a, family.y_b
    y_as, y_bs = family.y_a_swapped, family.y_b_swapped

    v_total = family.pooled().var(axis=0, ddof=1)  # (T,)

    # shares-only-column-i pairings: (B, A_i) and (A, B_i)
    v_first = 0.5 * (
        np.mean(y_b[None, :, :] * (y_as - y_a[None, :, :]), axis=1)
        + np.mean(y_a[None, :, :] * (y_bs - y_b[None, :, :]), axis=1)
    )
    # shares-all-but-column-i pairings: (A, A_i) and (B, B_i)
    v_complement = 0.5 * (
        np.mean(y_a[None, :, :] * (y_as - y_b[None, :, :]), axis=1)
        + np.mean(y_b[None, :, :] * (y_bs - y_a[None, :, :]), axis=1)
    )

    undefined = v_total < var_floor
    safe_v = np.where(undefined, 1.0, v_total)
    vbs = np.where(undefined[None, :], np.nan,
                   np.maximum(v_first, 0.0) / safe_v)
    tsi = np.where(undefined[None, :], np.nan,
                   np.maximum(1.0 - v_complement / safe_v, 0.0))
    return GlobalResult(
        times=family.times, param_names=matrices.cuboid.names,
        v_total=v_total, v_first=v_first, v_complement=v_complement,
        vbs=vbs, tsi=tsi, n=matrices.n, seed=matrices.seed,
        n_evaluations=family.n_evaluations,
        resampled_rows=len(family.resampled_rows), undefined=undefined,
    )


def analyze_global(
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cuboid: ParameterCuboid,
    n: int,
    seed: int,
    grid,
    validity: Validity | None = None,
    sampler: str = "pseudo",
) -> GlobalResult:
    """Sample, evaluate the family of solutions, and reduce to VBS/TSI."""
    matrices = build_sample_matrices(cuboid, n, seed, validity=validity, sampler=sampler)
    family = evaluate_family(evaluator, matrices, grid)
    return vbs_tsi(family, matrices)
