"""Variance-based global sensitivity analysis over a parameter cuboid.

Sample-matrix construction follows the pick-and-freeze scheme: two
independent uniform sample blocks A and B, plus per-parameter single-column
swaps between them. The time-resolved first-order and total variance shares
are estimated from correlations between runs that share all-but-one or only
one parameter column:

    V_i    from pairs sharing only column i      -> VBS_i = V_i / V
    V_~i   from pairs sharing all but column i   -> TSI_i = 1 - V_~i / V

Both estimators are averaged over their two available pairings, and
:func:`vbs_tsi` takes all of them in one pass over blocks of a few times of
the time-major family of solutions. Sampling is seeded and counter-based:
every row owns its own substream, so rejection resampling of one row never
disturbs any other row and results are bit-reproducible for a given
(cuboid, n, seed, grid).
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
#: Draws per row before rejection sampling gives up, in the first draw and
#: in every resampling round alike.
MAX_DRAWS = 10_000
#: Resampling rounds for rows whose evaluation fails.
MAX_RETRIES = 5
#: Times per block of :func:`vbs_tsi`'s reduction. Its temporaries hold two
#: times' rows, 1.2 MB for hatze's 36,864 rows at n = 2048, and stay in a
#: core's cache: on the n = 2048 families 3 and 4 were slower, and 1 was as
#: fast over zajac and hatze together.
_TIMES_PER_BLOCK = 2

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
        finite = np.isfinite(lo) & np.isfinite(hi)
        if not finite.all():
            bad = [n for n, ok in zip(self.names, finite) if not ok]
            raise InvalidBounds(f"bounds must be finite for {bad}")
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
    """Base blocks A and B, plus the state that resampling continues from.

    The family evaluated from them is ``_family_rows(a, b)``: A, B, then the
    N single-column swaps of A (column i taken from B) and the N of B (column
    i taken from A). ``blocks_used`` counts per-row draw blocks so a later
    resampling can continue each row's substream deterministically.
    """

    cuboid: ParameterCuboid
    seed: int
    n: int
    a: np.ndarray  # (n, N)
    b: np.ndarray  # (n, N)
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


def _family_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (2n(N+1), N) family of base rows a, b: A, B, A_swapped, B_swapped.

    Swap block i of A is A with column i taken from B, and the reverse for
    B (the A, B, A_B^(i) layout of Saltelli et al. 2010).
    """
    N = a.shape[1]
    swap = np.eye(N, dtype=bool)[:, None, :]  # block i swaps column i
    return np.concatenate([a, b, np.where(swap, b, a).reshape(-1, N),
                           np.where(swap, a, b).reshape(-1, N)])


def _rows_valid(cuboid, validity, a, b) -> np.ndarray:
    """Rows j whose pair (a[j], b[j]) stays valid in A, B and every single-column swap."""
    n = a.shape[0]
    if validity is None:
        return np.ones(n, dtype=bool)
    rows = _family_rows(a, b)
    ok = np.broadcast_to(validity(dict(zip(cuboid.names, rows.T))), rows.shape[:1])
    return ok.reshape(-1, n).all(axis=0)


def _draw_row_pairs(cuboid, seed, rows, start_blocks, validity, sampler):
    """Draw (a_row, b_row) for each of ``rows`` from its substream, skipping used blocks.

    Every row still without a valid pair draws its next block each round,
    and one validity call checks the round, so each row gets the pair it
    would get drawn alone. A row still without one after MAX_DRAWS draws
    raises SamplingError. Returns the a rows, b rows and blocks used.
    """
    N = cuboid.n_params
    rows, blocks = np.asarray(rows), np.array(start_blocks, dtype=int)
    a, b = np.empty((rows.size, N)), np.empty((rows.size, N))
    if sampler == "pseudo":
        gens = [_row_stream(seed, int(row)) for row in rows]
        for gen, used in zip(gens, blocks):
            if used:
                gen.random((used, 2 * N))  # burn consumed blocks
    elif sampler != "halton":
        raise ValueError(f"unknown sampler {sampler!r}")
    todo, draws = np.arange(rows.size), 0
    while todo.size:
        if draws == MAX_DRAWS:
            raise SamplingError(
                f"row {rows[todo[0]]}: no valid sample within {MAX_DRAWS} draws; "
                "check bounds and validity predicate"
            )
        draws += 1
        if sampler == "pseudo":
            u = np.array([gens[k].random(2 * N) for k in todo])
        else:
            u = _halton_points(1 + rows[todo] + blocks[todo] * 1_000_003, 2 * N)
        blocks[todo] += 1
        vals = cuboid.scale(u.reshape(-1, 2, N))
        ok = _rows_valid(cuboid, validity, vals[:, 0], vals[:, 1])
        a[todo[ok]], b[todo[ok]] = vals[ok, 0], vals[ok, 1]
        todo = todo[~ok]
    return a, b, blocks


def build_sample_matrices(
    cuboid: ParameterCuboid,
    n: int,
    seed: int,
    validity: Validity | None = None,
    sampler: str = "pseudo",
) -> SampleMatrices:
    """Draw the base blocks A and B of a 2n(N+1)-row family.

    The pseudo sampler draws all rows at once from one bulk stream, the
    halton sampler each row from its own substream; rows violating the
    validity predicate (in any swap combination) are rejection-resampled
    from their own substream, at most MAX_DRAWS times each, so the result
    is deterministic in (cuboid, n, seed) and independent of other rows.
    """
    if n < 2:
        raise ValueError(f"need at least two sample rows, got n={n}")
    N = cuboid.n_params
    if sampler == "pseudo":
        # a bulk stream, not the rows' substreams: no substream block is used;
        # only the rows it leaves invalid are drawn from their substreams
        u = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed]))
        ).random((n, 2 * N))
        scaled = cuboid.scale(u.reshape(n, 2, N))
        a, b = scaled[:, 0, :].copy(), scaled[:, 1, :].copy()
        rows = np.nonzero(~_rows_valid(cuboid, validity, a, b))[0]
    else:
        # every row from its substream; _draw_row_pairs rejects an unknown sampler
        a, b = np.empty((n, N)), np.empty((n, N))
        rows = np.arange(n)
    blocks = np.zeros(n, dtype=int)
    a[rows], b[rows], blocks[rows] = _draw_row_pairs(
        cuboid, seed, rows, np.zeros(rows.size, dtype=int), validity, sampler)
    return SampleMatrices(
        cuboid=cuboid, seed=seed, n=n, a=a, b=b, blocks_used=blocks,
        validity=validity, sampler=sampler,
    )


@dataclass
class FamilyEvaluation:
    """Model outputs for every sample row: the family of solutions.

    ``values`` holds all 2n(N+1) solutions as one C-contiguous, time-major
    (T, rows) array, the integrator's own layout, with the rows in the order
    of ``_family_rows``: each time's values over all rows are contiguous,
    and ``values.reshape(T, 2(N+1), n)`` views them as the A, B, N
    A_swapped and N B_swapped solutions of each time. ``matrices`` are the
    sample matrices the family was solved on, as resampling left them.
    """

    times: np.ndarray
    values: np.ndarray  # (T, 2n(N+1))
    matrices: SampleMatrices
    n_evaluations: int
    resampled_rows: tuple[int, ...] = ()


def evaluate_family(
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray],
    matrices: SampleMatrices,
    grid,
) -> FamilyEvaluation:
    """Evaluate the model on every sample row of every matrix.

    ``evaluator(rows, grid)`` maps an (R, N) parameter matrix to time-major
    (T, R) output trajectories, column j the solution of row j; rows it
    cannot solve must come back non-finite; the shape check rejects an
    (R, T) result unless R == T. Failed rows are resampled from their
    substream and re-evaluated (at most MAX_RETRIES rounds); they are never
    silently zero-filled. ``n_evaluations`` counts every row passed to the
    evaluator, re-evaluated rows included. A C-contiguous, writable result,
    as :func:`~actsens.presets.family_evaluator` returns, is kept without a
    copy; any other is copied once into that layout.
    """
    grid = np.asarray(grid, dtype=float)
    n = matrices.n
    evaluated = 0

    def run(rows_matrix):
        nonlocal evaluated
        evaluated += rows_matrix.shape[0]
        out = np.asarray(evaluator(rows_matrix, grid), dtype=float)
        if out.shape != (grid.size, rows_matrix.shape[0]):
            raise ValueError(
                f"evaluator returned shape {out.shape}, "
                f"expected (T, R) = {(grid.size, rows_matrix.shape[0])}"
            )
        return out

    values = np.require(run(_family_rows(matrices.a, matrices.b)), requirements=("C", "W"))
    # (T, 2(N+1), n): a view, so writes through it land in values
    by_block = values.reshape(grid.size, -1, n)

    def bad_rows():
        return np.nonzero(~np.all(np.isfinite(by_block), axis=(0, 1)))[0]

    resampled: list[int] = []
    rows = bad_rows()
    attempt = 0
    while rows.size:
        if attempt >= MAX_RETRIES:
            raise SamplingError(
                f"{rows.size} of {n} rows still fail after {MAX_RETRIES} resampling "
                f"rounds, the first at index {rows[0]}"
            )
        attempt += 1
        matrices.a[rows], matrices.b[rows], matrices.blocks_used[rows] = _draw_row_pairs(
            matrices.cuboid, matrices.seed, rows, matrices.blocks_used[rows],
            matrices.validity, matrices.sampler)
        resampled.extend(rows.tolist())
        redone = run(_family_rows(matrices.a[rows], matrices.b[rows]))
        by_block[:, :, rows] = redone.reshape(grid.size, -1, rows.size)
        rows = bad_rows()

    return FamilyEvaluation(
        times=grid, values=values, matrices=matrices, n_evaluations=evaluated,
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


def vbs_tsi(family: FamilyEvaluation) -> GlobalResult:
    """Estimate V(t), V_i(t), V_~i(t) and form VBS_i = V_i/V, TSI_i = 1 - V_~i/V.

    The parameter names, n and seed are those of ``family.matrices``.

    Negative Monte-Carlo variance estimates are clipped at zero before the
    ratios; times where V(t) falls below VARIANCE_FLOOR are flagged undefined.

    With D_i = A_i - A and E_i = B_i - B, the pairings (B, A_i) and (A, B_i)
    give V_i = (B.D_i + A.E_i) / 2n, and (A, A_i) and (B, B_i) give
    V_~i = (A.D_i + B.E_i + (A-B).(A-B)) / 2n, each dot product over the n
    sample rows of one time. One pass over blocks of _TIMES_PER_BLOCK times
    of the time-major family writes a block's D_i, E_i and A - B into one
    reused buffer, dots them all with A - B, A and B in one stacked product,
    and takes V(t) from the block's centred sum of squares over all rows, so
    no temporary is larger than a block. Differences come first, so a
    column that leaves the solutions unchanged gets V_i exactly 0. V(t)'s
    sums over all rows are numpy's own reductions, and a threaded BLAS
    product splits its output entries, not their sums, so the result does
    not depend on the BLAS thread count (unlike one BLAS dot per time).
    """
    matrices = family.matrices
    n, N = matrices.n, matrices.cuboid.n_params
    T = family.values.shape[0]
    v_total = np.empty(T)
    dots = np.empty((T, 2 * N + 1, 3))
    work = np.empty((_TIMES_PER_BLOCK, 2 * N + 3, n))  # D_1..D_N, E_1..E_N, A-B, A, B
    for start in range(0, T, _TIMES_PER_BLOCK):
        times = slice(start, start + _TIMES_PER_BLOCK)
        block = family.values[times]
        runs = block.reshape(block.shape[0], 2 * N + 2, n)  # A, B, A_1..A_N, B_1..B_N
        w = work[:block.shape[0]]
        np.subtract(runs[:, 2:N + 2], runs[:, :1], out=w[:, :N])
        np.subtract(runs[:, N + 2:], runs[:, 1:2], out=w[:, N:2 * N])
        np.subtract(runs[:, 0], runs[:, 1], out=w[:, 2 * N])
        w[:, 2 * N + 1:] = runs[:, :2]
        np.matmul(w[:, :2 * N + 1], w[:, 2 * N:].transpose(0, 2, 1), out=dots[times])
        v_total[times] = block.var(axis=1, ddof=1)
    # (with A - B, with A, with B) per parameter: each (3, N, T)
    d, e = dots[:, :N].T, dots[:, N:2 * N].T
    v_first = (0.5 / n) * (d[2] + e[1])
    v_complement = (0.5 / n) * (d[1] + e[2] + dots[:, 2 * N, 0])

    undefined = v_total < VARIANCE_FLOOR
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
    return vbs_tsi(evaluate_family(evaluator, matrices, grid))
