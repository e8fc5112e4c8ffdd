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
every row owns its own sequence of draw blocks (a substream, or Halton
indices), so rejection resampling of one row never disturbs any other row
and results are bit-reproducible for a given (cuboid, n, seed, grid).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
#: Draws per row of one redraw before rejection sampling gives up, after the
#: first block and in every resampling round alike.
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


@dataclass(frozen=True)
class SampleMatrices:
    """Base blocks A and B, plus the state that resampling continues from.

    The family evaluated from them is ``_family_rows(a, b)``: A, B, then the
    N single-column swaps of A (column i taken from B) and the N of B (column
    i taken from A). ``blocks_used`` counts each row's draw blocks, so that
    :meth:`redrawn` continues the row's own sequence deterministically.
    Nothing writes into sample matrices: ``a``, ``b`` and ``blocks_used`` are
    read-only views, and a redraw returns new matrices.
    """

    cuboid: ParameterCuboid
    seed: int
    a: np.ndarray  # (n, N)
    b: np.ndarray  # (n, N)
    blocks_used: np.ndarray  # (n,)
    validity: Validity | None = None
    sampler: str = "pseudo"

    def __post_init__(self):
        if self.sampler not in ("pseudo", "halton"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        for name in ("a", "b", "blocks_used"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def redrawn(self, rows) -> "SampleMatrices":
        """These matrices with each of ``rows``' pairs drawn again after its used blocks.

        A pseudo row draws from its own substream, a halton row takes the
        Halton point of index 1 + row + block * 1,000,003. Every row still
        without a valid pair draws its next block each round, and one
        validity call checks the round, so each row gets the pair it would
        get drawn alone. A row still without one after MAX_DRAWS draws
        raises SamplingError.
        """
        N, rows = self.cuboid.n_params, np.asarray(rows, dtype=int)
        a, b, blocks = self.a.copy(), self.b.copy(), self.blocks_used.copy()
        pseudo = self.sampler == "pseudo"
        gens = [_row_stream(self.seed, int(row)) for row in rows] if pseudo else []
        for gen, used in zip(gens, blocks[rows]):
            gen.random((used, 2 * N))  # burn consumed blocks
        todo = np.arange(rows.size)
        for _ in range(MAX_DRAWS):
            if not todo.size:
                break
            u = (np.array([gens[k].random(2 * N) for k in todo]) if pseudo else
                 _halton_points(1 + rows[todo] + blocks[rows[todo]] * 1_000_003, 2 * N))
            vals = self.cuboid.scale(u.reshape(-1, 2, N))
            blocks[rows[todo]] += 1
            ok = _rows_valid(self.cuboid, self.validity, vals[:, 0], vals[:, 1])
            a[rows[todo[ok]]], b[rows[todo[ok]]] = vals[ok, 0], vals[ok, 1]
            todo = todo[~ok]
        if todo.size:
            raise SamplingError(
                f"row {rows[todo[0]]}: no valid sample within {MAX_DRAWS} draws; "
                "check bounds and validity predicate"
            )
        return replace(self, a=a, b=b, blocks_used=blocks)


def build_sample_matrices(
    cuboid: ParameterCuboid,
    n: int,
    seed: int,
    validity: Validity | None = None,
    sampler: str = "pseudo",
) -> SampleMatrices:
    """Draw the base blocks A and B of a 2n(N+1)-row family.

    One first block for all rows at once (pseudo: one bulk stream, which
    uses no row's own blocks; halton: the points of indices 1..n, each row's
    block 0), then :meth:`SampleMatrices.redrawn` for the rows that violate
    the validity predicate in any swap combination, so the result is
    deterministic in (cuboid, n, seed) and each row independent of the rest.
    """
    if n < 2:
        raise ValueError(f"need at least two sample rows, got n={n}")
    N, halton = cuboid.n_params, sampler == "halton"
    # an unknown sampler draws as pseudo here, and SampleMatrices rejects it
    u = (_halton_points(1 + np.arange(n), 2 * N) if halton else
         np.random.Generator(np.random.Philox(np.random.SeedSequence([seed]))).random((n, 2 * N)))
    scaled = cuboid.scale(u.reshape(n, 2, N))
    first = SampleMatrices(cuboid=cuboid, seed=seed, a=scaled[:, 0], b=scaled[:, 1],
                           blocks_used=np.full(n, int(halton)), validity=validity, sampler=sampler)
    return first.redrawn(np.nonzero(~_rows_valid(cuboid, validity, first.a, first.b))[0])


@dataclass
class FamilyEvaluation:
    """Model outputs for every sample row: the family of solutions.

    ``values`` holds all 2n(N+1) solutions as one C-contiguous, time-major
    (T, rows) array, the integrator's own layout, with the rows in the order
    of ``_family_rows``: each time's values over all rows are contiguous,
    and ``values.reshape(T, 2(N+1), n)`` views them as the A, B, N
    A_swapped and N B_swapped solutions of each time. ``matrices`` are the
    sample matrices the family was solved on, failed rows redrawn: row j of
    ``_family_rows(matrices.a, matrices.b)`` is the row of solution j.
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
    (R, T) result unless R == T. Failed rows are redrawn by
    :meth:`SampleMatrices.redrawn` and re-evaluated (at most MAX_RETRIES
    rounds); they are never silently zero-filled. Nothing writes into
    ``matrices``: the family carries the redrawn ones. ``n_evaluations``
    counts every row passed to the evaluator, re-evaluated rows included. A
    C-contiguous, writable result, as :func:`~actsens.presets.family_evaluator`
    returns, is kept without a copy; any other is copied once into that
    layout.
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
        matrices = matrices.redrawn(rows)
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
