"""Variance-based global sensitivity analysis over a parameter cuboid.

Sample-matrix construction follows the pick-and-freeze scheme: two
independent uniform sample blocks A and B, plus per-parameter single-column
swaps between them. The time-resolved first-order and total variance shares
are estimated from correlations between runs that share all-but-one or only
one parameter column:

    V_i    from pairs sharing only column i      -> VBS_i = V_i / V
    V_~i   from pairs sharing all but column i   -> TSI_i = 1 - V_~i / V

Both estimators are averaged over their two available pairings, and each
is a sum over the n row pairs. :func:`analyze_global` therefore solves the
family of 2n(N+1) solutions in chunks of at most PAIRS_PER_SOLVE row pairs,
each with all 2(N+1) runs of its pairs, and reduces each chunk to per-time
sums (mean, centred sum of squares and the estimators' dot products) in one
pass over blocks of a few times before the next chunk is solved. V(t) pools
across chunks by pairwise mean and M2 updates (Chan, Golub & LeVeque 1983),
so memory grows with the rows of one chunk, not with n. Sampling is seeded
and counter-based: every row owns its own sequence of draw blocks (a
substream, or Halton indices, both keyed by the row's index in the whole
sample), so rejection resampling of one row never disturbs any other row,
a chunk redraws a row as the whole sample would, and results are
bit-reproducible for a given (cuboid, n, seed, grid). The cuboid is the
whole sampled region: its box, and the joint constraints every row meets.
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
#: The samplers of build_sample_matrices.
SAMPLERS = ("pseudo", "halton")
#: Block b of whole-sample row r is the Halton point of index 1 + r + b * HALTON_STRIDE:
#: distinct over all rows and blocks while n <= HALTON_STRIDE, the halton sampler's limit.
HALTON_STRIDE = 1_000_003
#: Row pairs per solve of :func:`analyze_global`: n pairs go in
#: ceil(n / PAIRS_PER_SOLVE) chunks of near-equal size. A hatze chunk of
#: 512 pairs is 9,216 rows: its (101, rows) family is 7.4 MB and its
#: (8, rows) step stack 0.6 MB, within a core's 2 MB L2 cache. On the
#: global-ensemble benchmark (n = 2048, one 8 s run each) 256 pairs ran at
#: 12.2 against 13.8 runs/s, and 1,024 peaked at 67 against 54 MB RSS.
PAIRS_PER_SOLVE = 512
#: Times per block of a family's reduction. Its temporaries hold two times'
#: rows, 0.3 MB for a hatze chunk of 9,216 rows and 1.2 MB for its whole
#: family at n = 2048, and stay in a core's cache: on the n = 2048 families
#: 3 and 4 were slower, and 1 was as fast over zajac and hatze together.
_TIMES_PER_BLOCK = 2

_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71)


@dataclass(frozen=True)
class ParameterCuboid:
    """Per-parameter [lower, upper] ranges with uniform sampling, and the rows' joint constraints.

    ``validity`` (None: the whole box) maps a dict of parameter columns to one
    bool per row. A row pair is kept only if A, B and every single-column swap
    between them pass it; the others are drawn again.
    """

    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    validity: Callable[[dict[str, np.ndarray]], np.ndarray] | None = None

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
        raise ValueError(f"halton sampler supports up to {len(_FIRST_PRIMES) // 2} parameters")
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


def _rows_valid(cuboid: ParameterCuboid, a, b) -> np.ndarray:
    """Rows j whose pair (a[j], b[j]) stays valid in A, B and every single-column swap."""
    if cuboid.validity is None:
        return np.ones(a.shape[0], dtype=bool)
    rows = _family_rows(a, b)
    ok = np.broadcast_to(cuboid.validity(dict(zip(cuboid.names, rows.T))), rows.shape[:1])
    return ok.reshape(-1, a.shape[0]).all(axis=0)


@dataclass(frozen=True)
class SampleMatrices:
    """Base blocks A and B, plus the state that resampling continues from.

    The family evaluated from them is ``_family_rows(a, b)``: A, B, then the
    N single-column swaps of A (column i taken from B) and the N of B (column
    i taken from A). ``blocks_used`` counts each row's draw blocks, so that
    :meth:`redrawn` continues the row's own sequence deterministically.
    :meth:`pairs` cuts out a run of rows as matrices of their own, which
    keep in ``first_row`` the index of their row 0 in the whole sample: a
    row's draws and every message and count name it by that whole-sample
    index. Nothing writes into sample matrices: ``a``, ``b`` and
    ``blocks_used`` are read-only views, and a redraw returns new matrices.
    """

    cuboid: ParameterCuboid
    seed: int
    a: np.ndarray  # (n, N)
    b: np.ndarray  # (n, N)
    blocks_used: np.ndarray  # (n,)
    sampler: str = "pseudo"
    first_row: int = 0  # the whole-sample index of row 0

    def __post_init__(self):
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        for name in ("a", "b", "blocks_used"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def pairs(self, start: int, stop: int) -> "SampleMatrices":
        """Rows start..stop-1 as matrices of their own, which redraw each row
        as these matrices would."""
        return replace(self, a=self.a[start:stop], b=self.b[start:stop],
                       blocks_used=self.blocks_used[start:stop],
                       first_row=self.first_row + start)

    def redrawn(self, rows) -> "SampleMatrices":
        """These matrices with each of ``rows``' pairs drawn again after its used blocks.

        Row j is row first_row + j of the whole sample. A pseudo row draws
        from that row's own substream, a halton row takes the Halton point
        of index 1 + row + block * HALTON_STRIDE. Every row still without a
        valid pair draws its next block each round, and one call of the
        cuboid's validity checks the round, so each row gets the pair it
        would get drawn alone. A row still without one after MAX_DRAWS
        draws raises SamplingError, which names it by its whole-sample index.
        """
        N, rows = self.cuboid.n_params, np.asarray(rows, dtype=int)
        a, b, blocks = self.a.copy(), self.b.copy(), self.blocks_used.copy()
        pseudo, whole = self.sampler == "pseudo", self.first_row + rows
        gens = [_row_stream(self.seed, int(row)) for row in whole] if pseudo else []
        for gen, used in zip(gens, blocks[rows]):
            gen.random((used, 2 * N))  # burn consumed blocks
        todo = np.arange(rows.size)
        for _ in range(MAX_DRAWS):
            if not todo.size:
                break
            u = (np.array([gens[k].random(2 * N) for k in todo]) if pseudo else
                 _halton_points(1 + whole[todo] + blocks[rows[todo]] * HALTON_STRIDE, 2 * N))
            vals = self.cuboid.scale(u.reshape(-1, 2, N))
            blocks[rows[todo]] += 1
            ok = _rows_valid(self.cuboid, vals[:, 0], vals[:, 1])
            a[rows[todo[ok]]], b[rows[todo[ok]]] = vals[ok, 0], vals[ok, 1]
            todo = todo[~ok]
        if todo.size:
            raise SamplingError(f"row {whole[todo[0]]}: no valid sample within {MAX_DRAWS} "
                                "draws; check bounds and validity predicate")
        return replace(self, a=a, b=b, blocks_used=blocks)


def build_sample_matrices(
    cuboid: ParameterCuboid,
    n: int,
    seed: int,
    sampler: str = "pseudo",
) -> SampleMatrices:
    """Draw the base blocks A and B of a 2n(N+1)-row family.

    One first block for all rows at once (pseudo: one bulk stream, which
    uses no row's own blocks; halton: the points of indices 1..n, each row's
    block 0), then :meth:`SampleMatrices.redrawn` for the rows that violate
    the cuboid's validity in any swap combination, so the result is
    deterministic in (cuboid, n, seed) and each row independent of the rest.
    Bad settings raise ValueError before anything is drawn.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}")
    if n < 2:
        raise ValueError(f"need at least two sample rows, got n={n}")
    N, halton = cuboid.n_params, sampler == "halton"
    if halton and n > HALTON_STRIDE:
        raise ValueError(f"the halton sampler takes at most n={HALTON_STRIDE} rows, got n={n}")
    u = (_halton_points(1 + np.arange(n), 2 * N) if halton else
         np.random.Generator(np.random.Philox(np.random.SeedSequence([seed]))).random((n, 2 * N)))
    scaled = cuboid.scale(u.reshape(n, 2, N))
    first = SampleMatrices(cuboid=cuboid, seed=seed, a=scaled[:, 0], b=scaled[:, 1],
                           blocks_used=np.full(n, int(halton)), sampler=sampler)
    return first.redrawn(np.nonzero(~_rows_valid(cuboid, first.a, first.b))[0])


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
    ``resampled_rows`` names the redrawn rows by their whole-sample index,
    ``matrices.first_row`` plus their row in ``matrices``.
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
    rounds); they are never silently zero-filled, and a SamplingError names
    the first row that still fails by its whole-sample index. Nothing
    writes into ``matrices``: the family carries the redrawn ones. ``n_evaluations``
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
                f"rounds, the first at index {matrices.first_row + rows[0]}"
            )
        attempt += 1
        matrices = matrices.redrawn(rows)
        resampled.extend((matrices.first_row + rows).tolist())
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


@dataclass(frozen=True)
class _FamilySums:
    """Per-time sums of one family of solutions, or of several pooled.

    ``mean`` and ``m2`` are each time's mean and centred sum of squares over
    ``rows`` solutions, ``dots`` the (2N+1, 3) dot products of each time
    that :func:`vbs_tsi` forms V_i and V_~i from.
    """

    rows: int
    mean: np.ndarray  # (T,)
    m2: np.ndarray  # (T,)
    dots: np.ndarray  # (T, 2N+1, 3)
    n_evaluations: int
    resampled_rows: int

    def pooled(self, other: "_FamilySums") -> "_FamilySums":
        """The sums of both families' solutions: Chan, Golub & LeVeque's update."""
        rows = self.rows + other.rows
        delta = other.mean - self.mean
        return _FamilySums(
            rows=rows, mean=self.mean + delta * (other.rows / rows),
            m2=self.m2 + other.m2 + delta * delta * (self.rows * other.rows / rows),
            dots=self.dots + other.dots,
            n_evaluations=self.n_evaluations + other.n_evaluations,
            resampled_rows=self.resampled_rows + other.resampled_rows,
        )


def _family_sums(family: FamilyEvaluation) -> _FamilySums:
    """Reduce a family to its per-time sums in one pass over blocks of _TIMES_PER_BLOCK times.

    With D_i = A_i - A and E_i = B_i - B, a block's D_i, E_i and A - B go
    into one reused buffer and are dotted with A - B, A and B in one
    stacked product, so no temporary is larger than a block. Differences
    come first, so a column that leaves the solutions unchanged gets
    exactly zero dots. The mean and centred sum of squares take numpy's
    own reductions in the float operations of ``var``, and a threaded BLAS
    product splits its output entries, not their sums, so the sums do not
    depend on the BLAS thread count (unlike one BLAS dot per time).
    """
    n, N = family.matrices.n, family.matrices.cuboid.n_params
    T, R = family.values.shape
    mean, m2 = np.empty(T), np.empty(T)
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
        mean[times] = block.sum(axis=1) / R
        centred = block - mean[times, None]
        np.multiply(centred, centred, out=centred)
        m2[times] = centred.sum(axis=1)
    return _FamilySums(rows=R, mean=mean, m2=m2, dots=dots,
                       n_evaluations=family.n_evaluations,
                       resampled_rows=len(family.resampled_rows))


def _indices(times, matrices: SampleMatrices, sums: _FamilySums) -> GlobalResult:
    """V(t), V_i(t), V_~i(t) and the indices of the sample ``matrices`` from their sums."""
    n, N = matrices.n, matrices.cuboid.n_params
    v_total = sums.m2 / (sums.rows - 1)
    # (with A - B, with A, with B) per parameter: each (3, N, T)
    d, e = sums.dots[:, :N].T, sums.dots[:, N:2 * N].T
    v_first = (0.5 / n) * (d[2] + e[1])
    v_complement = (0.5 / n) * (d[1] + e[2] + sums.dots[:, 2 * N, 0])

    undefined = v_total < VARIANCE_FLOOR
    safe_v = np.where(undefined, 1.0, v_total)
    vbs = np.where(undefined[None, :], np.nan,
                   np.maximum(v_first, 0.0) / safe_v)
    tsi = np.where(undefined[None, :], np.nan,
                   1.0 - np.clip(v_complement / safe_v, 0.0, 1.0))
    return GlobalResult(
        times=times, param_names=matrices.cuboid.names,
        v_total=v_total, v_first=v_first, v_complement=v_complement,
        vbs=vbs, tsi=tsi, n=n, seed=matrices.seed,
        n_evaluations=sums.n_evaluations,
        resampled_rows=sums.resampled_rows, undefined=undefined,
    )


def vbs_tsi(family: FamilyEvaluation) -> GlobalResult:
    """Estimate V(t), V_i(t), V_~i(t) and form VBS_i = V_i/V, TSI_i = 1 - V_~i/V.

    The parameter names, n and seed are those of ``family.matrices``.

    Negative Monte-Carlo estimates of V_i and V_~i are clipped at zero before
    the ratios, and V_~i at V(t) too, so TSI lies in [0, 1]; ``v_first`` and
    ``v_complement`` keep the raw estimates. Times where V(t) falls below
    VARIANCE_FLOOR are flagged undefined.

    With D_i = A_i - A and E_i = B_i - B, the pairings (B, A_i) and (A, B_i)
    give V_i = (B.D_i + A.E_i) / 2n, and (A, A_i) and (B, B_i) give
    V_~i = (A.D_i + B.E_i + (A-B).(A-B)) / 2n, each dot product over the n
    sample rows of one time, and V(t) is the sample variance of all rows.
    The family is reduced to those sums by one pass over blocks of a few
    times, as :func:`analyze_global` reduces each of its chunks.
    """
    return _indices(family.times, family.matrices, _family_sums(family))


def analyze_global(
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cuboid: ParameterCuboid,
    n: int,
    seed: int,
    grid,
    sampler: str = "pseudo",
) -> GlobalResult:
    """Sample, evaluate the family of solutions chunk by chunk, and reduce to VBS/TSI.

    The n row pairs go in ceil(n / PAIRS_PER_SOLVE) chunks of near-equal
    size. Each chunk is a :meth:`SampleMatrices.pairs` of the sample, solved
    by :func:`evaluate_family` (its failed rows redrawn as the whole sample
    would redraw them) and reduced to per-time sums before the next is
    solved; the sums are pooled, so no more than one chunk's solutions are
    held. Up to PAIRS_PER_SOLVE pairs are one chunk, and the result is
    :func:`vbs_tsi` of the whole family bit for bit. ``n_evaluations`` and
    ``resampled_rows`` sum over the chunks.
    """
    matrices = build_sample_matrices(cuboid, n, seed, sampler=sampler)
    grid = np.asarray(grid, dtype=float)
    chunks = -(-n // PAIRS_PER_SOLVE)
    bounds = [n * k // chunks for k in range(chunks + 1)]
    sums = None
    for start, stop in zip(bounds, bounds[1:]):
        part = _family_sums(evaluate_family(evaluator, matrices.pairs(start, stop), grid))
        sums = part if sums is None else sums.pooled(part)
    return _indices(grid, matrices, sums)
