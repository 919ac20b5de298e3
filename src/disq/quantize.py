"""Codebook training and token assignment.

Covers plain per-stream k-means (Lloyd's algorithm with k-means++ seeding),
multi-stage residual quantization, and the category-wise discretization of
74-dim paralinguistic frames.

The kernels are exact: `nearest_centroids` returns the brute-force winner,
and `kmeans_fit` the centroids of a straightforward implementation, bit for
bit. Both score in float32 on rows scaled by one power of two and rescore
in float64 where float32 cannot decide: `nearest_centroids` by a per-row
tie tolerance, k-means++ seeding by a float32 lower bound on each point's
distance to the new centre. A fit ends on an assignment pass, so it also
hands back each training row's token (`kmeans_fit`'s `assignment`).

Distortion below always means the mean over frames of the squared Euclidean
distance to the chosen centroid (sum over feature dims).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import OPENSMILE_DIM, FeatureSequence

# Relative distortion increase tolerated before the monotonicity assert trips;
# covers float64 rounding at plateaus only.
_MONOTONE_SLACK = 1e-9

# Lloyd's algorithm stops once one pass improves the distortion by less than
# this fraction.
_REL_TOL = 1e-6


@dataclass
class Codebook:
    """K centroids for one stream, with training provenance."""

    centroids: np.ndarray  # (k, dim) float64
    stream_id: str
    k: int
    seed: int
    final_distortion: float
    iterations_run: int
    distortion_history: list[float] = field(default_factory=list, repr=False)

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


@dataclass
class TokenSequence:
    """Length-T centroid indices for one stream of one utterance."""

    indices: np.ndarray
    stream_id: str
    k: int

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 1 or self.indices.size < 1:
            raise ValueError("indices must be a non-empty 1-D array")
        if self.indices.min() < 0 or self.indices.max() >= self.k:
            raise ValueError(f"token indices out of range for k={self.k}")

    def __len__(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class _ScaledRows:
    """Rows x * 2**-exp as the float32 block [x * 2**-exp | 1], with their float64 norms."""

    exp: int
    block: np.ndarray  # (n, d + 1) float32
    norms: np.ndarray  # (n,) float64


def _max_exponent(*arrays: np.ndarray) -> int:
    """e such that the largest magnitude in arrays, times 2**-e, lies in [1/2, 1); 0 if all are 0."""
    top = max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)
    return int(np.frexp(top)[1])


def _scale_rows(x: np.ndarray, exp: int) -> _ScaledRows:
    """x times 2**-exp, which is exact short of underflow, as `nearest_centroids` uses it."""
    xs = np.ldexp(x, -exp)
    block = np.empty((x.shape[0], x.shape[1] + 1), dtype=np.float32)
    block[:, :-1] = xs
    block[:, -1] = 1.0
    return _ScaledRows(exp, block, np.sqrt(np.einsum("nd,nd->n", xs, xs)))


@np.errstate(over="ignore")  # a term or threshold past the float64 range is rightly inf
def _tie_tolerance(norms: np.ndarray, r: float, d: int, exp: int) -> np.ndarray:
    """Per-row score margin below which float32 cannot decide; see `nearest_centroids`."""
    beta32 = (d + 4) * 2.0**-24 / (1 - (d + 4) * 2.0**-24)
    beta64 = (d + 4) * 2.0**-53 / (1 - (d + 4) * 2.0**-53)
    eps = beta32 * (norms * r + 0.5 * r * r) + 2.0**-125 * (np.sqrt(d) * (norms + r) + d + 1)
    reach = (norms + r) ** 2
    tau = 2.0 * (eps + beta64 * 0.5 * reach + np.ldexp(float(d), -2 * exp - 1074))
    tau[reach >= np.ldexp(1.0, 1023 - 2 * exp)] = np.inf
    return tau


@np.errstate(over="ignore")  # past the float32 range the limit is inf
def _ceil32(v: np.ndarray) -> np.ndarray:
    """float32 values >= v: v rounded to nearest, then one ulp up."""
    return np.nextafter(v.astype(np.float32), np.float32(np.inf))


def _rescore(x: np.ndarray, centroids: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Direct-distance winner of each row among its candidates, ties to the lowest index.

    cand[i, j] marks centroid j as a candidate for row x[i]. Distances are
    subtract, square, then sum over the last axis, as a brute-force search
    computes them. Rows go in groups whose candidates span at most 2**20
    coordinates.
    """
    m, k = cand.shape
    group = max(1, (1 << 20) // (k * x.shape[1]))
    out = np.empty(m, dtype=np.int64)
    for g in range(0, m, group):
        rows, cols = np.nonzero(cand[g : g + group])
        diff = x[g + rows] - centroids[cols]
        np.square(diff, out=diff)
        # sort by row, then distance; the sort is stable, so ties keep column order
        order = np.lexsort((diff.sum(axis=1), rows))
        out[g : g + group] = cols[order[np.flatnonzero(np.diff(rows[order], prepend=-1))]]
    return out


def nearest_centroids(x: np.ndarray, centroids: np.ndarray, rows: _ScaledRows | None = None):
    """Squared distance to, and index of, each row's nearest centroid.

    The winner is the centroid a brute-force search with the direct
    subtract/square/sum distance picks, ties going to the lowest index, and
    its distance is the direct one. float32 decides most rows:

    x and the centroids are scaled by one power of two, s = 2^-e, which is
    exact, so that the largest magnitude lies in [1/2, 1). (`rows` holds a
    scaled x that `kmeans_fit` makes once per fit.) One SGEMM of [xs | 1]
    against [-cs ; |cs|^2 / 2] scores every pair. Exactly, score_ij is
    s^2 |x_i - c_j|^2 / 2 - s^2 |x_i|^2 / 2, which ranks centroids as the
    distance does. With X = |x_i s|, R = max_j |c_j s| and u = 2^-24, the
    float32 score lies within

        eps = beta (X R + R^2 / 2) + 2^-125 (sqrt(d) (X + R) + d + 1)

    of it, beta = (d + 4) u / (1 - (d + 4) u). beta covers rounding the
    inputs to float32 (2u X R + u R^2 / 2) and the (d + 1)-term dot product
    in any summation order, with or without FMA ((d + 1) u / (1 - (d + 1) u)
    times X R + R^2 / 2). The 2^-125 term covers float32 underflow, gradual
    or flushed to zero: each term a_k b_k loses at most 2^-126 (1 + |a_k| +
    |b_k|) to a small input or product, the norm term and each partial sum
    at most 2^-126. The float64 direct distance, in any summation order, is
    within (d + 1) u64 |x - c|^2, plus d 2^-1075 for squares that
    underflow, of the exact one (u64 = 2^-53). In score units, with
    |x - c| <= (X + R) / s, that is at most

        delta = beta64 (X + R)^2 / 2 + d 2^(-1074 - 2e),

    beta64 being beta with u64. If score_ij exceeds the best score by more
    than tau = 2 (eps + delta), centroid j's exact distance exceeds the best
    one's by more than both direct distances can err, so j neither wins nor
    ties. Each row whose runner-up lies within tau of its best gets the
    direct distance to every centroid within tau and takes the lowest-index
    minimum. A row whose direct distances may overflow, (X + R)^2 >=
    2^(1023 - 2e), gets tau = inf. The constants leave slack for the
    float64 rounding of tau and of the comparisons. Scores go, chunk by
    chunk, into one reused buffer of at most 2**20 float32 scores (one row
    when K is larger); a row's winner does not depend on its chunk.
    """
    x = np.asarray(x, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if rows is None:
        rows = _scale_rows(x, _max_exponent(x, centroids))
    n, d = x.shape
    k = centroids.shape[0]
    cs = np.ldexp(centroids, -rows.exp)
    c2 = np.einsum("kd,kd->k", cs, cs)
    weights = np.empty((d + 1, k), dtype=np.float32)
    np.negative(cs.T, out=weights[:d], casting="same_kind")
    weights[d] = 0.5 * c2
    tau = _tie_tolerance(rows.norms, float(np.sqrt(c2.max())), d, rows.exp)
    out_d2 = np.empty(n)
    out_idx = np.empty(n, dtype=np.int64)
    chunk = max(1, (1 << 20) // max(k, 1))
    scores = np.empty((min(chunk, n), k), dtype=np.float32)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        s = scores[: stop - start]
        np.matmul(rows.block[start:stop], weights, out=s)
        idx = np.argmin(s, axis=1)
        picked = np.arange(stop - start), idx
        close = s <= _ceil32(s[picked] + tau[start:stop])[:, None]
        close[picked] = False
        if close.any():
            rescored = np.flatnonzero(close.any(axis=1))
            cand = close[rescored]
            cand[np.arange(rescored.size), idx[rescored]] = True
            idx[rescored] = _rescore(x[start + rescored], centroids, cand)
        diff = centroids[idx]
        np.subtract(x[start:stop], diff, out=diff)
        out_d2[start:stop] = np.einsum("nd,nd->n", diff, diff)
        out_idx[start:stop] = idx
    return out_d2, out_idx


def _column_sq_dist(xt: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distance from c to each column of the C-contiguous (d, m) block xt.

    Subtract, square, then sum the d rows in row order. numpy reduces axis 0
    of a C-contiguous block row by row whatever m is, except that it sums a
    lone column pairwise, so one column is summed beside a copy of itself.
    """
    diff = xt - c[:, None]
    np.square(diff, out=diff)
    if diff.shape[1] == 1:
        return np.repeat(diff, 2, axis=1).sum(axis=0)[:1]
    return diff.sum(axis=0)


@np.errstate(over="ignore", invalid="ignore")  # a distance or its bound may overflow; both are rescored
def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding that computes a full distance only where a point can move.

    After centre c is drawn, d2 becomes min(d2, D) with D the exact
    subtract/square/sum distance of `_column_sq_dist`. A cheap float32
    lower bound on D comes first, in the units of `nearest_centroids`: x
    and c scaled by s = 2^-e, exactly, with e from `_max_exponent(x)`, so
    every scaled coordinate lies below 1 in magnitude. With X = |x s|,
    C = |c s| and u = 2^-24,

        L = X^2 - 2 (x s).(c s) + C^2 - beta (X + C)^2 - eta,

    beta = (d + 8) u / (1 - (d + 8) u), eta = (d + 2) 2^-123 + d 2^(-1074 - 2e).

    Evaluated in float32, L lands within (d + 6) u (X + C)^2 of its exact
    value, slack for second-order terms aside: rounding x s and c s to
    float32 moves the cross term by at most (4u + 2u^2) X C <= (u + u^2/2)
    (X + C)^2; rounding the float64 norm terms moves X^2 and C^2 by at most
    2u of themselves; the (d + 3)-term dot product errs by at most
    (d + 3) u / (1 - (d + 3) u) times its absolute sum, about (X + C)^2, in
    any summation order, with or without FMA. The float64 D times s^2 lies
    within (d + 2) 2^-53 (X + C)^2 of |x s - c s|^2, short of squares that
    underflow, d 2^(-1074 - 2e) in all in scaled units; beta keeps
    2u (X + C)^2 for that and for the second-order terms. Float32 underflow, gradual or flushed to zero, loses at
    most 2^-126 per rounded input, product, norm term and partial sum:
    X, C <= sqrt(d) bound the input terms by 2^-124 d and the rest by
    (3d + 8) 2^-126, together below (d + 2) 2^-123. So computed L <= D s^2.

    Each point's d2 s^2 is held as a float32 rounded up from it (`_ceil32`),
    so where L >= that value, D >= d2 and the minimum keeps d2 bit for bit:
    only the other points get their exact D. A d2 that overflowed is inf,
    which no L reaches, so its point is rescored. d2, and with it every rng
    draw, is bitwise what a full distance pass at every step gives.

    Norms are computed once per fit. Rows [x s | X | (1 - beta) X^2 | 1] are
    held dim-major in float32, so L for every point is one SGEMV against
    [-2 c s, -2 beta C, 1, (1 - beta) C^2 - eta].
    """
    n, d = x.shape
    centroids = np.empty((k, d))
    chosen = np.zeros(n, dtype=bool)
    exp = _max_exponent(x)
    beta = (d + 8) * 2.0**-24 / (1 - (d + 8) * 2.0**-24)
    eta = (d + 2) * 2.0**-123 + np.ldexp(float(d), -1074 - 2 * exp)
    xt = np.ascontiguousarray(x.T)  # dim-major x: each exact pass is d contiguous row updates
    xs = np.ldexp(xt, -exp)
    sq = np.einsum("dn,dn->n", xs, xs)
    norms = np.sqrt(sq)
    aug = np.empty((d + 3, n), dtype=np.float32)
    aug[:d] = xs
    aug[d] = norms
    aug[d + 1] = (1.0 - beta) * sq
    aug[d + 2] = 1.0
    w = np.empty(d + 3, dtype=np.float32)
    w[d + 1] = 1.0
    low = np.empty(n, dtype=np.float32)

    first = int(rng.integers(n))
    centroids[0] = x[first]
    chosen[first] = True
    d2 = _column_sq_dist(xt, centroids[0])
    d2s = _ceil32(np.ldexp(d2, -2 * exp))
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all points sit exactly on chosen centroids; fall back to uniform
            candidates = np.flatnonzero(~chosen)
            pool = candidates if candidates.size else np.arange(n)
            idx = int(pool[rng.integers(pool.size)])
        centroids[j] = x[idx]
        chosen[idx] = True
        if j == k - 1:
            break
        np.multiply(aug[:d, idx], -2.0, out=w[:d])
        w[d] = -2.0 * beta * norms[idx]
        w[d + 2] = (1.0 - beta) * sq[idx] - eta
        np.matmul(w, aug, out=low)
        cols = np.flatnonzero(~(low >= d2s))
        if cols.size:
            new = np.minimum(d2[cols], _column_sq_dist(np.take(xt, cols, axis=1), centroids[j]))
            d2[cols] = new
            d2s[cols] = _ceil32(np.ldexp(new, -2 * exp))
    return centroids


def _lloyd_update(x, centroids, assign_idx, d2, k):
    """Mean update plus farthest-point reseeding of empty clusters.

    The cluster sums are one bincount over the flattened cluster * d + dim
    bins, weighted by x in row-major order. Each bin adds its rows in row
    order, as a row-wise scatter-add does, so the sums are the same bits.
    """
    d = x.shape[1]
    counts = np.bincount(assign_idx, minlength=k)
    bins = (assign_idx * d)[:, None] + np.arange(d)
    sums = np.bincount(bins.ravel(), weights=x.ravel(), minlength=k * d).reshape(k, d)
    new = centroids.copy()
    occupied = counts > 0
    new[occupied] = sums[occupied] / counts[occupied, None]
    empty = np.flatnonzero(~occupied)
    if empty.size:
        d2 = d2.copy()
        for j in empty:
            far = int(np.argmax(d2))
            new[j] = x[far]
            d2[far] = -1.0
    return new, bool(empty.size)


def kmeans_fit(
    x: np.ndarray,
    k: int,
    seed: int,
    max_iters: int = 100,
    stream_id: str = "",
    assignment: np.ndarray | None = None,
) -> Codebook:
    """Lloyd's algorithm with k-means++ seeding, seeded and deterministic.

    Stops once the relative distortion improvement over one iteration falls
    below 1e-6 (repair iterations never stop early) or after max_iters
    assignment passes. Empty clusters are reseeded to the point farthest
    from its assigned centroid, so all k rows stay live. The recorded
    distortion sequence is asserted non-increasing.

    The loop ends on an assignment pass, before any update, so that pass
    gives each row of x the index of its nearest returned centroid, the one
    `assign` picks. `assignment`, an (n,) integer array, receives it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite training data")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(x, k, rng)
    # centroids are means or copies of rows, so x alone sets the scale
    rows = _scale_rows(x, _max_exponent(x))
    history: list[float] = []
    repaired = False
    iterations = 0
    for it in range(1, max_iters + 1):
        d2, assign_idx = nearest_centroids(x, centroids, rows)
        mse = float(d2.mean())
        if history:
            assert mse <= history[-1] + _MONOTONE_SLACK * max(1.0, history[-1]), (
                f"Lloyd distortion increased: {history[-1]} -> {mse}"
            )
            stop = not repaired and (history[-1] - mse) < _REL_TOL * max(
                history[-1], np.finfo(float).tiny
            )
        else:
            stop = False
        history.append(mse)
        iterations = it
        if stop or it == max_iters:
            break
        centroids, repaired = _lloyd_update(x, centroids, assign_idx, d2, k)
    if assignment is not None:
        assignment[...] = assign_idx

    return Codebook(
        centroids=centroids,
        stream_id=stream_id,
        k=k,
        seed=seed,
        final_distortion=history[-1],
        iterations_run=iterations,
        distortion_history=history,
    )


def assign(cb: Codebook, h: FeatureSequence) -> TokenSequence:
    """Map each frame to its nearest centroid index (ties: lowest index)."""
    if h.dim != cb.dim:
        raise ValueError(f"frame dim {h.dim} != codebook dim {cb.dim}")
    _, idx = nearest_centroids(h.frames, cb.centroids)
    return TokenSequence(idx, cb.stream_id, cb.k)


def reconstruct(cb: Codebook, tokens: TokenSequence) -> FeatureSequence:
    """Centroid lookup: row t of the output is centroid tokens.indices[t]."""
    idx = tokens.indices
    if idx.min() < 0 or idx.max() >= cb.k:
        raise ValueError(f"token index out of range for codebook k={cb.k}")
    return FeatureSequence(cb.centroids[idx], stream_id=cb.stream_id)


@dataclass
class RvqCodebook:
    """Ordered quantizer stages; stage s is trained on the residual left by stages < s."""

    stages: list[Codebook]
    residual_energies: list[float]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("need at least one stage")
        dims = {cb.dim for cb in self.stages}
        if len(dims) != 1:
            raise ValueError("all stages must share one dim")

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def dim(self) -> int:
        return self.stages[0].dim


def rvq_fit(
    x: np.ndarray,
    n_stages: int,
    k_per_stage: int,
    seed: int,
    stream_id: str = "rvq",
) -> RvqCodebook:
    """Train a residual quantizer: each stage runs kmeans_fit on what is left.

    Stage s uses seed + s, so a 1-stage fit is bit-identical to kmeans_fit
    with the same seed. Residual energies are measured on the training data
    after each stage and are non-increasing because stage centroids are
    cluster means.
    """
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    residual = np.asarray(x, dtype=np.float64).copy()
    idx = np.empty(len(residual), dtype=np.int64)
    stages: list[Codebook] = []
    energies: list[float] = []
    for s in range(n_stages):
        cb = kmeans_fit(residual, k_per_stage, seed + s, stream_id=f"{stream_id}:stage{s}", assignment=idx)
        residual -= cb.centroids[idx]
        energy = float(np.einsum("nd,nd->n", residual, residual).mean())
        if energies:
            assert energy <= energies[-1] + _MONOTONE_SLACK * max(1.0, energies[-1])
        energies.append(energy)
        stages.append(cb)
    return RvqCodebook(stages, energies)


def rvq_encode(rvq: RvqCodebook, h: FeatureSequence) -> list[TokenSequence]:
    """Greedy stage-wise encoding: each stage quantizes the running residual."""
    if h.dim != rvq.dim:
        raise ValueError(f"frame dim {h.dim} != quantizer dim {rvq.dim}")
    residual = np.asarray(h.frames, dtype=np.float64).copy()
    out = []
    for cb in rvq.stages:
        _, idx = nearest_centroids(residual, cb.centroids)
        residual -= cb.centroids[idx]
        out.append(TokenSequence(idx, cb.stream_id, cb.k))
    return out


def rvq_decode(
    rvq: RvqCodebook, tokens: list[TokenSequence], n_stages_used: int | None = None
) -> FeatureSequence:
    """Sum of the first n_stages_used stage centroids; 0 stages gives zeros."""
    if n_stages_used is None:
        n_stages_used = len(tokens)
    if not 0 <= n_stages_used <= min(rvq.n_stages, len(tokens)):
        raise ValueError(
            f"n_stages_used={n_stages_used} is not in 0..{min(rvq.n_stages, len(tokens))} "
            f"({rvq.n_stages} trained, {len(tokens)} encoded)"
        )
    t = len(tokens[0]) if tokens else None
    if t is None:
        raise ValueError("need at least one encoded stage to know the frame count")
    out = np.zeros((t, rvq.dim))
    for cb, tok in zip(rvq.stages[:n_stages_used], tokens[:n_stages_used]):
        out += cb.centroids[tok.indices]
    return FeatureSequence(out, stream_id="rvq")


def reconstruction_mse(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean over frames of the squared Euclidean distance."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(x_hat, dtype=np.float64)
    return float(np.einsum("nd,nd->n", diff, diff).mean())


@dataclass(frozen=True)
class FeatureCategory:
    name: str
    dim: int
    k: int


@dataclass(frozen=True)
class CategoryTable:
    """Ordered paralinguistic categories; column layout follows this order."""

    categories: tuple[FeatureCategory, ...]

    def __post_init__(self):
        total_dim = sum(c.dim for c in self.categories)
        if total_dim != OPENSMILE_DIM:
            raise ValueError(f"category dims sum to {total_dim}, expected {OPENSMILE_DIM}")
        if any(c.dim < 1 or c.k < 1 for c in self.categories):
            raise ValueError("category dims and k values must be >= 1")

    def slices(self) -> list[tuple[FeatureCategory, slice]]:
        out, start = [], 0
        for cat in self.categories:
            out.append((cat, slice(start, start + cat.dim)))
            start += cat.dim
        return out

    def column_slice(self, name: str) -> slice:
        for cat, cols in self.slices():
            if cat.name == name:
                return cols
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.categories)


OPENSMILE_CATEGORIES = CategoryTable(
    (
        FeatureCategory("prosody", 6, 32),
        FeatureCategory("spectral", 14, 64),
        FeatureCategory("mfcc", 14, 64),
        FeatureCategory("voice_quality", 5, 32),
        FeatureCategory("formants", 6, 32),
        FeatureCategory("auditory_bands", 26, 128),
        FeatureCategory("additional", 3, 16),
    )
)


def quantize_opensmile(h_os: FeatureSequence, codebooks: dict[str, Codebook]) -> dict[str, TokenSequence]:
    """Discretize each category block with its codebook: one TokenSequence per category, in table order."""
    if h_os.dim != OPENSMILE_DIM:
        raise ValueError(f"expected {OPENSMILE_DIM}-dim frames, got {h_os.dim}")
    tokens: dict[str, TokenSequence] = {}
    for cat, cols in OPENSMILE_CATEGORIES.slices():
        cb = codebooks[cat.name]
        if cb.k != cat.k:
            raise ValueError(f"{cat.name}: codebook k={cb.k} != table k={cat.k}")
        tokens[cat.name] = assign(cb, FeatureSequence(h_os.frames[:, cols], stream_id=f"osm:{cat.name}"))
    return tokens
