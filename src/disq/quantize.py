"""Codebook training and token assignment.

Covers plain per-stream k-means (Lloyd's algorithm with k-means++ seeding),
multi-stage residual quantization, elbow-based codebook sizing, and the
category-wise discretization of 74-dim paralinguistic frames.

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


def nearest_centroids(x: np.ndarray, centroids: np.ndarray):
    """Squared distance to, and index of, each row's nearest centroid.

    Centroids are ranked by 0.5*|c|^2 - x.c, which orders them as the full
    |x|^2 - 2 x.c + |c|^2 expansion does: |x|^2 is constant per row and
    halving is exact in binary floating point. Scores go, chunk by chunk,
    into one reused buffer; ties go to the lowest centroid index (np.argmin
    keeps the first minimum).
    """
    x = np.asarray(x, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    n, k = x.shape[0], centroids.shape[0]
    half_c2 = 0.5 * np.einsum("kd,kd->k", centroids, centroids)
    ct = centroids.T
    out_d2 = np.empty(n)
    out_idx = np.empty(n, dtype=np.int64)
    chunk = max(1, int(4_000_000 // max(k, 1)))
    scores = np.empty((min(chunk, n), k))
    for start in range(0, n, chunk):
        xs = x[start : start + chunk]
        s = scores[: xs.shape[0]]
        np.matmul(xs, ct, out=s)
        np.subtract(half_c2, s, out=s)
        idx = np.argmin(s, axis=1)
        out_idx[start : start + chunk] = idx
        # recompute the winning distance with the direct formula: exact at
        # fixed points where the expansion leaves ~1e-16 residue
        diff = centroids[idx]
        np.subtract(xs, diff, out=diff)
        out_d2[start : start + chunk] = np.einsum("nd,nd->n", diff, diff)
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


@np.errstate(over="ignore", invalid="ignore")  # a bound may overflow; NaN is rescored
def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding that computes a full distance only where a point can move.

    After centre c is drawn, d2 becomes min(d2, D) with D the exact
    subtract/square/sum distance of `_column_sq_dist`. A cheap lower bound
    on D comes first:

        L = |x|^2 - 2 x.c + |c|^2 - beta (|x| + |c|)^2 - eta

    with beta = 4 (d + 2) u, u = 2^-53 and eta = (2d + 3) 2^-1074. Evaluated
    in float64, the expansion with its bound term lands within about
    (2d + 5) u (|x| + |c|)^2 of its exact value, and D within (d + 2) u
    |x - c|^2 <= (d + 2) u (|x| + |c|)^2 of |x - c|^2; beta leaves
    (d + 1) u (|x| + |c|)^2 to spare. Products that underflow lose at most
    2^-1075 each, about 4d + 4 of them in all, which eta covers. So computed
    L <= D, and where L >= d2 the minimum keeps d2 bit for bit: only the
    other points (NaN counts as one) get their exact D. d2, and with it every
    rng draw, is bitwise what a full distance pass at every step gives.

    Norms are computed once per fit. Rows [x | |x| | (1 - beta)|x|^2 | 1] are
    held dim-major, so L for every point is one GEMV against
    [-2c, -2 beta |c|, 1, (1 - beta)|c|^2 - eta].
    """
    n, d = x.shape
    centroids = np.empty((k, d))
    chosen = np.zeros(n, dtype=bool)
    beta = 4 * (d + 2) * 2.0**-53
    eta = (2 * d + 3) * 2.0**-1074
    aug = np.empty((d + 3, n))
    xt = aug[:d]  # dim-major x: each exact pass is d contiguous row updates
    xt[...] = x.T
    sq = np.einsum("dn,dn->n", xt, xt)
    np.sqrt(sq, out=aug[d])
    np.multiply(sq, 1.0 - beta, out=aug[d + 1])
    aug[d + 2] = 1.0
    w = np.empty(d + 3)
    w[d + 1] = 1.0
    low = np.empty(n)

    first = int(rng.integers(n))
    centroids[0] = x[first]
    chosen[first] = True
    d2 = _column_sq_dist(xt, centroids[0])
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
        np.multiply(centroids[j], -2.0, out=w[:d])
        w[d] = -2.0 * beta * aug[d, idx]
        w[d + 2] = aug[d + 1, idx] - eta
        np.matmul(w, aug, out=low)
        cols = np.flatnonzero(~(low >= d2))
        if cols.size:
            exact = _column_sq_dist(np.take(xt, cols, axis=1), centroids[j])
            d2[cols] = np.minimum(d2[cols], exact)
    return centroids


def _lloyd_update(x, centroids, assign_idx, d2, k):
    """Mean update plus farthest-point reseeding of empty clusters."""
    counts = np.bincount(assign_idx, minlength=k)
    # bincount adds each column's weights in row order, as a row-wise
    # scatter-add would, so the sums are the same bits
    sums = np.empty_like(centroids)
    for j in range(x.shape[1]):
        sums[:, j] = np.bincount(assign_idx, weights=x[:, j], minlength=k)
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
) -> Codebook:
    """Lloyd's algorithm with k-means++ seeding, seeded and deterministic.

    Stops once the relative distortion improvement over one iteration falls
    below 1e-6 (repair iterations never stop early) or after max_iters
    assignment passes. Empty clusters are reseeded to the point farthest
    from its assigned centroid, so all k rows stay live. The recorded
    distortion sequence is asserted non-increasing.
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
    history: list[float] = []
    repaired = False
    iterations = 0
    for it in range(1, max_iters + 1):
        d2, assign_idx = nearest_centroids(x, centroids)
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
    stages: list[Codebook] = []
    energies: list[float] = []
    for s in range(n_stages):
        cb = kmeans_fit(residual, k_per_stage, seed + s, stream_id=f"{stream_id}:stage{s}")
        _, idx = nearest_centroids(residual, cb.centroids)
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
    if n_stages_used > rvq.n_stages or n_stages_used > len(tokens):
        raise ValueError(
            f"n_stages_used={n_stages_used} exceeds available stages "
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


def knee_by_chord(ks, distortions) -> int:
    """Interior candidate farthest from the chord through the curve endpoints.

    Ties (e.g. an exactly linear curve) resolve to the smallest interior K.
    """
    ks = [int(k) for k in ks]
    ds = [float(d) for d in distortions]
    if len(ks) != len(ds):
        raise ValueError("ks and distortions must have equal length")
    if len(ks) < 3:
        raise ValueError("need at least 3 candidates for an interior knee")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("candidate Ks must be strictly ascending")
    ax, ay = ks[0], ds[0]
    bx, by = ks[-1], ds[-1]
    dist = [
        abs((bx - ax) * (ay - ds[i]) - (ax - ks[i]) * (by - ay)) for i in range(1, len(ks) - 1)
    ]
    return ks[1 + int(np.argmax(dist))]


def elbow_k(x: np.ndarray, candidate_ks, seed: int) -> int:
    """Fit every candidate K (same seed) and pick the distortion-curve knee."""
    candidate_ks = [int(k) for k in candidate_ks]
    n = np.asarray(x).shape[0]
    if any(k > n for k in candidate_ks):
        raise ValueError("every candidate K must be <= number of points")
    ds = [kmeans_fit(x, k, seed).final_distortion for k in candidate_ks]
    return knee_by_chord(candidate_ks, ds)


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


def fit_opensmile_codebooks(frames: np.ndarray, seed: int, max_iters: int = 100) -> dict[str, Codebook]:
    """One codebook per category, trained on that category's column block."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != OPENSMILE_DIM:
        raise ValueError(f"expected N x {OPENSMILE_DIM} frames, got shape {frames.shape}")
    books = {}
    for cat, cols in OPENSMILE_CATEGORIES.slices():
        books[cat.name] = kmeans_fit(frames[:, cols], cat.k, seed, max_iters, stream_id=f"osm:{cat.name}")
    return books


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
