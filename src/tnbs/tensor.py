"""Dense tensor and tensor-train algebra.

Every flattening in this package uses one convention: the first index runs
fastest (column-major). ``vectorize`` maps element (i1, ..., id) of a tensor
with extents (k1, ..., kd) to linear position i1 + i2*k1 + i3*k1*k2 + ...
(0-based). The Kronecker-structured matrices built elsewhere rely on exactly
this ordering, so reshapes of tensor-train cores are column-major throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import _as_int

# Dense reconstruction is an oracle/debug path; anything larger than this
# defeats the purpose of the train format.
DENSE_CAP = 10_000_000


def vectorize(a: np.ndarray) -> np.ndarray:
    """Flatten a tensor into a vector, first index fastest."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of entry-wise products of two equal-shaped tensors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a.reshape(-1), b.reshape(-1)))


@dataclass(frozen=True, eq=False)
class TensorTrain:
    """Chain of third-order cores; core p has shape (r_{p-1}, k_p, r_p).

    Boundary ranks are one. ``canonical_site``, when set to s, asserts that
    cores left of s are left-orthogonal and cores right of s are
    right-orthogonal (the mixed-canonical form), so the represented tensor's
    norm sits entirely in core s.
    """

    cores: tuple[np.ndarray, ...]
    canonical_site: int | None = None

    def __post_init__(self):
        # Canonical memory layout so numerically identical trains evaluate
        # bit-identically regardless of how their cores were produced.
        cores = tuple(np.ascontiguousarray(c, dtype=float) for c in self.cores)
        object.__setattr__(self, "cores", cores)
        if not cores:
            raise ValueError("a tensor train needs at least one core")
        for p, core in enumerate(cores):
            if core.ndim != 3:
                raise ValueError(f"core {p} must be third-order, got shape {core.shape}")
        if cores[0].shape[0] != 1:
            raise ValueError(f"first rank must be 1, got {cores[0].shape[0]}")
        if cores[-1].shape[2] != 1:
            raise ValueError(f"last rank must be 1, got {cores[-1].shape[2]}")
        for p in range(len(cores) - 1):
            if cores[p].shape[2] != cores[p + 1].shape[0]:
                raise ValueError(
                    f"rank mismatch between cores {p} and {p + 1}: "
                    f"{cores[p].shape[2]} vs {cores[p + 1].shape[0]}"
                )
        if self.canonical_site is not None and not 0 <= self.canonical_site < len(cores):
            raise ValueError(f"canonical site {self.canonical_site} out of range")

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(core.shape[1] for core in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (self.cores[0].shape[0],) + tuple(core.shape[2] for core in self.cores)

    @property
    def n_parameters(self) -> int:
        return int(sum(core.size for core in self.cores))


def tt_to_full(tt: TensorTrain, max_elements: int = DENSE_CAP) -> np.ndarray:
    """Contract all cores into the dense tensor the train represents."""
    n_elements = int(np.prod([float(k) for k in tt.shape]))
    if n_elements > max_elements:
        raise ValueError(
            f"dense tensor would hold {n_elements} elements, above the cap of {max_elements}"
        )
    out = tt.cores[0][0]  # (k1, r1)
    for core in tt.cores[1:]:
        out = np.tensordot(out, core, axes=(out.ndim - 1, 0))
    return out[..., 0]


def _fold_left(v: np.ndarray, core: np.ndarray, bmat: np.ndarray) -> np.ndarray:
    """Carry per-sample chain products (n, r_{p-1}) through core p and its basis rows.

    One matmul over Khatri–Rao rows: row n of the product is v_n (x) bmat_n,
    matching the row-major (r_{p-1} k, r_p) view of the core.
    """
    n, a = v.shape
    kr = (v[:, :, None] * bmat[:, None, :]).reshape(n, a * bmat.shape[1])
    return kr @ core.reshape(a * bmat.shape[1], -1)


def _flip(core: np.ndarray) -> np.ndarray:
    """Core p as read from the far end of the train, (r_p, k_p, r_{p-1}): right-hand
    chain products are the left-hand ones on the flipped cores (``_walk``)."""
    return np.ascontiguousarray(core.transpose(2, 1, 0))


def _walk(carry, start, cores, site: int):
    """Chain products around core ``site`` and the refold that keeps them.

    ``carry(v, core, p)`` carries a product over core p. ``left[p]`` carries
    ``start`` over cores 0..p-1 (filled for p <= site), ``right[p]`` over the
    flipped cores d-1..p+1 (filled for p >= site). ``refold(p, step)`` fills
    p + step from p once the canonical site moved from p by ``step``, and drops
    the product the shift made stale (``right[p]`` after a step right,
    ``left[p]`` after a step left), so the walk holds the d + 1 products a walk
    started at p + step holds. It reads ``cores`` at call time, so it follows a
    list updated in place.
    """
    d = len(cores)
    left, right = [None] * d, [None] * d
    left[0] = right[d - 1] = start

    def refold(p, step):
        core, prods, stale = ((cores[p], left, right) if step > 0
                              else (_flip(cores[p]), right, left))
        prods[p + step] = carry(prods[p], core, p)
        stale[p] = None

    for p in range(site):
        refold(p, 1)
    for p in range(d - 1, site, -1):
        refold(p, -1)
    return left, right, refold


def _normalize_rank_caps(max_ranks, d: int) -> list[int]:
    if np.ndim(max_ranks) == 0:
        caps = [_as_int(max_ranks, "rank")] * (d - 1)
    else:
        caps = [_as_int(r, "rank") for r in max_ranks]
        if len(caps) != d - 1:
            raise ValueError(
                f"rank vector must list the {d - 1} interior ranks, got {len(caps)}"
            )
    if any(r < 1 for r in caps):
        raise ValueError("requested ranks must be positive")
    return caps


def tt_svd(a: np.ndarray, max_ranks=None) -> TensorTrain:
    """Decompose a dense tensor into a tensor train by successive SVDs.

    ``max_ranks`` caps the interior ranks (scalar broadcasts); without it the
    decomposition is exact up to rounding. The returned train is canonical at
    the last core.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 1:
        raise ValueError("input must have at least one mode")
    if 0 in a.shape:
        raise ValueError(f"tensor of shape {a.shape} has an empty mode")
    d = a.ndim
    shape = a.shape
    caps = [np.inf] * (d - 1) if max_ranks is None else _normalize_rank_caps(max_ranks, d)

    cores = []
    rem = a.reshape(-1, order="F")
    r_prev = 1
    for p in range(d - 1):
        k = shape[p]
        rem = rem.reshape(r_prev * k, -1, order="F")
        u, s, vt = np.linalg.svd(rem, full_matrices=False)
        # Numerical rank: exact decompositions do not carry zero directions.
        r = int(np.count_nonzero(s > s[0] * max(rem.shape) * np.finfo(float).eps))
        r = max(min(r, caps[p]), 1)
        cores.append(u[:, :r].reshape(r_prev, k, r, order="F"))
        rem = s[:r, None] * vt[:r, :]
        r_prev = r
    cores.append(rem.reshape(r_prev, shape[-1], 1, order="F"))
    return TensorTrain(tuple(cores), canonical_site=d - 1)


def _qr_shift(cores: list, p: int, step: int) -> None:
    """Move the canonical site from core p to p + step (step is 1 or -1), in place.

    One QR step: core p becomes left-orthogonal (step 1) or right-orthogonal
    (step -1), and the triangular factor is absorbed into the neighbour, so
    the represented tensor is unchanged. The bond takes Q's width, so a bond
    wider than core p's unfolding (r1 k for step 1, k r2 for step -1) shrinks
    to it and core p is an exact isometry. Each bond direction keeps the sign
    LAPACK gives it, a gauge of the train that no output reads.
    """
    r1, k, r2 = cores[p].shape
    if step > 0:
        q, r = np.linalg.qr(cores[p].reshape(r1 * k, r2, order="F"))
        cores[p] = q.reshape(r1, k, -1, order="F")
        cores[p + 1] = np.tensordot(r, cores[p + 1], axes=(1, 0))
    else:
        q, r = np.linalg.qr(cores[p].reshape(r1, k * r2, order="F").T)
        cores[p] = q.T.reshape(-1, k, r2, order="F")
        cores[p - 1] = np.tensordot(cores[p - 1], r.T, axes=(2, 0))


def orthogonalize_to_site(tt: TensorTrain, site: int) -> TensorTrain:
    """Return an equal train in mixed-canonical form at ``site``; a bond wider than its
    unfolding shrinks to it, so every core but ``site`` is an exact isometry."""
    if not 0 <= site < tt.order:
        raise ValueError(f"site {site} out of range for order {tt.order}")
    cores = list(tt.cores)
    for p in range(site):
        _qr_shift(cores, p, 1)
    for p in range(tt.order - 1, site, -1):
        _qr_shift(cores, p, -1)
    return TensorTrain(tuple(cores), canonical_site=site)


def shift_core(tt: TensorTrain, p: int, direction: str) -> TensorTrain:
    """Move the canonical site from core p to a neighbour via a QR step; over-wide bonds shrink."""
    if tt.canonical_site != p:
        raise ValueError(
            f"train is canonical at {tt.canonical_site}, cannot shift from core {p}"
        )
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    step = 1 if direction == "right" else -1
    if not 0 <= p + step < tt.order:
        end = "last" if step > 0 else "first"
        raise ValueError(f"cannot shift {direction} past the {end} core")
    cores = list(tt.cores)
    _qr_shift(cores, p, step)
    return TensorTrain(tuple(cores), canonical_site=p + step)
