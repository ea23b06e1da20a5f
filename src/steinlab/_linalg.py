"""Rank decisions, nullspaces and metric orthonormalization.

There is one rank cut, rank_split, shared by nullspace, batched_svd and
gram_onb: singular values up to rank_cut(scale) = max(scale * REL_CUT,
ABS_CUT) count as zero, and the decision must be backed by a spectral
gap of at least GAP_RATIO between the smallest kept and the largest
dropped value, otherwise RankAmbiguous is raised. It is the only place
that raises it.

nullspace solves a matrix one connected block at a time. Up to a row and
column permutation a matrix is block diagonal over the connected
components of its row/column nonzero pattern, and the singular values of
a block-diagonal matrix are the union of its blocks' (Golub & Van Loan,
Matrix Computations, 2.4). Each block's spectrum is zero-padded to its
column count, as the full SVD pads, so the union is the full matrix's
padded spectrum; one rank_split on it, with the global scale, is the
rank decision a full SVD makes, and each block contributes its right
singular vectors below that single cut. batched_svd is that batching and
cut on its own; vndim orthonormalizes spectral blocks with it, and takes
the rank of its block-diagonal coefficient matrix from the singular
values alone.

A kernel wanted orthonormal in a metric gram = T^H T is solved for the
whitened unknown w = T x; T^-1 maps nullspace's orthonormal columns to
metric-orthonormal ones, with no second pass. gram_onb, for given spans,
whitens them by T and takes one SVD through batched_svd (of the triangular
factor of their QR, which has the same singular values and right singular
vectors), then re-orthonormalizes the result once by a Cholesky factor of
its Gram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenseLimitExceeded, RankAmbiguous

REL_CUT = 1e-10
ABS_CUT = 1e-10
GAP_RATIO = 10.0


@dataclass(frozen=True, eq=False)
class SparseSystem:
    """A matrix given by its entries: vals[e] at (rows[e], cols[e]).

    Entries repeated at one position are summed.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def dot(self, x: np.ndarray) -> np.ndarray:
        """The matrix times each vector of a stack x (..., ncols)."""
        x = np.asarray(x)
        flat = x.reshape(-1, self.shape[1])
        n, size = self.shape[0], len(flat) * self.shape[0]
        # one bincount for the whole stack: vector s owns rows s * n onwards
        idx = (np.arange(len(flat))[:, None] * n + self.rows).ravel()
        prod = (self.vals * flat[:, self.cols]).ravel()
        out = np.bincount(idx, prod.real, size) + 1j * np.bincount(idx, prod.imag, size)
        return out.reshape(*x.shape[:-1], n)


def rank_cut(scale: float) -> float:
    """Largest singular value that counts as zero in a spectrum whose
    largest value is scale."""
    return max(scale * REL_CUT, ABS_CUT)


def rank_split(svals: np.ndarray, scale: float | None = None) -> int:
    """Number of nonzero singular values in a descending array."""
    s = np.asarray(svals, dtype=float)
    if s.size == 0:
        return 0
    if scale is None:
        scale = s[0]
    kept = int(np.sum(s > rank_cut(scale)))
    if 0 < kept < s.size:
        top_dropped = s[kept]
        if top_dropped > 0 and s[kept - 1] / top_dropped < GAP_RATIO:
            raise RankAmbiguous(
                f"no clear gap at rank {kept}: kept {s[kept - 1]:.3e}, "
                f"dropped {top_dropped:.3e}"
            )
    return kept


def _column_components(rows: np.ndarray, cols: np.ndarray, nrows: int, ncols: int) -> np.ndarray:
    """Connected-component label of each column of the bipartite graph whose
    edges are the entries (rows[e], cols[e]).

    Labels start as column indices and take the minimum across shared rows
    until stable, with pointer jumping (a label's own label lies in the same
    component); the fixed point labels each component by its smallest column.
    """
    label = np.arange(ncols)
    while True:
        row_min = np.full(nrows, ncols)
        np.minimum.at(row_min, rows, label[cols])
        new = label.copy()
        np.minimum.at(new, cols, row_min[rows])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _positions(block: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Index of each element within its block, in increasing element order."""
    order = np.argsort(block, kind="stable")
    starts = np.cumsum(counts) - counts
    pos = np.empty(block.size, dtype=int)
    pos[order] = np.arange(block.size) - starts[block[order]]
    return pos


def nullspace(mat: np.ndarray | SparseSystem, max_block: int | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel, by SVD with the shared cut.

    mat is a dense array, whose exact zeros give the block structure, or a
    SparseSystem. Blocks are solved one SVD per shape-batch and share one
    rank decision (see the module docstring). A block with more than
    max_block columns raises DenseLimitExceeded before any SVD runs.
    """
    if isinstance(mat, SparseSystem):
        nrows, ncols = mat.shape
        rows, cols, vals = mat.rows, mat.cols, mat.vals
    else:
        m = np.asarray(mat, dtype=complex)
        nrows, ncols = m.shape
        rows, cols = np.nonzero(m)
        vals = m[rows, cols]

    # blocks numbered by their smallest column
    _, col_block = np.unique(
        _column_components(rows, cols, nrows, ncols), return_inverse=True
    )
    ncol_b = np.bincount(col_block)
    if max_block is not None and ncol_b.max() > max_block:
        raise DenseLimitExceeded(
            f"connected block of {ncol_b.max()} unknowns exceeds the dense "
            f"limit of {max_block}"
        )
    entry_block = col_block[cols]
    row_block = np.full(nrows, -1)
    row_block[rows] = entry_block
    active = np.flatnonzero(row_block >= 0)
    nrow_b = np.bincount(row_block[active], minlength=ncol_b.size)
    row_pos = np.zeros(nrows, dtype=int)
    row_pos[active] = _positions(row_block[active], nrow_b)
    col_pos = _positions(col_block, ncol_b)
    block_cols = np.argsort(col_block, kind="stable")  # columns grouped by block
    col_start = np.cumsum(ncol_b) - ncol_b

    # every block densified row-major into one flat buffer, blocks of one
    # shape side by side so that each shape is a (count, rows, cols) view
    size = nrow_b * ncol_b
    shape_key = nrow_b * (ncols + 1) + ncol_b
    slot = np.argsort(shape_key, kind="stable")
    offset = np.empty_like(size)
    offset[slot] = np.cumsum(size[slot]) - size[slot]
    buf = np.zeros(int(size.sum()), dtype=complex)
    np.add.at(
        buf,
        offset[entry_block] + row_pos[rows] * ncol_b[entry_block] + col_pos[cols],
        vals,
    )

    stacks, block_ids = [], []
    for key in np.unique(shape_key):
        ids = np.flatnonzero(shape_key == key)
        r, c = int(nrow_b[ids[0]]), int(ncol_b[ids[0]])
        start = offset[ids[0]]
        stacks.append(buf[start : start + ids.size * r * c].reshape(ids.size, r, c))
        block_ids.append(ids)

    batches = batched_svd(stacks, all_right=True)
    out = np.zeros((ncols, ncols - sum(int(kept.sum()) for *_, kept in batches)), dtype=complex)
    k = 0
    for ids, (_, s, vh, kept) in zip(block_ids, batches):
        # kept values are a prefix of each block's descending spectrum
        owner, _ = np.nonzero(~kept)
        gcols = block_cols[col_start[ids[owner], None] + np.arange(s.shape[1])]
        out[gcols, np.arange(k, k + owner.size)[:, None]] = vh[~kept].conj()
        k += owner.size
    return out


def batched_svd(
    stacks: list[np.ndarray], all_right: bool = False, vectors: bool = True
) -> list[tuple]:
    """SVD of many blocks with one rank decision, as for their direct sum.

    stacks holds (count, rows, cols) arrays, one per block shape, each taken
    by one batched SVD. Every block's spectrum is zero-padded to its column
    count; one rank_split on the union, with the global scale, is the cut.
    Returns (u, s, vh, kept) per stack, kept[b, j] marking the singular
    values of block b above the cut (a prefix of each padded spectrum);
    with vectors=False only the singular values are computed, and u and vh
    are None.
    """
    svds = []
    for stack in stacks:
        _, r, c = stack.shape
        if vectors:
            # economy SVD only returns all right-singular vectors when r >= c
            u, s, vh = np.linalg.svd(stack, full_matrices=all_right and r < c)
        else:
            u, s, vh = None, np.linalg.svd(stack, compute_uv=False), None
        if s.shape[1] < c:
            s = np.concatenate([s, np.zeros((s.shape[0], c - s.shape[1]))], axis=1)
        svds.append((u, s, vh))
    union = np.sort(np.concatenate([s.ravel() for _, s, _ in svds] + [np.zeros(0)]))[::-1]
    rank = rank_split(union)
    # the kept values are the rank largest ones, all above the cut
    floor = union[rank - 1] if rank else np.inf
    return [(u, s, vh, s >= floor) for u, s, vh in svds]


def gram_onb(vectors: np.ndarray, factor: np.ndarray | None = None) -> np.ndarray:
    """Columns orthonormal in a metric and spanning the input columns.

    The metric is given by its whitening factor T, the upper Cholesky
    factor of its Gram matrix (gram = T^H T), so that W = T V carries the
    metric as the standard inner product: None is the standard inner
    product and A.onb_factor the GNS metric of an algebra A.

    One SVD W = U S Vh through batched_svd, rank r by rank_split's cut,
    gives Q = V Vh^H[:r] / s[:r], whose whitened image is U[:, :r]. The
    SVD is taken of the triangular factor of W's QR, which has the same
    S and Vh. Dividing by the smallest kept singular values amplifies
    rounding, so Q is then re-orthonormalized once by the Cholesky factor
    L of its metric Gram G = L L^H: Q L^-H has Gram I to rounding, and
    spans the same columns, so the rank decision is unchanged.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    # the SVD of the small factor needs no W-sized buffers
    w = v if factor is None else factor @ v
    s, vh, kept = batched_svd([np.linalg.qr(w, mode="r")[None]])[0][1:]
    r = int(kept.sum())
    q = v @ (vh[0, :r].conj().T / s[0, :r])
    w = q if factor is None else factor @ q
    return q @ np.linalg.inv(np.linalg.cholesky(w.conj().T @ w).conj().T)


def onb_transform(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, T_inv) with T mapping raw coordinates to orthonormal ones.

    gram = L L^H by Cholesky; T = L^H, so that <x, y>_gram = <Tx, Ty>_std.
    """
    chol = np.linalg.cholesky(np.asarray(gram, dtype=complex))
    t = chol.conj().T
    return t, np.linalg.inv(t)


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m).ravel()))
