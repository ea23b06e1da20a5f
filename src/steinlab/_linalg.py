"""Rank decisions, nullspaces and Gram-aware orthonormalization.

All rank cuts go through the same policy: singular values below
max(scale * REL_CUT, ABS_CUT) count as zero, and the decision must be
backed by a spectral gap of at least GAP_RATIO between the smallest
kept and the largest dropped value, otherwise RankAmbiguous is raised.

nullspace solves a matrix one connected block at a time. Up to a row and
column permutation a matrix is block diagonal over the connected
components of its row/column nonzero pattern, and the singular values of
a block-diagonal matrix are the union of its blocks' (Golub & Van Loan,
Matrix Computations, 2.4). Each block's spectrum is zero-padded to its
column count, as the full SVD pads, so the union is the full matrix's
padded spectrum; one rank_split on it, with the global scale, is the
rank decision a full SVD makes, and each block contributes its right
singular vectors below that single cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankAmbiguous

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


def rank_split(svals: np.ndarray, scale: float | None = None) -> int:
    """Number of nonzero singular values in a descending array."""
    s = np.asarray(svals, dtype=float)
    if s.size == 0:
        return 0
    if scale is None:
        scale = s[0]
    cut = max(scale * REL_CUT, ABS_CUT)
    kept = int(np.sum(s > cut))
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
    max_block columns raises MemoryError before any SVD runs.
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
        raise MemoryError(
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

    # one batched SVD per block shape; spectra padded to the column count
    batches = []
    for key in np.unique(shape_key):
        ids = np.flatnonzero(shape_key == key)
        r, c = int(nrow_b[ids[0]]), int(ncol_b[ids[0]])
        start = offset[ids[0]]
        stack = buf[start : start + ids.size * r * c].reshape(ids.size, r, c)
        # economy SVD only returns all right-singular vectors when r >= c
        _, s, vh = np.linalg.svd(stack, full_matrices=r < c)
        s = np.concatenate([s, np.zeros((ids.size, c - s.shape[1]))], axis=1)
        batches.append((ids, c, s, vh))

    union = np.concatenate([s.ravel() for _, _, s, _ in batches])
    order = np.argsort(-union, kind="stable")
    kept = np.zeros(union.size, dtype=bool)
    kept[order[: rank_split(union[order])]] = True

    out = np.zeros((ncols, ncols - int(kept.sum())), dtype=complex)
    done = k = 0
    for ids, c, s, vh in batches:
        # kept values are a prefix of each block's descending spectrum
        drop = ~kept[done : done + s.size].reshape(s.shape)
        done += s.size
        owner, _ = np.nonzero(drop)
        gcols = block_cols[col_start[ids[owner], None] + np.arange(c)]
        out[gcols, np.arange(k, k + owner.size)[:, None]] = vh[drop].conj()
        k += owner.size
    return out


def gram_onb(
    vectors: np.ndarray,
    gram: np.ndarray | tuple[np.ndarray, np.ndarray] | None = None,
    panel: int = 64,
):
    """Orthonormalize columns against a Gram matrix by blocked Gram-Schmidt.

    gram is None (the standard inner product), a dense Gram matrix, or a
    factor pair (a, b) standing for kron(a, b), applied leg by leg without
    forming the product.
    Panels of columns are projected against the kept basis in two passes
    (reorthogonalization), then finished sequentially within the panel.
    Returns (Q, kept) where Q has inner-product-orthonormal columns spanning
    the input and kept lists the surviving column indices. Rank drops share
    the gap-ratio guard.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    n, k = v.shape

    if isinstance(gram, tuple):
        a, b = gram

        def hdot(w):
            t = np.tensordot(a, w.reshape(a.shape[0], b.shape[0], -1), axes=(1, 0))
            return np.matmul(b, t).reshape(w.shape)

    else:

        def hdot(w):
            return w if gram is None else gram @ w

    q = np.zeros((n, k), dtype=complex)
    qc = np.zeros((n, k), dtype=complex)  # conjugate copy, kept in sync
    r = 0
    kept: list[int] = []
    kept_ratio: list[float] = []
    dropped_ratio: list[float] = []
    scale = 0.0
    for p0 in range(0, k, panel):
        w = v[:, p0 : p0 + panel].copy()
        n0s = np.sqrt(np.abs(np.sum(np.conj(w) * hdot(w), axis=0).real))
        for _ in range(2):
            if r:
                w = w - q[:, :r] @ (qc[:, :r].T @ hdot(w))
        rp = r  # columns kept within this panel start here
        for jj in range(w.shape[1]):
            col = w[:, jj]
            n0 = n0s[jj]
            scale = max(scale, n0)
            if scale == 0.0:
                dropped_ratio.append(0.0)
                continue
            for _ in range(2):
                if r > rp:
                    col = col - q[:, rp:r] @ (qc[:, rp:r].T @ hdot(col))
            nr = np.sqrt(abs(np.conj(col) @ hdot(col)).real)
            ratio = nr / scale
            if nr <= max(scale * REL_CUT, ABS_CUT) or n0 == 0.0:
                dropped_ratio.append(ratio)
                continue
            q[:, r] = col / nr
            qc[:, r] = np.conj(q[:, r])
            r += 1
            kept.append(p0 + jj)
            kept_ratio.append(ratio)
    if kept_ratio and dropped_ratio:
        worst_drop = max(dropped_ratio)
        if worst_drop > 0 and min(kept_ratio) / worst_drop < GAP_RATIO:
            raise RankAmbiguous(
                f"orthonormalization rank unclear: kept ratio {min(kept_ratio):.3e} "
                f"vs dropped {worst_drop:.3e}"
            )
    return q[:, :r].copy(), kept


def onb_transform(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, T_inv) with T mapping raw coordinates to orthonormal ones.

    gram = L L^H by Cholesky; T = L^H, so that <x, y>_gram = <Tx, Ty>_std.
    """
    chol = np.linalg.cholesky(np.asarray(gram, dtype=complex))
    t = chol.conj().T
    return t, np.linalg.inv(t)


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m).ravel()))
