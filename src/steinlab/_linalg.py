"""Rank decisions, nullspaces and metric orthonormalization.

There is one rank cut, rank_split, shared by nullspace, span_basis,
batched_svd, gram_onb and the span closure algebra.close_span: singular
values up to rank_cut(scale) = max(scale * REL_CUT, ABS_CUT) count as
zero, and the decision must be backed by a spectral gap of at least
GAP_RATIO between the smallest kept and the largest dropped value,
otherwise RankAmbiguous is raised. It is the only place that raises it.

nullspace solves a matrix one connected block at a time. Up to a row and
column permutation a matrix is block diagonal over the connected
components of its row/column nonzero pattern, and the singular values of
a block-diagonal matrix are the union of its blocks' (Golub & Van Loan,
Matrix Computations, 2.4). Each block's spectrum is zero-padded to its
column count, as the full SVD pads, so the union is the full matrix's
padded spectrum; one rank_split on it, with the global scale, is the
rank decision a full SVD makes, and each block contributes its right
singular vectors below that single cut. batched_svd is that batching and
cut on its own, and shared_cut the cut alone: vndim takes the SVDs of the
inner module's spectral blocks a chunk at a time as it builds them, and
cuts their spectra with it.

nullspace reads no left singular vectors. A tall block B (rows > cols)
has the singular values and right singular vectors of the R of its QR,
B = QR, since B^H B = R^H R (the R-SVD; Chan, An improved algorithm for
computing the singular value decomposition, ACM TOMS 8, 1982; Golub &
Van Loan 5.4). So nullspace takes a tall block's spectrum and kernel
from the SVD of its cols x cols R, np.linalg.qr(mode="r"), and never
forms its rows x cols U; a one-column block's singular value is its
norm. The padded spectra and the single cut are the same as for a
direct SVD.

nullspace returns the kernel as it solves it, by block (BlockKernel): per
group of blocks of one column count and kernel dimension, the blocks'
columns and their orthonormal local kernel vectors. The group is keyed by
(columns, kernel dimension), not by block shape, so that blocks with one
set of columns but different row counts share a part. No (columns,
kernel) array is formed unless a caller asks for one with dense();
derivations keeps the Leibniz kernel this way, and vndim reads
dimensions from it.

span_basis returns an orthonormal basis of a column span the same way.
The column span of a matrix V is the row space of V^H, and the row space
of a block-diagonal matrix is the direct sum of its blocks' row spaces,
each spanned by the block's right singular vectors above the cut. So
span_basis runs nullspace's code on V^H, blocks, byte guard, densifying
and single cut included, and keeps the right singular vectors above the
cut instead of those below it.

A kernel wanted orthonormal in a metric gram = T^H T is solved for the
whitened unknown w = T x; T^-1 maps nullspace's orthonormal columns to
metric-orthonormal ones, with no second pass. gram_onb, for given spans,
whitens them by T and takes one SVD through batched_svd; T^-1 maps its
kept left singular vectors to metric-orthonormal ones in the same way.
No program code calls gram_onb: it is the tests' reference for
span_basis and the module spans, and benchmark/tracing.py hooks its name
through the imports that derivations and vndim keep of it.

nullspace and span_basis refuse, with DenseLimitExceeded, blocks whose
dense SVDs and returned vectors would allocate more than DENSE_LIMIT
bytes, before allocating them. _dense_bytes counts, in 16-byte complex
entries for an r x c block, with m = c for nullspace and m = min(r, c)
for span_basis:
    r c + 2 m c         the densified block, Vh (all c right singular
                        vectors for a kernel, the m of the thin SVD for a
                        span) and the returned vectors (at most m of
                        them), kept to the end of the call;
    + r^2               U, for a block with r <= c;
    + r c + 3 c^2       for a tall block, qr's working copy, R, the U of
                        R and the chunk's Vh, counted only for the largest
                        chunk of QR_CHUNK bytes, since the chunks are
                        taken one after another;
plus 8 c bytes for the spectrum. A tall block (m = c) thus keeps
r c + 2 c^2 entries where a direct SVD would also keep its r x c U. A
one-column block, whose norm needs none of this, is counted the same way.

vndim's leg blocks, Artin-Wedderburn blocks and characters are found by
spectral_split: the eigenvectors of m + m^H, m a random combination drawn
from SPLIT_SEED, in clusters split at gaps above CLUSTER_GAP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenseLimitExceeded, RankAmbiguous

REL_CUT = 1e-10
ABS_CUT = 1e-10
GAP_RATIO = 10.0
# most bytes the dense per-block SVDs of one nullspace or span_basis call
# may allocate (densified blocks, SVD factors and vectors, _dense_bytes); the
# Leibniz system of an algebra with no zero structure, cut to the rows of
# a two-element generating set, is one 2 dim^3 x dim^3 block: 0.40 GiB at
# dim 12, 0.65 GiB at dim 13, 1.01 GiB at dim 14 (refused), 1.53 GiB at
# dim 15 and 2.25 GiB at dim 16; matrix-unit bases of that size stay far
# below, and M3 x| S3 (dim 54) needs 759 MiB
DENSE_LIMIT = 1 << 30
# most working bytes (_qr_bytes) of the tall blocks that nullspace takes
# through one QR at a time; the stack is cut into chunks of this size
QR_CHUNK = 1 << 26
# eigenvalues of a random hermitian combination closer than this fraction
# of its spectral radius share a cluster; merging only coarsens the split,
# and the gap keeps each cluster's eigenvectors accurate to about
# 1e-16 / CLUSTER_GAP, far below the rank cuts
CLUSTER_GAP = 1e-3
# seed of the random combinations that spectral_split is applied to
SPLIT_SEED = 0


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


def _dense_bytes(nrow: np.ndarray, ncol: np.ndarray, count: np.ndarray, span: bool) -> int:
    """Bytes _block_vectors allocates for count[i] blocks of shape nrow[i] x
    ncol[i] (see the module docstring): for every block the densified
    block, rows x cols, and Vh and the returned vectors, each at most
    m x cols, m = cols for a kernel and min(rows, cols) for a span (all
    complex), and the spectrum, cols values (real); for a block with
    rows <= cols the U of its SVD, rows x rows (complex); and the largest
    QR chunk of tall blocks (_qr_step, _qr_bytes)."""
    r, c, count = (np.asarray(a, dtype=np.int64) for a in (nrow, ncol, count))
    tall = r > c
    m = np.minimum(r, c) if span else c
    total = int(np.sum(count * (16 * (r * c + 2 * m * c + np.where(tall, 0, r * r)) + 8 * c)))
    if tall.any():
        total += int(np.max((np.minimum(count, _qr_step(r, c)) * _qr_bytes(r, c))[tall]))
    return total


def _qr_bytes(r, c):
    """Working bytes of one tall rows x cols block on the QR path: qr's copy
    of the block, then R, the U of R and its Vh (complex)."""
    return 16 * (r * c + 3 * c * c)


def _qr_step(r, c):
    """Blocks per QR chunk of a stack of tall rows x cols blocks: as many as
    QR_CHUNK bytes hold, at least one."""
    return np.maximum(1, QR_CHUNK // _qr_bytes(r, c))


class BlockKernel:
    """An orthonormal kernel basis of ncols unknowns, kept by block.

    parts holds (cols, vecs, first) per group of blocks with c columns and
    kernel dimension k, one group per (c, k): cols (m, c) the columns of m
    blocks, vecs (m, c, k) each block's orthonormal kernel vectors on its
    columns, and first (m,), increasing, the column of dense() holding each
    block's first vector. Blocks with no kernel are left out.
    """

    def __init__(self, ncols: int, parts: tuple):
        self.ncols, self.parts = ncols, parts

    @property
    def shape(self) -> tuple[int, int]:
        return self.ncols, sum(vecs.shape[0] * vecs.shape[2] for _, vecs, _ in self.parts)

    def dense(self) -> np.ndarray:
        """The kernel basis as the columns of one (ncols, kernel) array."""
        out = np.zeros(self.shape, dtype=complex)
        for cols, vecs, first in self.parts:
            out[cols[:, :, None], first[:, None, None] + np.arange(vecs.shape[2])] = vecs
        return out

    def vectors(self, idx=slice(None)) -> np.ndarray:
        """Columns idx of dense(), idx any numpy index of them (all by
        default), as the rows of a (count, ncols) array. Each is read from
        the block that holds it, through the blocks' first columns, and no
        other column is formed."""
        want = np.arange(self.shape[1])[idx].reshape(-1)
        out = np.zeros((want.size, self.ncols), dtype=complex)
        for cols, vecs, first in self.parts:
            if not len(first):
                continue
            # the block of this part whose first column is the last one at
            # or before each wanted column, and the column's place in it
            at = np.maximum(np.searchsorted(first, want, side="right") - 1, 0)
            pos = want - first[at]
            hit = np.flatnonzero((pos >= 0) & (pos < vecs.shape[2]))
            out[hit[:, None], cols[at[hit]]] = vecs[at[hit], :, pos[hit]]
        return out


def nullspace(mat: np.ndarray | SparseSystem) -> BlockKernel:
    """Orthonormal basis of the kernel, by SVD with the shared cut, kept by
    block (BlockKernel; its dense() is the basis as columns).

    mat is a dense array, whose exact zeros give the block structure, or a
    SparseSystem. Blocks are solved one SVD per shape-batch, a tall block
    by the SVD of its QR factor R, and share one rank decision (see the
    module docstring). If the densified blocks, their SVD factors and the
    kernel vectors need more than DENSE_LIMIT bytes (_dense_bytes, from
    the block shapes), DenseLimitExceeded is raised before they are
    allocated.
    """
    return _block_vectors(mat, span=False)


def span_basis(mat: np.ndarray) -> BlockKernel:
    """Orthonormal basis of the column span of mat, kept by connected
    block (BlockKernel, one unknown per row of mat).

    The span is the row space of mat^H, which nullspace's machinery splits
    into the same blocks, guards and solves with the same cut; a block
    keeps its right singular vectors above the cut, where nullspace keeps
    those below it (see the module docstring).
    """
    return _block_vectors(np.asarray(mat, dtype=complex).conj().T, span=True)


def _block_vectors(mat: np.ndarray | SparseSystem, span: bool) -> BlockKernel:
    """The right singular vectors of each connected block of mat below the
    shared cut (its kernel), or above it with span=True (its row space)."""
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
    entry_block = col_block[cols]
    row_block = np.full(nrows, -1)
    row_block[rows] = entry_block
    active = np.flatnonzero(row_block >= 0)
    nrow_b = np.bincount(row_block[active], minlength=ncol_b.size)
    # blocks grouped by shape: group j is blocks slot[at[j] : at[j] + count[j]]
    shape_key = nrow_b * (ncols + 1) + ncol_b
    slot = np.argsort(shape_key, kind="stable")
    _, at, count = np.unique(shape_key[slot], return_index=True, return_counts=True)
    if (need := _dense_bytes(nrow_b[slot[at]], ncol_b[slot[at]], count, span)) > DENSE_LIMIT:
        raise DenseLimitExceeded(
            f"{ncol_b.size} connected blocks of up to {ncol_b.max()} unknowns need "
            f"{need} bytes, which exceeds the dense limit of {DENSE_LIMIT} bytes"
        )
    row_pos = np.zeros(nrows, dtype=int)
    row_pos[active] = _positions(row_block[active], nrow_b)
    col_pos = _positions(col_block, ncol_b)
    block_cols = np.argsort(col_block, kind="stable")  # columns grouped by block
    col_start = np.cumsum(ncol_b) - ncol_b

    # every block densified row-major into one flat buffer, blocks of one
    # shape side by side so that each shape is a (count, rows, cols) view
    size = nrow_b * ncol_b
    offset = np.empty_like(size)
    offset[slot] = np.cumsum(size[slot]) - size[slot]
    buf = np.zeros(int(size.sum()), dtype=complex)
    np.add.at(
        buf,
        offset[entry_block] + row_pos[rows] * ncol_b[entry_block] + col_pos[cols],
        vals,
    )

    stacks, block_ids = [], []
    for j, num in zip(at, count):
        ids = slot[j : j + num]
        r, c = int(nrow_b[ids[0]]), int(ncol_b[ids[0]])
        start = offset[ids[0]]
        stacks.append(buf[start : start + num * r * c].reshape(num, r, c))
        block_ids.append(ids)

    # parts keyed by (columns, vectors per block): blocks of one column count
    # but different row counts solve in different stacks and share a part
    parts, k = {}, 0
    for ids, (_, s, vh, kept) in zip(block_ids, batched_svd(stacks, right=True, full=not span)):
        # kept values are a prefix of each block's descending spectrum, so
        # the row space is spanned by the first rows of vh, the kernel by
        # the last
        c = s.shape[1]
        num = kept.sum(axis=1) if span else c - kept.sum(axis=1)
        first = k + np.cumsum(num) - num
        k += int(num.sum())
        gcols = block_cols[col_start[ids, None] + np.arange(c)]
        for dim in np.unique(num[num > 0]):
            sel = np.flatnonzero(num == dim)
            vecs = vh[sel, :dim] if span else vh[sel, c - dim :]
            parts.setdefault((c, int(dim)), []).append(
                (gcols[sel], vecs.conj().transpose(0, 2, 1), first[sel]))
    return BlockKernel(ncols, tuple(
        tuple(a[0] if len(a) == 1 else np.concatenate(a) for a in zip(*same))
        for same in parts.values()
    ))


def batched_svd(stacks: list[np.ndarray], right: bool = False, full: bool = False) -> list[tuple]:
    """SVD of many blocks with one rank decision, as for their direct sum.

    stacks holds (count, rows, cols) arrays, one per block shape, each taken
    by one batched SVD. Every block's spectrum is zero-padded to its column
    count; one rank_split on the union, with the global scale, is the cut.
    Returns (u, s, vh, kept) per stack, kept[b, j] marking the singular
    values of block b above the cut (a prefix of each padded spectrum).
    With right=True u is None: a tall stack (rows > cols) is then taken by
    the SVD of the R of its QR, which has the block's singular values and
    right singular vectors, QR_CHUNK bytes of blocks at a time (_qr_step),
    and a one-column block's singular value is its norm, with right vector
    1. With full=True a wide block gets every right singular vector.
    """
    svds = []
    for stack in stacks:
        m, r, c = stack.shape
        if right and c == 1:
            u, s, vh = None, np.linalg.norm(stack, axis=1), np.ones((m, 1, 1), dtype=complex)
        elif right and r > c:
            u, s, vh = None, np.empty((m, c)), np.empty((m, c, c), dtype=complex)
            step = int(_qr_step(r, c))
            for i in range(0, m, step):
                _, s[i : i + step], vh[i : i + step] = np.linalg.svd(
                    np.linalg.qr(stack[i : i + step], mode="r"))
        else:
            u, s, vh = np.linalg.svd(stack, full_matrices=full)
            if right:
                u = None
        if s.shape[1] < c:
            s = np.concatenate([s, np.zeros((s.shape[0], c - s.shape[1]))], axis=1)
        svds.append((u, s, vh))
    kept = shared_cut([s for _, s, _ in svds])
    return [(u, s, vh, k) for (u, s, vh), k in zip(svds, kept)]


def shared_cut(spectra: list[np.ndarray]) -> list[np.ndarray]:
    """The one rank decision of batched_svd on given spectra, (count,
    values) arrays of blocks' padded spectra: one rank_split on their
    union, with the global scale. Returns the kept mask of each array."""
    union = np.sort(np.concatenate([s.ravel() for s in spectra] + [np.zeros(0)]))[::-1]
    rank = rank_split(union)
    # the kept values are the rank largest ones, all above the cut
    floor = union[rank - 1] if rank else np.inf
    return [s >= floor for s in spectra]


def gram_onb(vectors: np.ndarray, factor: np.ndarray | None = None) -> np.ndarray:
    """Columns orthonormal in a metric and spanning the input columns.

    The metric is given by its whitening factor T, the upper Cholesky
    factor of its Gram matrix (gram = T^H T), so that W = T V carries the
    metric as the standard inner product: None is the standard inner
    product and A.onb_factor the GNS metric of an algebra A.

    One SVD W = U S Vh through batched_svd, rank r by rank_split's cut:
    U[:, :r] is an orthonormal basis of the whitened span, and
    Q = T^-1 U[:, :r] has metric Gram U^H U = I and spans the input
    columns.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    w = v if factor is None else factor @ v
    u, _, _, kept = batched_svd([w[None]])[0]
    u = u[0, :, : int(kept.sum())]
    return u if factor is None else np.linalg.solve(factor, u)


def spectral_split(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(vec, bounds): the eigenvectors of m + m^H by ascending eigenvalue,
    cluster i being vec[:, bounds[i]:bounds[i + 1]]; an eigenvalue gap above
    CLUSTER_GAP * (spectral radius) starts a new cluster."""
    lam, vec = np.linalg.eigh(m + m.conj().T)
    cuts = np.flatnonzero(lam[1:] - lam[:-1] > CLUSTER_GAP * np.abs(lam).max()) + 1
    return vec, [0, *cuts.tolist(), len(lam)]


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m).ravel()))
