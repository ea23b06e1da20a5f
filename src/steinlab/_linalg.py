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

nullspace never holds the densified system. Its entries are sorted once
by their place in the blocks laid out one after another, blocks of one
shape side by side, and the entries at one place summed. Each stack of
blocks of one shape is densified one chunk of blocks at a time, from its
run of entries, just before the chunk's QR or SVD, and the chunk is
dropped once it is factored; until the shared cut the call holds only
every block's Vh and spectrum, its input and the sorted entries. A
chunk's working set stays within QR_CHUNK bytes and within the bytes the
call holds anyway: those kept factors, the input (the matrix, or the
entries as given) and the entries' places and sums. So the peak follows
what the call is given and returns, not the densified input. (Counting
the factors alone cuts small systems into chunks of one or two blocks,
each paying numpy.linalg's fixed cost per call: a corpus pass then takes
575 chunks for 271 stacks and 19% more solver time than one densified
buffer; 2 cores, one BLAS thread.)

nullspace returns the kernel as it solves it, by block (BlockKernel): per
group of blocks of one column count and kernel dimension, the blocks'
columns and their orthonormal local kernel vectors. The group is keyed by
(columns, kernel dimension), not by block shape, so that blocks with one
set of columns but different row counts share a part. derivations keeps
the Leibniz kernel this way, and vndim reads dimensions from it. It has
one dense read, vectors(), which forms the kernel vectors asked for, all
by default, as the rows of one array. sparse() holds the same kernel as
the SparseSystem of its block entries, which sparse_product multiplies
entry by entry, and slabs() lists its vectors one part at a time, in
slices whose dense vectors and one transform of them fit QR_CHUNK bytes,
for callers that read a few at a time.

span_basis returns an orthonormal basis of a column span, given densely
or as a SparseSystem, the same way.
The column span of a matrix V is the row space of V^H, and the row space
of a block-diagonal matrix is the direct sum of its blocks' row spaces,
each spanned by the block's right singular vectors above the cut. So
span_basis runs nullspace's code on V^H, blocks, byte guard, densifying
and single cut included, and keeps the right singular vectors above the
cut instead of those below it.

A kernel wanted orthonormal in a metric gram = T^H T is solved for the
whitened unknown w = T x; T^-1 maps nullspace's orthonormal columns to
metric-orthonormal ones, with no second pass. gram_onb, for given spans,
whitens them by T and takes one SVD of its own, cut by rank_split; T^-1
maps its kept left singular vectors to metric-orthonormal ones in the same
way.
No program code calls gram_onb: it is the tests' reference for
span_basis and the module spans, and benchmark/tracing.py hooks its name
through the imports that derivations and vndim keep of it.

nullspace and span_basis refuse, with DenseLimitExceeded, blocks whose
dense SVDs and returned vectors would allocate more than DENSE_LIMIT
bytes, before allocating them. _dense_bytes counts, in 16-byte complex
entries for an r x c block, with m = c for nullspace and m = min(r, c)
for span_basis:
    2 m c               Vh (all c right singular vectors for a kernel,
                        the m of the thin SVD for a span) and the
                        returned vectors (at most m of them), for every
                        block, kept to the end of the call;
    r c + r^2           for a block with r <= c in a chunk, the block
                        densified and the U of its SVD;
    2 r c + 3 c^2       for a tall block in a chunk, the block densified,
                        qr's working copy, R, the U of R and its Vh;
the chunk terms counted for the largest chunk only, since the chunks are
taken one after another, plus 8 c bytes for every block's spectrum. A
single block is counted as its own chunk: a tall one (m = c) takes
r c + 2 c^2 entries past its factors where a direct SVD would also keep
its r x c U. A one-column block, whose norm needs none of this, is
counted the same way. The sorted entries and their places, a few words
per nonzero, are not counted.

vndim's leg blocks and the minimal central projections of
constructions.central_projections, which give the Artin-Wedderburn blocks
and the characters of an abelian group, are found by spectral_split: the
eigenvectors of m + m^H, m a random combination of given matrices drawn
from SPLIT_SEED, in clusters split at gaps above CLUSTER_GAP. A caller that
knows how many clusters there must be names the count, and a draw that
misses it is redrawn, at most SPLIT_DRAWS draws in all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenseLimitExceeded, RankAmbiguous

REL_CUT = 1e-10
ABS_CUT = 1e-10
GAP_RATIO = 10.0
# most bytes the dense per-block SVDs of one nullspace or span_basis call
# may allocate (kept SVD factors and vectors, and the largest densified
# chunk, _dense_bytes); the Leibniz system of an algebra with no zero
# structure, cut to the rows of a two-element generating set, is one
# 2 dim^3 x dim^3 block: 0.40 GiB at dim 12, 0.65 GiB at dim 13, 1.01 GiB
# at dim 14 (refused), 1.53 GiB at dim 15 and 2.25 GiB at dim 16;
# matrix-unit bases of that size stay far below, and M3 x| S3 (dim 54)
# needs 317 MiB
DENSE_LIMIT = 1 << 30
# most working bytes of the blocks that nullspace densifies and factors at
# a time (_chunks); a stack is cut into chunks of this size or less. The
# same budget bounds the dense kernel columns of one BlockKernel.slabs()
# slice and the Leibniz rows of one slab of derivations.leibniz_residual
QR_CHUNK = 1 << 26
# eigenvalues of a random hermitian combination closer than this fraction
# of its spectral radius share a cluster; merging only coarsens the split,
# and the gap keeps each cluster's eigenvectors accurate to about
# 1e-16 / CLUSTER_GAP, far below the rank cuts
CLUSTER_GAP = 1e-3
# seed of the random combinations that spectral_split is applied to
SPLIT_SEED = 0
# most draws spectral_split makes for a wanted cluster count
SPLIT_DRAWS = 20


@dataclass(frozen=True, eq=False)
class SparseSystem:
    """A matrix given by its entries: vals[e] at (rows[e], cols[e]).

    Entries repeated at one position are summed.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def sparse_product(a: SparseSystem, b: SparseSystem) -> SparseSystem:
    """The matrix product a b: one entry for each entry of a and each entry
    of b in the row that is its column, products that are exactly zero
    left out, so that the entries at one position sum to the product."""
    order = np.argsort(b.rows, kind="stable")
    rows, cols, vals = b.rows[order], b.cols[order], b.vals[order]
    start = np.searchsorted(rows, a.cols, side="left")
    count = np.searchsorted(rows, a.cols, side="right") - start
    # entry e of a meets entries start[e] .. start[e] + count[e] - 1 of b
    at = np.repeat(np.arange(a.cols.size), count)
    pos = start[at] + np.arange(at.size) - np.repeat(np.cumsum(count) - count, count)
    prod = a.vals[at] * vals[pos]
    keep = prod != 0
    return SparseSystem((a.shape[0], b.shape[1]), a.rows[at][keep], cols[pos][keep], prod[keep])


def rank_cut(scale: float) -> float:
    """Largest singular value that counts as zero in a spectrum whose
    largest value is scale."""
    return max(scale * REL_CUT, ABS_CUT)


def rank_split(svals: np.ndarray) -> int:
    """Number of nonzero singular values in a descending array."""
    s = np.asarray(svals, dtype=float)
    if s.size == 0:
        return 0
    kept = int(np.sum(s > rank_cut(s[0])))
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


def _positions(block: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each element within its block, in increasing element order,
    and the elements grouped by block in that order."""
    # block * n + element is unique, so any sort orders it stably by block
    n = block.size
    order = np.argsort(block * n + np.arange(n))
    starts = np.cumsum(counts) - counts
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n) - starts[block[order]]
    return pos, order


def _dense_bytes(shapes: list, held: int, span: bool) -> int:
    """Bytes _block_vectors allocates for its stacks of blocks, (count,
    rows, cols) each, beside held bytes of input and sorted entries (see
    the module docstring): the factors kept for every
    block, as many bytes again for the returned vectors (at most m of them
    per block, as Vh has), less the spectra, and the largest chunk, since
    the chunks are taken one after another (_chunks)."""
    kept, spectra, work, step = _chunks(shapes, held, span)
    return 2 * kept - spectra + max(
        (min(num, s) * w for (num, _, _), w, s in zip(shapes, work, step)), default=0)


def _chunks(shapes: list, held: int, span: bool) -> tuple[int, int, list, list]:
    """How batched_svd takes stacks of blocks, (count, rows, cols) each,
    beside held bytes of input and sorted entries: (kept, spectra, work,
    step). kept is the
    bytes of the factors it keeps for all the blocks, their Vh, m x cols
    with m = cols for a kernel and min(rows, cols) for a span (complex),
    and their spectra, cols values (real), which take spectra bytes.
    work[j] is the working bytes of one block of stack j while its chunk
    is factored: the densified block and, on the QR path (rows > cols),
    qr's copy of it, R, the U of R and its Vh, else the U of its SVD
    (complex). step[j] is the blocks per chunk of stack j, as many as fit
    within QR_CHUNK and within kept + held bytes, at least one."""
    vh = sum(num * 16 * (min(r, c) if span else c) * c for num, r, c in shapes)
    spectra = sum(num * 8 * c for num, _, c in shapes)
    work = [16 * (r * c + (r * c + 3 * c * c if r > c else r * r)) for _, r, c in shapes]
    budget = min(QR_CHUNK, vh + spectra + held)
    return vh + spectra, spectra, work, [max(1, budget // max(w, 1)) for w in work]


class BlockKernel:
    """An orthonormal kernel basis of ncols unknowns, kept by block.

    parts holds (cols, vecs, first) per group of blocks with c columns and
    kernel dimension k, one group per (c, k): cols (m, c) the columns of m
    blocks, vecs (m, c, k) each block's orthonormal kernel vectors on its
    columns, and first (m,), increasing, the index of each block's first
    vector among all of them, the order vectors() lists them in. Blocks
    with no kernel are left out.
    """

    def __init__(self, ncols: int, parts: tuple):
        self.ncols, self.parts = ncols, parts

    @property
    def shape(self) -> tuple[int, int]:
        return self.ncols, sum(vecs.shape[0] * vecs.shape[2] for _, vecs, _ in self.parts)

    def sparse(self) -> SparseSystem:
        """The kernel basis as the columns of a SparseSystem of its blocks'
        entries, (ncols, kernel)."""
        rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        vals = [np.zeros(0, dtype=complex)]
        for block_cols, vecs, first in self.parts:
            at = first[:, None, None] + np.arange(vecs.shape[2])
            rows.append(np.broadcast_to(block_cols[:, :, None], vecs.shape).ravel())
            cols.append(np.broadcast_to(at, vecs.shape).ravel())
            vals.append(vecs.ravel())
        return SparseSystem(self.shape, *map(np.concatenate, (rows, cols, vals)))

    def slabs(self):
        """The kernel vectors, one part at a time, as arrays of their
        indices. A part is cut into slices whose working set fits QR_CHUNK
        bytes: the slice's vectors, dense, and one transform of them (a
        caller maps each slice to its own stack and conjugates or reshapes
        it), two complex copies of ncols entries per vector."""
        step = max(1, QR_CHUNK // (2 * 16 * self.ncols))
        for _, vecs, first in self.parts:
            idx = (first[:, None] + np.arange(vecs.shape[2])).ravel()
            for i in range(0, idx.size, step):
                yield idx[i : i + step]

    def vectors(self, idx=slice(None)) -> np.ndarray:
        """The kernel vectors idx, any numpy index of them (all by
        default), as the rows of a (count, ncols) array; vectors().T is the
        kernel basis as columns. Each is read from the block that holds it,
        through the blocks' first vectors, and no other vector is
        formed."""
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
    block (BlockKernel; its vectors().T is the basis as columns).

    mat is a dense array, whose exact zeros give the block structure, or a
    SparseSystem. Blocks of one shape are densified and solved a chunk at
    a time, one batched SVD per chunk, a tall block by the SVD of its QR
    factor R, and share one rank decision (see the module docstring). If
    the kept SVD factors, the kernel vectors and the largest chunk need
    more than DENSE_LIMIT bytes (_dense_bytes, from the block shapes),
    DenseLimitExceeded is raised before they are allocated.
    """
    return _block_vectors(mat, span=False)


def span_basis(mat: np.ndarray | SparseSystem) -> BlockKernel:
    """Orthonormal basis of the column span of mat, a dense array or a
    SparseSystem, kept by connected block (BlockKernel, one unknown per
    row of mat).

    The span is the row space of mat^H, which nullspace's machinery splits
    into the same blocks, guards and solves with the same cut; a block
    keeps its right singular vectors above the cut, where nullspace keeps
    those below it (see the module docstring).
    """
    if isinstance(mat, SparseSystem):
        return _block_vectors(
            SparseSystem(mat.shape[::-1], mat.cols, mat.rows, mat.vals.conj()), span=True)
    return _block_vectors(np.asarray(mat, dtype=complex).conj().T, span=True)


def _block_vectors(mat: np.ndarray | SparseSystem, span: bool) -> BlockKernel:
    """The right singular vectors of each connected block of mat below the
    shared cut (its kernel), or above it with span=True (its row space)."""
    if isinstance(mat, SparseSystem):
        nrows, ncols = mat.shape
        rows, cols, vals = mat.rows, mat.cols, mat.vals
        given = 0
    else:
        m = np.asarray(mat, dtype=complex)
        nrows, ncols = m.shape
        rows, cols = np.nonzero(m)
        vals = m[rows, cols]
        given = m.nbytes
    # bytes held whatever the chunks: the input, its entries, and their
    # sorted places and sums (8 + 16 bytes each)
    held = given + rows.nbytes + cols.nbytes + vals.nbytes + 24 * vals.size

    # blocks numbered by their smallest column, the label of each component
    label = _column_components(rows, cols, nrows, ncols)
    col_block = np.cumsum(label == np.arange(ncols))[label] - 1
    ncol_b = np.bincount(col_block)
    entry_block = col_block[cols]
    row_block = np.full(nrows, -1)
    row_block[rows] = entry_block
    active = np.flatnonzero(row_block >= 0)
    nrow_b = np.bincount(row_block[active], minlength=ncol_b.size)
    # blocks grouped by shape: stack j is blocks slot[at[j] : at[j] + count[j]]
    shape_key = nrow_b * (ncols + 1) + ncol_b
    slot = np.argsort(shape_key, kind="stable")
    _, at, count = np.unique(shape_key[slot], return_index=True, return_counts=True)
    shapes = np.stack([count, nrow_b[slot[at]], ncol_b[slot[at]]], axis=1).tolist()
    if (need := _dense_bytes(shapes, held, span)) > DENSE_LIMIT:
        raise DenseLimitExceeded(
            f"{ncol_b.size} connected blocks of up to {ncol_b.max()} unknowns need "
            f"{need} bytes, which exceeds the dense limit of {DENSE_LIMIT} bytes"
        )
    row_pos = np.zeros(nrows, dtype=int)
    row_pos[active] = _positions(row_block[active], nrow_b)[0]
    col_pos, block_cols = _positions(col_block, ncol_b)  # and the columns grouped by block
    col_start = np.cumsum(ncol_b) - ncol_b

    # each entry's place in the blocks laid out row-major one after another,
    # blocks of one shape side by side; the entries at one place are summed
    # in the order given, and the places sorted once, so that each chunk of
    # blocks reads one run of them
    size = nrow_b * ncol_b
    offset = np.empty_like(size)
    offset[slot] = np.cumsum(size[slot]) - size[slot]
    place, inverse = np.unique(
        offset[entry_block] + row_pos[rows] * ncol_b[entry_block] + col_pos[cols],
        return_inverse=True,
    )
    summed = np.zeros(place.size, dtype=complex)
    np.add.at(summed, inverse, vals)
    del inverse
    stack_place = offset[slot[at]]

    def dense(j: int, lo: int, hi: int) -> np.ndarray:
        """Blocks lo to hi - 1 of stack j, densified."""
        _, r, c = shapes[j]
        start = stack_place[j] + lo * r * c
        begin, end = np.searchsorted(place, (start, start + (hi - lo) * r * c))
        out = np.zeros((hi - lo, r, c), dtype=complex)
        out.reshape(-1)[place[begin:end] - start] = summed[begin:end]
        return out

    # kept values are a prefix of each block's descending spectrum, so the
    # row space is spanned by the first rows of a block's vh, the kernel by
    # the last; num counts them for every block, in slot order, the order
    # of the chunks
    svds = batched_svd(shapes, held, dense, full=not span)
    num = np.concatenate([kept.sum(axis=1) for *_, kept in svds] + [np.zeros(0, dtype=int)])
    if not span:
        num = ncol_b[slot] - num
    first = np.cumsum(num) - num
    # parts keyed by (columns, vectors per block): blocks of one column count
    # but different row counts solve in different stacks and share a part,
    # listed by the stack that first has them and then by vectors per block
    parts, b = {}, 0
    for i, (j, s, vh, _) in enumerate(svds):
        svds[i] = None  # the chunk's factors are dropped once its vectors are taken
        c, here = s.shape[1], num[b : b + len(s)]
        for dim in np.flatnonzero(np.bincount(here)[1:]) + 1:
            sel = np.flatnonzero(here == dim)
            vecs = vh[sel, :dim] if span else vh[sel, c - dim :]
            _, idx, vec = parts.setdefault((c, int(dim)), (j, [], []))
            idx.append(b + sel)
            vec.append(np.conjugate(vecs, out=vecs).transpose(0, 2, 1))
        b += len(s)
    blocks = []
    for (c, _), (_, idx, vec) in sorted(parts.items(), key=lambda p: (p[1][0], p[0][1])):
        idx = np.concatenate(idx)
        blocks.append((block_cols[col_start[slot[idx], None] + np.arange(c)],
                       vec[0] if len(vec) == 1 else np.concatenate(vec), first[idx]))
    return BlockKernel(ncols, tuple(blocks))


def batched_svd(shapes: list, held: int, dense, full: bool = False) -> list[tuple]:
    """Right singular vectors of many blocks with one rank decision, as for
    their direct sum.

    shapes holds (count, rows, cols) per stack of blocks of one shape,
    held is the bytes the caller holds beside the factors (_chunks), and
    dense(j, lo, hi) gives blocks lo to hi - 1 of stack j as a (hi - lo,
    rows, cols) array. A stack is densified one chunk of blocks at a time
    (_chunks), just before the chunk is factored, and the chunk is
    dropped once it is, so that only the factors are kept. Every block's
    spectrum is zero-padded to its column count; one rank_split on the
    union, with the global scale, is the cut. Returns (j, s, vh, kept) per
    chunk, in the order of the stacks and of their blocks, j the chunk's
    stack and kept[b, i] marking the singular values of its block b above
    the cut (a prefix of each padded spectrum). No left singular vectors
    are kept: a tall chunk (rows > cols) is taken by the SVD of the R of
    its QR, which has the blocks' singular values and right singular
    vectors, and a one-column block's singular value is its norm, with
    right vector 1. With full=True a wide block gets every right singular
    vector.
    """
    svds = []
    for j, ((num, _, _), step) in enumerate(zip(shapes, _chunks(shapes, held, not full)[3])):
        for lo in range(0, num, step):
            svds.append((j, *_svd(dense(j, lo, min(lo + step, num)), full)))
    kept = shared_cut([s for _, s, _ in svds])
    return [(*svd, k) for svd, k in zip(svds, kept)]


def _svd(stack: np.ndarray, full: bool) -> tuple[np.ndarray, np.ndarray]:
    """(s, vh) of a (count, rows, cols) stack for batched_svd, each
    spectrum zero-padded to cols values."""
    m, r, c = stack.shape
    if c == 1:
        s, vh = np.linalg.norm(stack, axis=1), np.ones((m, 1, 1), dtype=complex)
    elif r > c:
        _, s, vh = np.linalg.svd(np.linalg.qr(stack, mode="r"))
    else:
        s, vh = np.linalg.svd(stack, full_matrices=full)[1:]
    if s.shape[1] < c:
        s = np.concatenate([s, np.zeros((m, c - s.shape[1]))], axis=1)
    return s, vh


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

    One SVD W = U S Vh, rank r by rank_split: U[:, :r] is an orthonormal
    basis of the whitened span, and Q = T^-1 U[:, :r] has metric Gram
    U^H U = I and spans the input columns. This is batched_svd's cut for
    one block: zero-padding one spectrum does not change its rank.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    w = v if factor is None else factor @ v
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    u = u[:, : rank_split(s)]
    return u if factor is None else np.linalg.solve(factor, u)


def spectral_split(mats: np.ndarray, want: int | None = None) -> tuple[np.ndarray, list[int]]:
    """(vec, bounds): the eigenvectors of m + m^H by ascending eigenvalue,
    m = sum_j t_j mats[j] for a stack mats (count, n, n) and t iid standard
    complex Gaussian drawn from SPLIT_SEED; cluster i is
    vec[:, bounds[i]:bounds[i + 1]], and an eigenvalue gap above
    CLUSTER_GAP * (spectral radius) starts a new cluster.

    With want, a draw that gives another number of clusters is redrawn, at
    most SPLIT_DRAWS draws in all, and RankAmbiguous is raised if none
    gives want.
    """
    mats = np.asarray(mats)
    rng = np.random.default_rng(SPLIT_SEED)
    for _ in range(1 if want is None else SPLIT_DRAWS):
        t = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
        m = np.tensordot(t, mats, axes=1)
        lam, vec = np.linalg.eigh(m + m.conj().T)
        cuts = np.flatnonzero(lam[1:] - lam[:-1] > CLUSTER_GAP * np.abs(lam).max()) + 1
        bounds = [0, *cuts.tolist(), len(lam)]
        if want is None or len(bounds) - 1 == want:
            return vec, bounds
    raise RankAmbiguous(
        f"no clear spectral gap: {SPLIT_DRAWS} draws split into other than {want} clusters")


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m).ravel()))


def stack_frob(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., rows, cols), read as
    real pairs in one pass, with no squared copy."""
    m = np.ascontiguousarray(m, dtype=complex)
    v = m.view(float).reshape(*m.shape[:-2], 2 * m.shape[-2] * m.shape[-1])
    return np.sqrt(np.einsum("...i,...i->...", v, v))
