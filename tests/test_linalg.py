import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinlab import DenseLimitExceeded, RankAmbiguous
from steinlab import _linalg
from steinlab._linalg import SparseSystem, gram_onb, nullspace, rank_split, span_basis


def full_svd_kernel(m: np.ndarray) -> np.ndarray:
    """Reference kernel: one SVD of the whole matrix, spectrum padded to the
    column count, one rank_split."""
    cols = m.shape[1]
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    s = np.concatenate([s, np.zeros(cols - s.size)])
    return vh[rank_split(s) :].conj().T


def _with_spectrum(rng, r: int, c: int, svals) -> np.ndarray:
    """Dense r x c complex matrix with the given nonzero singular values."""
    k = len(svals)
    u, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    v, _ = np.linalg.qr(rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c)))
    return (u[:, :k] * np.asarray(svals)) @ v[:, :k].conj().T


def _shuffled_block_diagonal(rng, blocks, extra_rows=0, extra_cols=0) -> np.ndarray:
    """Block-diagonal matrix of the given blocks plus zero rows and columns,
    with rows and columns randomly permuted."""
    nr = sum(b.shape[0] for b in blocks) + extra_rows
    nc = sum(b.shape[1] for b in blocks) + extra_cols
    m = np.zeros((nr, nc), dtype=complex)
    r0 = c0 = 0
    for b in blocks:
        m[r0 : r0 + b.shape[0], c0 : c0 + b.shape[1]] = b
        r0 += b.shape[0]
        c0 += b.shape[1]
    return m[rng.permutation(nr)][:, rng.permutation(nc)]


def _as_sparse(rng, m: np.ndarray) -> SparseSystem:
    """Entries of m in shuffled order, each split into two summed halves."""
    rows, cols = np.nonzero(m)
    order = rng.permutation(2 * rows.size)
    rows, cols = np.tile(rows, 2)[order], np.tile(cols, 2)[order]
    return SparseSystem(m.shape, rows, cols, m[rows, cols] / 2)


def _projector(k: np.ndarray) -> np.ndarray:
    return k @ k.conj().T


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_block_kernel_matches_full_svd(shapes, extra_rows, extra_cols, seed):
    rng = np.random.default_rng(seed)
    blocks, rank = [], 0
    for r, c, frac in shapes:
        k = int(round(frac * min(r, c)))
        blocks.append(_with_spectrum(rng, r, c, rng.uniform(0.5, 2.0, k)))
        rank += k
    m = _shuffled_block_diagonal(rng, blocks, extra_rows, extra_cols)
    ref = full_svd_kernel(m)
    assert ref.shape[1] == m.shape[1] - rank
    for arg in (m, _as_sparse(rng, m)):
        ker = nullspace(arg).vectors().T
        assert ker.shape == ref.shape
        assert np.max(np.abs(ker.conj().T @ ker - np.eye(ker.shape[1])), initial=0.0) < 1e-10
        assert np.max(np.abs(_projector(ker) - _projector(ref)), initial=0.0) < 1e-10


def test_gap_guard_spans_blocks():
    # Alone, neither block is ambiguous: each keeps everything above the cut
    # by a wide margin. Together the kept 2e-10 and the dropped 5e-11 are
    # only 4x apart, below GAP_RATIO, so the union decision must refuse.
    rng = np.random.default_rng(3)
    a = _with_spectrum(rng, 3, 2, [1.0, 2e-10])
    b = _with_spectrum(rng, 2, 2, [0.5, 5e-11])
    assert nullspace(a).shape[1] == 0
    assert nullspace(b).shape[1] == 1
    with pytest.raises(RankAmbiguous):
        full_svd_kernel(_shuffled_block_diagonal(rng, [a, b]))
    with pytest.raises(RankAmbiguous):
        nullspace(_shuffled_block_diagonal(rng, [a, b]))


def test_empty_system_kernel_is_everything():
    ker = nullspace(np.zeros((0, 4)))
    assert np.array_equal(ker.vectors().T, np.eye(4))
    sparse = SparseSystem((5, 3), np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    assert np.array_equal(nullspace(sparse).vectors().T, np.eye(3))


def test_max_block_guard_runs_on_the_largest_block(monkeypatch):
    rng = np.random.default_rng(5)
    m = _shuffled_block_diagonal(
        rng, [_with_spectrum(rng, 2, 2, [1.0]), _with_spectrum(rng, 3, 3, [1.0, 1.0])]
    )
    # the kept Vh, kernel vectors and spectra of both blocks, 16 * 2 * (4 + 9)
    # + 8 * (2 + 3), and the working set of the largest chunk only, the 3 x 3
    # block densified and its U, 16 * (9 + 9): the 2 x 2 block's chunk is
    # dropped before the 3 x 3 block's is densified
    assert 16 * 26 + 40 + 16 * 18 == 744
    monkeypatch.setattr(_linalg, "DENSE_LIMIT", 744)
    assert nullspace(m).shape[1] == 2
    monkeypatch.setattr(_linalg, "DENSE_LIMIT", 743)
    with pytest.raises(DenseLimitExceeded, match="up to 3 unknowns need 744 bytes, which "
                                                 "exceeds the dense limit of 743 bytes"):
        nullspace(m)


def test_guard_counts_the_returned_kernel_vectors(monkeypatch):
    # four unknowns with no equation: four 0 x 1 blocks, each with a padded
    # spectrum (8 bytes), a 1 x 1 Vh (16) and one returned vector (16)
    monkeypatch.setattr(_linalg, "DENSE_LIMIT", 160)
    assert nullspace(np.zeros((0, 4))).shape == (4, 4)
    monkeypatch.setattr(_linalg, "DENSE_LIMIT", 159)
    with pytest.raises(DenseLimitExceeded, match="need 160 bytes"):
        nullspace(np.zeros((0, 4)))


def test_block_kernel_keeps_the_column_order_of_its_blocks():
    # two 2 x 3 blocks of one shape with kernels of dimension 1 and 2 are
    # kept in two parts, but vectors() lists the kernel block by block
    rng = np.random.default_rng(8)
    m = np.zeros((4, 6), dtype=complex)
    m[:2, :3] = _with_spectrum(rng, 2, 3, [1.0, 0.5])
    m[2:, 3:] = _with_spectrum(rng, 2, 3, [1.0])
    ker = nullspace(m)
    assert [vecs.shape for _, vecs, _ in ker.parts] == [(1, 3, 1), (1, 3, 2)]
    dense = ker.vectors().T
    assert np.all(dense[3:, 0] == 0) and np.all(dense[:3, 1:] == 0)
    assert np.max(np.abs(dense.conj().T @ dense - np.eye(3))) < 1e-12
    assert np.max(np.abs(m @ dense)) < 1e-12


def _hpd(rng, n: int) -> np.ndarray:
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x @ x.conj().T + n * np.eye(n)


def _planted(rng, nrows: int, rank: int, extra: list) -> np.ndarray:
    """(V, B): B holds rank independent columns of a random subspace, with
    norms in [0.5, 2], and V is B with duplicated, scaled and zero columns
    added, shuffled."""
    x = rng.standard_normal((nrows, rank)) + 1j * rng.standard_normal((nrows, rank))
    base = np.linalg.qr(x)[0] * rng.uniform(0.5, 2.0, rank)
    cols = list(base.T)
    for kind in extra:
        j = int(rng.integers(rank)) if rank else 0
        if kind == "zero" or not rank:
            cols.append(np.zeros(nrows, dtype=complex))
        elif kind == "dup":
            cols.append(base[:, j].copy())
        else:
            cols.append(base[:, j] * np.exp(2j * np.pi * rng.uniform()) * rng.uniform(0.1, 10.0))
    v = np.column_stack(cols) if cols else np.zeros((nrows, 0), dtype=complex)
    return v[:, rng.permutation(v.shape[1])], base


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.none(), st.integers(1, 8)),
    st.lists(st.sampled_from(["dup", "scaled", "zero"]), max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_gram_onb_is_a_metric_onb_of_the_span(metric_dim, extra, seed):
    # metric_dim None is the standard inner product on 4 rows
    rng = np.random.default_rng(seed)
    nrows = metric_dim or 4
    factor = None if metric_dim is None else np.linalg.cholesky(_hpd(rng, nrows)).conj().T
    rank = int(rng.integers(0, min(nrows, 5) + 1))
    v, base = _planted(rng, nrows, rank, extra)
    gram = np.eye(nrows) if factor is None else factor.conj().T @ factor

    q = gram_onb(v, factor)
    assert q.shape == (nrows, rank)
    assert np.max(np.abs(q.conj().T @ gram @ q - np.eye(rank)), initial=0.0) < 1e-12
    # the metric-orthogonal projector onto span(V) = span(B)
    ref = base @ np.linalg.solve(base.conj().T @ gram @ base, base.conj().T @ gram)
    assert np.max(np.abs(q @ q.conj().T @ gram - ref), initial=0.0) < 1e-12


def test_gram_onb_refuses_a_near_gap_at_the_cut():
    # against the cut 1e-10 the singular value 5e-10 is kept and 8e-11
    # dropped, only 6.25x apart (below GAP_RATIO), so the rank is ambiguous
    rng = np.random.default_rng(2)
    v = _with_spectrum(rng, 6, 3, [1.0, 5e-10, 8e-11])
    t = np.linalg.cholesky(_hpd(rng, 6)).conj().T
    with pytest.raises(RankAmbiguous):
        gram_onb(v)
    with pytest.raises(RankAmbiguous):
        gram_onb(np.linalg.solve(t, v), t)
    assert gram_onb(_with_spectrum(rng, 6, 3, [1.0, 1e-6, 1e-12])).shape[1] == 2


def test_gram_onb_stays_orthonormal_on_widely_scaled_columns():
    # V = [B, 1e3 i b_0]: a duplicate direction scaled by 1e3 makes the
    # kept singular values spread widely; dividing by the smallest one
    # alone left |Q^H G Q - I| at up to ~1e-11 on such inputs
    worst = 0.0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        g = _hpd(rng, n)
        t = np.linalg.cholesky(g).conj().T
        b = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        b = b + 1j * rng.standard_normal(b.shape)
        q = gram_onb(np.column_stack([b, 1e3j * b[:, 0]]), t)
        assert q.shape[1] == b.shape[1]
        worst = max(worst, float(np.abs(q.conj().T @ g @ q - np.eye(q.shape[1])).max()))
    assert worst <= 1e-14


# -- tall blocks: the SVD of the QR factor R ----------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(2, 6), st.integers(1, 4), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=5,
    ),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_tall_block_kernel_matches_full_svd(shapes, chunked, seed):
    # blocks of c columns and 2-6 more rows, each with a planted kernel;
    # chunked takes every QR one block at a time
    with pytest.MonkeyPatch.context() as mp:
        if chunked:
            mp.setattr(_linalg, "QR_CHUNK", 1)
        _check_tall_kernel(shapes, seed)


def _check_tall_kernel(shapes, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for extra, c, frac in shapes:
        r = c + extra
        blocks.append(_with_spectrum(rng, r, c, rng.uniform(0.5, 2.0, int(round(frac * c)))))
        # a second block of the same shape, so that stacks hold several
        blocks.append(_with_spectrum(rng, r, c, rng.uniform(0.5, 2.0, int(round(frac * c)))))
    m = _shuffled_block_diagonal(rng, blocks)
    ref = full_svd_kernel(m)
    for arg in (m, _as_sparse(rng, m)):
        ker = nullspace(arg).vectors().T
        assert ker.shape == ref.shape
        assert np.max(np.abs(ker.conj().T @ ker - np.eye(ker.shape[1])), initial=0.0) < 1e-10
        assert np.max(np.abs(_projector(ker) - _projector(ref)), initial=0.0) < 1e-10


def test_gap_guard_spans_tall_blocks():
    # as test_gap_guard_spans_blocks, with both blocks tall: the kept 2e-10
    # and the dropped 5e-11 of different blocks are only 4x apart
    rng = np.random.default_rng(3)
    a = _with_spectrum(rng, 5, 2, [1.0, 2e-10])
    b = _with_spectrum(rng, 4, 2, [0.5, 5e-11])
    assert nullspace(a).shape[1] == 0
    assert nullspace(b).shape[1] == 1
    with pytest.raises(RankAmbiguous):
        nullspace(_shuffled_block_diagonal(rng, [a, b]))


def test_guard_counts_a_tall_block(monkeypatch):
    # one 3 x 2 block: the block, Vh and the kernel vectors, 3*2 + 2*4
    # complex entries, its spectrum (2 reals), and the QR chunk: qr's copy,
    # R, the U of R and Vh, 3*2 + 3*4 complex entries
    m = _with_spectrum(np.random.default_rng(6), 3, 2, [1.0])
    assert 16 * (6 + 8) + 8 * 2 + 16 * (6 + 12) == 528
    monkeypatch.setattr(_linalg, "DENSE_LIMIT", 528)
    assert nullspace(m).shape[1] == 1
    monkeypatch.setattr(_linalg, "DENSE_LIMIT", 527)
    with pytest.raises(DenseLimitExceeded, match="up to 2 unknowns need 528 bytes"):
        nullspace(m)


def test_kernel_parts_are_keyed_by_columns_and_kernel_dimension():
    # 3 x 2 and 4 x 2 blocks with one kernel vector each solve in two
    # stacks but share one part; vectors() keeps the blocks' order
    rng = np.random.default_rng(9)
    m = np.zeros((7, 4), dtype=complex)
    m[:3, :2] = _with_spectrum(rng, 3, 2, [1.0])
    m[3:, 2:] = _with_spectrum(rng, 4, 2, [1.0])
    ker = nullspace(m)
    assert len(ker.parts) == 1
    cols, vecs, first = ker.parts[0]
    assert vecs.shape == (2, 2, 1)
    dense = ker.vectors().T
    assert np.all(dense[2:, 0] == 0) and np.all(dense[:2, 1] == 0)
    assert np.max(np.abs(m @ dense)) < 1e-12


# -- span_basis: the row space of the conjugate transpose, by block -------------

@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_span_basis_matches_gram_onb(shapes, extra_rows, extra_cols, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for r, c, frac in shapes:
        k = int(round(frac * min(r, c)))
        blocks.append(_with_spectrum(rng, r, c, rng.uniform(0.5, 2.0, k)))
    m = _shuffled_block_diagonal(rng, blocks, extra_rows, extra_cols)
    ref = gram_onb(m)
    got = span_basis(m)
    assert got.shape == (m.shape[0], ref.shape[1])
    q = got.vectors().T
    assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])), initial=0.0) < 1e-12
    assert np.max(np.abs(_projector(q) - _projector(ref)), initial=0.0) < 1e-12


def test_span_basis_refuses_a_near_gap_across_blocks():
    # as test_gap_guard_spans_blocks: kept 2e-10 and dropped 5e-11 of
    # different blocks are only 4x apart, below GAP_RATIO
    rng = np.random.default_rng(3)
    a = _with_spectrum(rng, 3, 2, [1.0, 2e-10])
    b = _with_spectrum(rng, 2, 2, [0.5, 5e-11])
    assert span_basis(a).shape[1] == 2
    assert span_basis(b).shape[1] == 1
    m = _shuffled_block_diagonal(rng, [a, b])
    with pytest.raises(RankAmbiguous):
        gram_onb(m)
    with pytest.raises(RankAmbiguous):
        span_basis(m)


def test_span_basis_guard_counts_a_block_before_allocating(monkeypatch):
    # a span of two vectors on three unknowns is one 2 x 3 block of its
    # conjugate transpose: the block, the thin Vh and the returned vectors,
    # 3 * 2 * 3 complex entries, U of 2 * 2, and its spectrum (3 reals)
    m = _with_spectrum(np.random.default_rng(6), 3, 2, [1.0, 0.5])
    assert 16 * (3 * 6 + 4) + 8 * 3 == 376
    monkeypatch.setattr(_linalg, "DENSE_LIMIT", 376)
    assert span_basis(m).shape == (3, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD ran")

    monkeypatch.setattr(_linalg, "batched_svd", refuse)
    monkeypatch.setattr(_linalg, "DENSE_LIMIT", 375)
    with pytest.raises(DenseLimitExceeded, match="up to 3 unknowns need 376 bytes"):
        span_basis(m)


def _dense(system: SparseSystem) -> np.ndarray:
    out = np.zeros(system.shape, dtype=complex)
    np.add.at(out, (system.rows, system.cols), system.vals)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_sparse_product_and_span_basis_of_sparse_entries(seed):
    rng = np.random.default_rng(seed)
    blocks = [_with_spectrum(rng, r, c, rng.uniform(0.5, 2.0, min(r, c) - 1))
              for r, c in [(3, 4), (5, 2), (2, 2), (4, 6)]]
    m = _shuffled_block_diagonal(rng, blocks, 1, 2)
    a, b = _as_sparse(rng, m), _as_sparse(rng, m.conj().T)
    # the product's entries sum to the dense product; no zero entry is kept
    prod = _linalg.sparse_product(a, b)
    assert prod.shape == (m.shape[0], m.shape[0])
    assert np.max(np.abs(_dense(prod) - m @ m.conj().T)) < 1e-12
    assert (prod.vals != 0).all()
    # the kernel held by its entries is vectors().T, and the span basis of a
    # sparse matrix is that of the dense one, block for block
    for kernel in (nullspace(m), span_basis(m)):
        assert np.array_equal(_dense(kernel.sparse()), kernel.vectors().T)
    got, want = span_basis(a), span_basis(m)
    assert got.shape == want.shape
    assert np.max(np.abs(_projector(got.vectors().T) - _projector(want.vectors().T))) < 1e-12


def test_slabs_read_each_kernel_column_once_within_the_byte_budget(monkeypatch):
    rng = np.random.default_rng(5)
    m = _shuffled_block_diagonal(rng, [_with_spectrum(rng, 2, 6, [1.0]) for _ in range(5)]
                                 + [_with_spectrum(rng, 1, 3, [1.0]) for _ in range(4)])
    kernel = nullspace(m)
    assert len(kernel.parts) == 2
    for step in (1, 3, 100):
        # step dense columns of ncols complex entries, and one transform of
        # them, fit the budget
        monkeypatch.setattr(_linalg, "QR_CHUNK", step * 2 * 16 * kernel.ncols)
        slabs = list(kernel.slabs())
        assert all(0 < idx.size <= step for idx in slabs)
        # each slab lies in one part
        parts = [set((first[:, None] + np.arange(vecs.shape[2])).ravel())
                 for _, vecs, first in kernel.parts]
        assert all(any(set(idx) <= part for part in parts) for idx in slabs)
        assert np.array_equal(np.sort(np.concatenate(slabs)), np.arange(kernel.shape[1]))
    assert len(slabs) == 2
