import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinlab import DenseLimitExceeded, RankAmbiguous
from steinlab._linalg import SparseSystem, gram_onb, nullspace, rank_split


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
        ker = nullspace(arg)
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
    assert np.array_equal(ker, np.eye(4))
    sparse = SparseSystem((5, 3), np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    assert np.array_equal(nullspace(sparse), np.eye(3))


def test_max_block_guard_runs_on_the_largest_block():
    rng = np.random.default_rng(5)
    m = _shuffled_block_diagonal(
        rng, [_with_spectrum(rng, 2, 2, [1.0]), _with_spectrum(rng, 3, 3, [1.0, 1.0])]
    )
    assert nullspace(m, max_block=3).shape[1] == 2
    with pytest.raises(DenseLimitExceeded, match="3 unknowns exceeds the dense limit of 2"):
        nullspace(m, max_block=2)


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
