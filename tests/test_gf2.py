import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbqec.gf2 import BinMatrix, BinVector


def rref_reference(a: np.ndarray, order=None) -> tuple[np.ndarray, list[int]]:
    """Plain dense elimination, independent of the packed code path.

    Tries every column of ``order`` (default: all, left to right), with
    no early stop, and swaps up the first row at or below the current
    one that has the column set.
    """
    a = a.copy() % 2
    rows, cols = a.shape
    pivots = []
    for c in range(cols) if order is None else order:
        r = len(pivots)
        piv = next((i for i in range(r, rows) if a[i, c]), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(int(c))
    return a, pivots


def random_matrix(rng, rows, cols):
    return BinMatrix.from_dense(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def test_rank_identity_and_zeros():
    assert BinMatrix.from_dense(np.eye(5, dtype=np.uint8)).rank() == 5
    assert BinMatrix(3, 4).rank() == 0


def test_rank_matches_reference_and_transpose():
    rng = np.random.default_rng(7)
    for _ in range(30):
        rows, cols = rng.integers(1, 200, size=2)
        dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        m = BinMatrix.from_dense(dense)
        assert m.rank() == len(rref_reference(dense)[1])
        assert m.rank() == m.transpose().rank()


def test_nullspace_identity_empty_and_zero_full():
    assert BinMatrix.from_dense(np.eye(6, dtype=np.uint8)).nullspace_basis() == []
    assert len(BinMatrix(4, 4).nullspace_basis()) == 4


def test_nullspace_vectors_annihilate():
    rng = np.random.default_rng(3)
    for _ in range(15):
        m = random_matrix(rng, *rng.integers(1, 120, size=2))
        basis = m.nullspace_basis()
        assert len(basis) == m.cols - m.rank()
        for b in basis:
            assert m.mul_vec(b).is_zero()
        # basis vectors are independent
        if basis:
            assert BinMatrix.from_rows(basis).rank() == len(basis)
        # and are, in order, the back-substituted vectors of the free columns
        R, pivots = rref_reference(m.to_dense())
        free = [c for c in range(m.cols) if c not in pivots]
        for b, f in zip(basis, free):
            want = np.zeros(m.cols, dtype=np.uint8)
            want[f] = 1
            for i, pc in enumerate(pivots):
                want[pc] = R[i, f]
            assert np.array_equal(b.to_bits(), want)


def rank_deficient(rng, rows, cols) -> np.ndarray:
    """A matrix of rank below its row count: a low-rank product with one
    row repeated and one row zeroed."""
    k = int(rng.integers(1, min(rows, cols)))
    a = (rng.integers(0, 2, size=(rows, k)) @ rng.integers(0, 2, size=(k, cols))) % 2
    a[rng.integers(rows)] = a[rng.integers(rows)]
    a[rng.integers(rows)] = 0
    return a.astype(np.uint8)


def test_rref_pivot_order_equals_permuted_elimination():
    rng = np.random.default_rng(21)
    early = 0
    for trial in range(50):
        rows, cols = (int(v) for v in rng.integers(2, 150, size=2))
        if trial % 2:
            dense = rank_deficient(rng, rows, cols)
        else:
            dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        order = rng.permutation(cols)
        R, pivots = BinMatrix.from_dense(dense).rref(pivot_order=order)
        R_perm, pivots_perm = BinMatrix.from_dense(dense[:, order]).rref()
        back = np.zeros_like(dense)
        back[:, order] = R_perm.to_dense()
        assert np.array_equal(R.to_dense(), back)
        assert pivots == order[pivots_perm].tolist()
        R_ref, pivots_ref = rref_reference(dense, order)
        assert np.array_equal(R.to_dense(), R_ref)
        assert pivots == pivots_ref
        # trials that leave rows below the last pivot and columns of the
        # order after it, which the scan tests without finding a pivot
        last = order.tolist().index(pivots[-1]) if pivots else -1
        early += len(pivots) < rows and last < cols - 1
        # one more column left out of the order, as OSD appends its
        # syndrome: inside the column space on half the trials, so that
        # the rows below the last pivot end up zero there too
        extra = dense @ rng.integers(0, 2, cols) % 2 if trial % 4 < 2 else rng.integers(0, 2, rows)
        grown = np.hstack([dense, extra[:, None]]).astype(np.uint8)
        R, pivots = BinMatrix.from_dense(grown).rref(pivot_order=order)
        R_ref, pivots_ref = rref_reference(grown, order)
        assert np.array_equal(R.to_dense(), R_ref)
        assert pivots == pivots_ref
    assert early >= 20


def test_rref_pivot_order_skips_left_out_columns():
    rng = np.random.default_rng(23)
    dense = rng.integers(0, 2, size=(30, 50), dtype=np.uint8)
    order = rng.permutation(50)[:20]
    _, pivots = BinMatrix.from_dense(dense).rref(pivot_order=order)
    _, pivots_perm = BinMatrix.from_dense(dense[:, order]).rref()
    assert pivots == order[pivots_perm].tolist()
    assert set(pivots) <= set(order.tolist())


def wide_low_rank(rng, rows, cols, rank) -> np.ndarray:
    """rows x cols of rank at most ``rank``, every column a copy of one of
    ``2 * rank`` pooled columns, so most columns repeat another."""
    pool = rng.integers(0, 2, size=(rows, rank)) @ rng.integers(0, 2, size=(rank, 2 * rank)) % 2
    return pool[:, rng.integers(0, 2 * rank, cols)].astype(np.uint8)


def assert_rref_matches_reference(dense, order=None):
    R, pivots = BinMatrix.from_dense(dense).rref(pivot_order=order)
    R_ref, pivots_ref = rref_reference(dense, order)
    assert np.array_equal(R.to_dense(), R_ref)
    assert pivots == pivots_ref
    return pivots


def test_rref_wide_rank_deficient_matches_reference():
    # long runs of dependent columns, each tested on its own before a pivot
    rng = np.random.default_rng(31)
    for trial in range(6):
        dense = wide_low_rank(rng, 40, 3000, int(rng.integers(1, 13)))
        order = rng.permutation(3000)
        assert_rref_matches_reference(dense)
        assert_rref_matches_reference(dense, order)
        # an order that leaves most columns out, and one more column left
        # out of the order that makes the rows below the last pivot nonzero
        assert_rref_matches_reference(dense, order[: int(rng.integers(1, 3000))])
        extra = rng.integers(0, 2, size=(40, 1), dtype=np.uint8)
        assert_rref_matches_reference(np.hstack([dense, extra]), order)


def test_rref_finds_the_pivot_after_any_run_of_dependent_columns():
    # runs of copies of one column, of every length up to 329 and three
    # longer ones, each ended by the next pivot
    rng = np.random.default_rng(33)
    a, b = rng.integers(0, 2, size=(2, 40, 1), dtype=np.uint8)
    a[0], b[0], b[1] = 1, 0, 1  # independent
    for run in [*range(1, 330), 1000, 2000, 2900]:
        dense = np.hstack([a, np.repeat(a, run, axis=1), b, a])
        R, pivots = BinMatrix.from_dense(dense).rref()
        assert pivots == [0, run + 1], run
        if run % 100 == 1:
            assert np.array_equal(R.to_dense(), rref_reference(dense)[0])
    # below the only pivot every row is zero: no later column pivots
    assert assert_rref_matches_reference(dense[:, : run + 1]) == [0]


def test_rref_of_zero_matrix_and_empty_order():
    zero = np.zeros((5, 300), dtype=np.uint8)
    assert assert_rref_matches_reference(zero) == []
    assert assert_rref_matches_reference(zero, np.arange(300)[::-1]) == []
    dense = np.random.default_rng(35).integers(0, 2, size=(5, 300), dtype=np.uint8)
    R, pivots = BinMatrix.from_dense(dense).rref(pivot_order=[])
    assert pivots == [] and np.array_equal(R.to_dense(), dense)


def test_default_rref_is_eliminated_once_and_shared(monkeypatch):
    dense = rank_deficient(np.random.default_rng(43), 30, 200)
    m = BinMatrix.from_dense(dense)
    R, pivots = m.rref()
    R_ref, pivots_ref = rref_reference(dense)
    assert np.array_equal(R.to_dense(), R_ref) and pivots == pivots_ref
    assert not R.words.flags.writeable

    class Unread:
        def __getattr__(self, name):
            raise AssertionError("the default order was eliminated again")

    member = m.row(4) ^ m.row(9)
    with monkeypatch.context() as patched:
        # every elimination starts from a copy of m's words
        patched.setattr(m, "words", Unread())
        again = m.rref()
        assert again[0] is R and again[1] is pivots
        assert m.rank() == len(pivots) and m.in_rowspace(member)
    # an explicit order is eliminated on every call, and leaves the cache as it was
    order = np.arange(200)[::-1]
    R_rev, pivots_rev = m.rref(pivot_order=order)
    R_ref, pivots_ref = rref_reference(dense, order)
    assert np.array_equal(R_rev.to_dense(), R_ref) and pivots_rev == pivots_ref
    assert R_rev.words.flags.writeable and m.rref()[0] is R


@pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 63, 64, 65])
def test_transpose_matches_dense_transpose(rows):
    rng = np.random.default_rng(rows)
    for cols in (0, 1, 63, 64, 65, 8191, 8192, 8193):
        dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        t = BinMatrix.from_dense(dense).transpose()
        want = BinMatrix.from_dense(dense.T)
        # words compared too, so padding bits must be zero
        assert (t.rows, t.cols) == (cols, rows)
        assert t.words.shape == want.words.shape
        assert np.array_equal(t.words, want.words)


def test_append_row_carries_row_supports():
    rng = np.random.default_rng(37)
    m = random_matrix(rng, 12, 130)
    v = BinVector.from_bits(rng.integers(0, 2, 130, dtype=np.uint8))
    grown = m.append_row(v)
    assert grown._row_supports is not None  # m's supports and v's, not rebuilt on demand
    fresh = BinMatrix(grown.rows, grown.cols, grown.words.copy())
    assert len(grown.row_supports()) == len(fresh.row_supports()) == 13
    for got, want in zip(grown.row_supports(), fresh.row_supports()):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_append_col_matches_dense_hstack():
    rng = np.random.default_rng(25)
    for cols in (0, 1, 63, 64, 65, 127, 128, 200):
        m = random_matrix(rng, 7, cols)
        bits = rng.integers(0, 2, 7, dtype=np.uint8)
        grown = m.append_col(bits)
        assert grown == m.hstack(BinMatrix.from_dense(bits.reshape(-1, 1)))
        assert np.array_equal(grown.to_dense(), np.hstack([m.to_dense(), bits[:, None]]))
    with pytest.raises(ValueError):
        m.append_col(bits[:-1])


def test_in_rowspace_rows_zero_and_rank_characterisation():
    rng = np.random.default_rng(5)
    m = random_matrix(rng, 40, 60)
    assert m.in_rowspace(BinVector(60))
    for i in range(m.rows):
        assert m.in_rowspace(m.row(i))
    for _ in range(20):
        v = BinVector.from_bits(rng.integers(0, 2, 60, dtype=np.uint8))
        appended = m.append_row(v)
        assert m.in_rowspace(v) == (appended.rank() == m.rank())


def test_rowbasis_incremental():
    rng = np.random.default_rng(9)
    m = random_matrix(rng, 30, 50)
    R, pivots = m.rref()
    assert len(pivots) == m.rank()
    comb = m.row(0) ^ m.row(7) ^ m.row(19)
    assert not m.row_residue(comb).any()
    # the residue of any v is zero at every pivot, and differs from v by a row combination
    for _ in range(10):
        v = BinVector.from_bits(rng.integers(0, 2, 50, dtype=np.uint8))
        residue = BinVector(50, m.row_residue(v))
        assert not residue.to_bits()[pivots].any()
        assert m.in_rowspace(v ^ residue)


def test_sparse_and_dense_views_agree():
    rng = np.random.default_rng(13)
    m = random_matrix(rng, 25, 70)
    dense = m.to_dense()
    for i, sup in enumerate(m.row_supports()):
        assert np.array_equal(np.flatnonzero(dense[i]), sup)


def test_vector_ops():
    v = BinVector.from_support(130, [0, 63, 64, 129])
    assert v.weight == 4
    assert list(v.support) == [0, 63, 64, 129]
    w = v ^ BinVector.from_support(130, [63])
    assert w.weight == 3
    assert v.dot(BinVector.from_support(130, [129])) == 1
    assert v.dot(BinVector.from_support(130, [1])) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_matmul_matches_integer_arithmetic(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    b = rng.integers(0, 2, size=(cols, rows), dtype=np.uint8)
    prod = BinMatrix.from_dense(a).mul_mat(BinMatrix.from_dense(b))
    assert np.array_equal(prod.to_dense(), (a.astype(int) @ b.astype(int)) % 2)


def test_matmul_keeps_empty_rows_zero():
    rng = np.random.default_rng(21)
    a = rng.integers(0, 2, size=(6, 9), dtype=np.uint8)
    a[[0, 3, 5]] = 0  # first, middle and last rows empty
    b = rng.integers(0, 2, size=(9, 70), dtype=np.uint8)
    prod = BinMatrix.from_dense(a).mul_mat(BinMatrix.from_dense(b))
    assert np.array_equal(prod.to_dense(), (a.astype(int) @ b.astype(int)) % 2)
    assert BinMatrix(4, 9).mul_mat(BinMatrix.from_dense(b)) == BinMatrix(4, 70)
