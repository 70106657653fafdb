"""Bit-packed dense linear algebra over GF(2).

Vectors and matrices are stored as little-endian ``uint64`` words, 64
columns per word.  This module is the package's only home of bit
packing (``nwords``, ``pack_bits``, ``unpack_bits``) and of Gaussian
elimination: ``BinMatrix.rref`` is the one column-elimination loop,
shared by rank, kernel, row-space membership and the decoder's
ordered-statistics step.  ``rref`` tries pivot columns in a
caller-given permutation, left to right by default, so the decoder eliminates
its own packed matrix in reliability order instead of a column-permuted
copy.  Row updates are word-wide XORs, one pivot at a time.  The
largest elimination here is the decoder's: OSD reduces a 936 x 8,785
matrix on bb144 with 12 cycles.  Its rank is 930, so six rows never
hold a pivot, and the scan tests every column of the order, one at a
time, against the rows still below; the thousands of dependent columns
after the last pivot each cost one test.  The default-order RREF is
cached on its matrix and shared, read-only, by every caller; the
distance trials add their extra row to it (``decode._CosetDecoder``).
``BinMatrix.transpose`` works on whole bytes, swapping 8 x 8 bit blocks
held in one ``uint64`` each, and never unpacks a bit to a byte.  A
compressed sparse row view, ``BinMatrix.csr``, is derived on demand for
message-passing decoders and for products with a sparse left factor.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

WORD = 64


def nwords(nbits: int) -> int:
    """Words needed to hold nbits bits (at least one)."""
    return max(1, (nbits + WORD - 1) // WORD)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 1-D or 2-D 0/1 array into little-endian uint64 words."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8) & 1)
    r, n = bits.shape
    w = nwords(n)
    padded = np.zeros((r, w * WORD), dtype=np.uint8)
    padded[:, :n] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64).reshape(r, w)


def bit_masks(idx) -> tuple[np.ndarray, np.ndarray]:
    """Word index and one-bit mask of each bit position in idx."""
    idx = np.asarray(idx, dtype=np.int64)
    return idx // WORD, np.uint64(1) << (idx % WORD).astype(np.uint64)


def _transpose8x8(x: np.ndarray) -> None:
    """Transpose in place each 8 x 8 bit matrix held in a uint64 of x.

    Bit 8*i + j holds entry (i, j).  Three delta swaps exchange the
    1 x 1, 2 x 2 and 4 x 4 off-diagonal sub-blocks in turn (Warren,
    Hacker's Delight, section 7-3).
    """
    t = np.empty_like(x)
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                        (28, 0x00000000F0F0F0F0)):
        shift = np.uint64(shift)
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= np.uint64(mask)
        x ^= t
        t <<= shift
        x ^= t


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack the first n bits of each row of packed words into a 0/1 array."""
    words = np.atleast_2d(words)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :n]


def int_rows(words: np.ndarray) -> list[int]:
    """Each row of packed words as a Python int, bit j for column j."""
    return [int.from_bytes(r.tobytes(), "little") for r in np.atleast_2d(words)]


class BinVector:
    """A length-n vector over GF(2), packed 64 entries per word."""

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: np.ndarray | None = None):
        self.n = int(n)
        if words is None:
            words = np.zeros(nwords(self.n), dtype=np.uint64)
        self.words = words

    @classmethod
    def from_bits(cls, bits) -> "BinVector":
        bits = np.asarray(bits, dtype=np.uint8)
        return cls(bits.shape[0], pack_bits(bits)[0])

    @classmethod
    def from_int(cls, n: int, x: int) -> "BinVector":
        """The length-n vector whose bit j is bit j of x, for 0 <= x < 2**n."""
        return cls(n, np.frombuffer(x.to_bytes(8 * nwords(n), "little"), dtype=np.uint64).copy())

    @classmethod
    def from_support(cls, n: int, support) -> "BinVector":
        v = cls(n)
        idx = np.asarray(list(support), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= n:
                raise ValueError("support index out of range")
            np.bitwise_xor.at(v.words, *bit_masks(idx))
        return v

    def to_bits(self) -> np.ndarray:
        return unpack_bits(self.words, self.n)[0]

    @property
    def weight(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.to_bits())

    def dot(self, other: "BinVector") -> int:
        return int(np.bitwise_count(self.words & other.words).sum()) & 1

    def is_zero(self) -> bool:
        return not self.words.any()

    def key(self) -> bytes:
        """Hashable canonical content, for set/dict membership."""
        return self.words.tobytes()

    def __xor__(self, other: "BinVector") -> "BinVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BinVector(self.n, self.words ^ other.words)

    def __eq__(self, other) -> bool:
        return isinstance(other, BinVector) and self.n == other.n and bool(
            np.array_equal(self.words, other.words)
        )

    def __repr__(self) -> str:
        return f"BinVector(n={self.n}, weight={self.weight})"


class BinMatrix:
    """A rows x cols matrix over GF(2) with bit-packed rows.

    Immutable by convention once built: elimination-style routines work
    on private copies, so instances can be shared freely across threads.
    The sparse row view and the default-order ``rref`` are cached on the
    instance the first time they are asked for.
    """

    __slots__ = ("rows", "cols", "words", "_csr", "_rref")

    def __init__(self, rows: int, cols: int, words: np.ndarray | None = None):
        self.rows = int(rows)
        self.cols = int(cols)
        if words is None:
            words = np.zeros((self.rows, nwords(self.cols)), dtype=np.uint64)
        self.words = words
        self._csr = None
        self._rref = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_dense(cls, arr) -> "BinMatrix":
        arr = np.atleast_2d(np.asarray(arr, dtype=np.uint8) & 1)
        r, c = arr.shape
        return cls(r, c, pack_bits(arr))

    @classmethod
    def from_rows(cls, vectors: list[BinVector]) -> "BinMatrix":
        if not vectors:
            raise ValueError("need at least one row")
        n = vectors[0].n
        m = cls(len(vectors), n)
        for i, v in enumerate(vectors):
            if v.n != n:
                raise ValueError("row length mismatch")
            m.words[i] = v.words
        return m

    # -- views ---------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        return unpack_bits(self.words, self.cols)

    def row(self, i: int) -> BinVector:
        return BinVector(self.cols, self.words[i].copy())

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Sparse rows, int64: row i's sorted columns are indices[indptr[i]:indptr[i + 1]].

        Read from one unpack of the packed rows; cached, shared and never written to.
        """
        if self._csr is None:
            width = self.words.shape[1] * WORD
            flat = np.flatnonzero(unpack_bits(self.words, width).view(bool))  # bool: ~6x uint8's speed
            self._csr = np.searchsorted(flat, np.arange(self.rows + 1) * width), flat % width
        return self._csr

    def transpose(self) -> "BinMatrix":
        """The transpose, by 8 x 8 bit-block swaps on whole bytes.

        The packed rows are read as bytes, 8192 columns at a time to
        bound the temporaries.  Each 8-row x 8-column block is gathered
        into one ``uint64`` (byte i = row i), transposed in place by
        three delta swaps, and scattered back so that byte j becomes
        column j.  No bit is unpacked to a byte.
        """
        rows8 = -(-self.rows // 8)  # row bytes of the output
        out = np.zeros((self.cols, nwords(self.rows)), dtype=np.uint64)
        out_bytes = out.view(np.uint8)
        chunk = 128  # words, so each slice starts at bit 0 of a word
        for lo in range(0, self.words.shape[1], chunk):
            # the slice, with zero rows up to a whole number of bytes
            part = np.zeros((rows8 * 8, min(chunk, self.words.shape[1] - lo)), dtype=np.uint64)
            part[: self.rows] = self.words[:, lo : lo + chunk]
            nbytes = part.shape[1] * 8
            # block (m, k): rows 8m..8m+7 of byte column k, row i in byte i
            x = np.ascontiguousarray(
                part.view(np.uint8).reshape(rows8, 8, nbytes).transpose(0, 2, 1)
            ).view(np.uint64)[..., 0]
            _transpose8x8(x)
            # byte j of block (m, k) is output row 8k+j, row byte m
            cols = x.view(np.uint8).reshape(rows8, nbytes * 8).T
            c0 = lo * WORD
            c1 = min(self.cols, c0 + nbytes * 8)
            out_bytes[c0:c1, :rows8] = cols[: c1 - c0]
        return BinMatrix(self.cols, self.rows, out)

    @property
    def nnz(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    # -- arithmetic ----------------------------------------------------

    def mul_vec(self, v: BinVector) -> BinVector:
        """Matrix-vector product Mv over GF(2)."""
        if v.n != self.cols:
            raise ValueError("dimension mismatch")
        par = np.bitwise_count(self.words & v.words[None, :]).sum(axis=1) & 1
        return BinVector.from_bits(par.astype(np.uint8))

    def mul_mat(self, other: "BinMatrix") -> "BinMatrix":
        """Matrix product M @ other over GF(2)."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = BinMatrix(self.rows, other.cols)
        indptr, indices = self.csr()
        # one XOR segment per nonempty row; empty rows stay zero
        filled = np.flatnonzero(np.diff(indptr))
        out.words[filled] = np.bitwise_xor.reduceat(other.words[indices], indptr[filled], axis=0)
        return out

    def stack(self, other: "BinMatrix") -> "BinMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return BinMatrix(
            self.rows + other.rows, self.cols, np.vstack([self.words, other.words])
        )

    def hstack(self, other: "BinMatrix") -> "BinMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return BinMatrix.from_dense(np.hstack([self.to_dense(), other.to_dense()]))

    def append_col(self, bits) -> "BinMatrix":
        """This matrix with one more column, whose entries are ``bits``."""
        bits = np.asarray(bits, dtype=np.uint64) & np.uint64(1)
        if bits.shape != (self.rows,):
            raise ValueError("length mismatch")
        words = np.zeros((self.rows, nwords(self.cols + 1)), dtype=np.uint64)
        words[:, : self.words.shape[1]] = self.words
        words[:, self.cols // WORD] |= bits << np.uint64(self.cols % WORD)
        return BinMatrix(self.rows, self.cols + 1, words)

    def append_row(self, v: BinVector) -> "BinMatrix":
        """This matrix with v as one more row, its ``csr`` pair extended from this one's."""
        if v.n != self.cols:
            raise ValueError("length mismatch")
        out = BinMatrix(self.rows + 1, self.cols, np.vstack([self.words, v.words[None, :]]))
        (indptr, indices), support = self.csr(), v.support
        out._csr = np.append(indptr, indptr[-1] + support.size), np.concatenate([indices, support])
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.words, other.words))
        )

    def __repr__(self) -> str:
        return f"BinMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    # -- elimination ---------------------------------------------------

    def rref(self, pivot_order: Sequence[int] | np.ndarray | None = None):
        """Reduced row echelon form, trying pivot columns in ``pivot_order``.

        ``pivot_order`` is a permutation of all the columns (default:
        left to right); a column becomes a pivot when it has a nonzero
        entry at or below the current row, and the lowest such row is
        swapped up, so the result is deterministic.  The row operations
        are those of the default elimination of the column-permuted
        matrix, so R equals that result with its columns mapped back.
        Each column of the order is tested on its own, against the rows
        at or below the current one, and the scan stops once every row
        holds a pivot.

        The default order's result is cached on the instance, so a
        matrix is eliminated once however often its rank, kernel, row
        space or RREF is asked for: the circuit-distance trials reduce
        each trial's OSD matrix [D; eta] from D's one RREF.  That R and
        its pivot list are shared by every caller: R's words are
        read-only, and neither may be written to.  An explicit
        ``pivot_order`` is eliminated afresh on every call.

        Returns:
            (R, pivot_cols): R is a BinMatrix in RREF; pivot_cols lists
            the pivot columns in the order they were picked, so row i of
            R has its pivot at pivot_cols[i] (its length is the rank).

        Raises:
            ValueError: ``pivot_order`` leaves out or repeats a column.
        """
        if pivot_order is None and self._rref is not None:
            return self._rref
        W = self.words.copy()
        rows = self.rows
        order = np.arange(self.cols) if pivot_order is None else np.asarray(pivot_order)
        if not np.array_equal(np.sort(order), np.arange(self.cols)):
            raise ValueError("pivot_order must be a permutation of the columns")
        word, mask = bit_masks(order)
        pivot_cols: list[int] = []
        pr = 0
        for i in range(order.size):
            if pr == rows:
                break
            below = W[pr:, word[i]] & mask[i]
            piv = int(below.argmax())  # set bits all equal the mask: the first one
            if not below[piv]:
                continue
            piv += pr
            if piv != pr:
                W[pr], W[piv] = W[piv], W[pr].copy()
            col = W[:, word[i]] & mask[i]
            col[pr] = 0
            flip = col.nonzero()[0]
            if flip.size:
                W[flip] ^= W[pr]
            pivot_cols.append(int(order[i]))
            pr += 1
        R = BinMatrix(rows, self.cols, W)
        if pivot_order is None:
            W.flags.writeable = False
            self._rref = R, pivot_cols
        return R, pivot_cols

    def rank(self) -> int:
        """GF(2) rank via Gaussian elimination."""
        return len(self.rref()[1])

    def nullspace_basis(self) -> list[BinVector]:
        """Basis of the right kernel {v : Mv = 0}, one vector per free column.

        The vector of free column f has a 1 at f and, back-substituted,
        R[i, f] at pivot column pivots[i]; free columns come ascending.
        """
        R, pivots = self.rref()
        free = np.setdiff1d(np.arange(self.cols), pivots)
        basis = np.zeros((free.size, self.cols), dtype=np.uint8)
        basis[np.arange(free.size), free] = 1
        basis[:, pivots] = R.to_dense()[: len(pivots), free].T
        return [BinVector.from_bits(v) for v in basis]

    def row_residue(self, v: BinVector) -> np.ndarray:
        """The words of v reduced modulo the row space, by the cached RREF.

        Each pivot column of R is zero outside its pivot row, so XORing
        into v the rows whose pivot bit v has set clears every pivot bit
        of v.  The result is zero exactly when v lies in the row space.
        """
        if v.n != self.cols:
            raise ValueError("length mismatch")
        R, pivot_cols = self.rref()
        words, masks = bit_masks(pivot_cols)
        picked = (v.words[words] & masks) != 0
        return v.words ^ np.bitwise_xor.reduce(R.words[: len(pivot_cols)][picked], axis=0)

    def in_rowspace(self, v: BinVector) -> bool:
        """True iff v is a GF(2) combination of the rows of M."""
        return not self.row_residue(v).any()

