"""Skew-symmetric matrix algebra for rotational noise.

Everything downstream is driven by an orthonormal basis of the space of
n x n skew-symmetric matrices, orthonormal under the inner product
<A, B> = tr(A B^T).  This module builds that basis, a plain (N, n, n)
array whose identities ``frameflow verify-algebra`` checks, provides the
matrix exponential onto the rotation group (scaling and squaring with a
truncated Taylor series), and samples rotations from the invariant
(Haar) distribution.  For n = 3 and 4 it also holds rotations as unit
quaternions written as SU(2) pairs of complex numbers: the Hamilton
product, the rotation vectors of a skew matrix's quaternion factors and
the closed-form rotation of a vector, which the group chain of
:mod:`perturbed_geodesic` runs on.

Matrices are plain float ndarrays; the exponential and the Haar sampler
accept stacked inputs (..., n, n) and operate on the trailing two axes.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

SKEW_TOL = 1e-12

# Bytes of arrays one engine call, or one chunk of Haar samples, may hold
# (see perturbed_geodesic.path_batches and group_process.haar_moment_stats).
BATCH_BYTES = 16 << 20

# Largest dimension accepted: the largest n whose dense canonical basis,
# n(n-1)/2 matrices of n x n doubles or 4 n^3 (n - 1) bytes, fits in
# BATCH_BYTES (16.8e6 B).  n = 45 needs 16.0e6 B and n = 46 needs 17.5e6 B.
MAX_DIM = 45

# Squaring threshold of the exponential's series.  Below this
# spectral scale the Taylor series cut after 16 terms is exact to double
# precision: the first omitted term is below 0.5^17 / 17! < 1e-19.
_EXP_SERIES_RADIUS = 0.5
_EXP_SERIES_TERMS = 16


def skewness_defect(a: np.ndarray) -> float:
    """Largest entry of A + A^T; zero for an exactly skew matrix."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a + np.swapaxes(a, -1, -2))))


def orthogonality_defect(g: np.ndarray) -> float:
    """Largest entry of g^T g - I over a (stack of) matrices."""
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    gram = np.einsum("...ji,...jk->...ik", g, g)
    return float(np.max(np.abs(gram - np.eye(n))))


def rotation_defect(g: np.ndarray) -> float:
    """Max of the orthogonality defect and |det g - 1|."""
    g = np.asarray(g, dtype=float)
    return max(orthogonality_defect(g), float(np.max(np.abs(np.linalg.det(g) - 1.0))))


def gram_defect(mats: np.ndarray) -> float:
    """Largest entry of tr(A_i A_j^T) - delta_ij over a stack of matrices
    (N, n, n); zero for an orthonormal set."""
    mats = np.asarray(mats, dtype=float)
    flat = mats.reshape(len(mats), -1)
    gram = flat @ flat.T
    return float(np.max(np.abs(gram - np.eye(len(mats)))))


def check_dim(n: int) -> int:
    """``n`` if 2 <= n <= MAX_DIM, else :class:`ConfigError`, raised before
    anything of size n is allocated.  For n = 1 the skew space is trivial
    and none of the rotational-noise constructions apply."""
    if not 2 <= n <= MAX_DIM:
        raise ConfigError(f"dimension must be between 2 and {MAX_DIM}, got {n}")
    return n


def canonical_basis(n: int) -> np.ndarray:
    """The basis {(E_ij - E_ji)/sqrt(2) : i < j} in lexicographic order, an
    (N, n, n) array, for 2 <= n <= MAX_DIM (see :func:`check_dim`); its
    identities are checked by ``frameflow verify-algebra``."""
    check_dim(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = np.zeros((len(pairs), n, n))
    for k, (i, j) in enumerate(pairs):
        mats[k, i, j] = 1.0 / np.sqrt(2.0)
        mats[k, j, i] = -1.0 / np.sqrt(2.0)
    return mats


def casimir_sum(mats: np.ndarray) -> np.ndarray:
    """Sum of squares sum_k A_k^2 of a stack of matrices (N, n, n).

    For an orthonormal skew basis this is -((n-1)/2) I, the identity that
    makes the rotational generator a scalar multiple of the identity on
    linear statistics; :func:`gram_defect` says whether a stack is one.
    """
    return np.einsum("kab,kbc->ac", mats, mats)


def group_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a (stack of) skew-symmetric matrices, by
    scaling and squaring with a truncated Taylor series.  The result is
    orthogonal with unit determinant up to rounding.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise ValueError(f"expected square trailing axes, got {a.shape}")
    return _exp_skew_series(a)


def _exp_skew_series(a: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    b = a.reshape(-1, n, n)
    # Each matrix is scaled down to spectral radius <= _EXP_SERIES_RADIUS
    # by its own squaring count (the Frobenius norm bounds the spectral
    # norm), and every series has the same length, so a result never
    # depends on the other matrices of its batch.
    norm = np.sqrt(np.sum(b * b, axis=(-1, -2)))
    squarings = np.maximum(0, np.ceil(np.log2(np.maximum(norm, 1e-300) / _EXP_SERIES_RADIUS)))
    b = b / (2.0**squarings)[:, None, None]
    out = np.broadcast_to(np.eye(n), b.shape).copy()
    term = out.copy()
    for m in range(1, _EXP_SERIES_TERMS + 1):
        term = (term @ b) / m
        out += term
    for k in range(int(np.max(squarings, initial=0))):
        out = np.where((squarings > k)[:, None, None], out @ out, out)
    return out.reshape(a.shape)


def project_rotation(g: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix via the polar decomposition (batched).

    Used as periodic drift control on long simulated group paths; the sign
    fix on the smallest singular direction keeps the determinant at +1.
    """
    g = np.asarray(g, dtype=float)
    single = g.ndim == 2
    gs = g[None] if single else g
    u, _, vt = np.linalg.svd(gs)
    out = u @ vt
    det = np.linalg.det(out)
    flip = det < 0
    if np.any(flip):
        u = u.copy()
        u[flip, :, -1] *= -1.0
        out = u @ vt
    return out[0] if single else out


def haar_sample(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Rotation matrices distributed per the normalized Haar measure on SO(n).

    QR of an i.i.d. standard-normal matrix, with the R-diagonal sign fixed
    so the factorization is unique (that makes Q Haar on O(n)); samples
    landing in the det = -1 component are mapped into SO(n) by negating the
    first column, a measure-preserving bijection between the components.

    ``size=None`` returns one (n, n) matrix, otherwise a (size, n, n) stack.
    """
    check_dim(n)
    squeeze = size is None
    count = 1 if squeeze else int(size)
    z = rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    signs = np.sign(np.einsum("...ii->...i", r))
    signs[signs == 0] = 1.0
    q = q * signs[..., None, :]
    det = np.linalg.det(q)
    q[det < 0, :, 0] *= -1.0
    return q[0] if squeeze else q


# Unit quaternions as SU(2) pairs: q = w + x i + y j + z k is held as the
# complex pair (a, b) = (w + i x, y + i z), so that q = a + b j, and R^4 = H
# has the coordinates (w, x, y, z).  As j z = conj(z) j, the Hamilton
# product of (a, b) and (c, d) is (a c - b conj(d), a d + b conj(c)): four
# complex multiplies (Conway & Smith, On Quaternions and Octonions, 2003,
# ch. 4).

def _pair_product(q: np.ndarray, e: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = q e for quaternion pairs q and e (2, ...); ``out`` may be ``e``,
    and ``tmp`` (2, 2, ...) is workspace.

    No multiply writes over one of its inputs: numpy rounds an in-place
    complex multiply differently from one into a fresh array, which would
    make a path depend on the width of its batch.
    """
    conj, prod = tmp
    np.conjugate(e, out=conj)
    np.multiply(q[1], conj[1], out=prod[0])
    np.multiply(q[1], conj[0], out=prod[1])
    np.multiply(q[0], e[0], out=conj[0])
    np.multiply(q[0], e[1], out=conj[1])
    np.subtract(conj[0], prod[0], out=out[0])
    np.add(conj[1], prod[1], out=out[1])


def _multiply(p, e) -> np.ndarray:
    """Hamilton product p e of quaternion pairs (2, ...), allocating its result;
    a pair with fewer axes is constant along the other's trailing ones."""
    p, e = (np.asarray(x, dtype=complex) for x in (p, e))
    dims = max(p.ndim, e.ndim)
    p, e = (x.reshape(x.shape + (1,) * (dims - x.ndim)) for x in (p, e))
    out = np.empty((2,) + np.broadcast_shapes(p.shape[1:], e.shape[1:]), dtype=complex)
    out[...] = e
    _pair_product(p, out, out, np.empty((2,) + out.shape, dtype=complex))
    return out


def _as_pair(v) -> np.ndarray:
    """Quaternion pairs (2, ...) of points (4, ...) of R^4 = H."""
    v = np.asarray(v, dtype=float)
    return np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])


def _as_vector(q: np.ndarray) -> np.ndarray:
    """Points (4, ...) of R^4 = H of quaternion pairs q (2, ...)."""
    return np.array([q[0].real, q[0].imag, q[1].real, q[1].imag])


def _pair_vectors(x: np.ndarray) -> np.ndarray:
    """Rotation vectors (K, 3) of the SU(2) factors of a skew n x n matrix x.

    n = 3 (K = 1): the w with x v = w cross v, so that exp(x) v = q v
    conj(q) for the unit quaternion q of rotation vector w.  n = 4 (K = 2):
    x v = a v + v b on R^4 = H, with a_m = <x, L_m> / 4 and b_m = <x, R_m>
    / 4 for the matrices L_m, R_m of v -> u v and v -> v u, u = i, j, k
    (orthogonal, of norm 2, and commuting), so exp(x) v = e^a v e^b; the
    vectors are 2a and -2b, the rotation vectors of e^a and e^-b.
    """
    if x.shape == (3, 3):
        return np.array([[x[2, 1], x[0, 2], x[1, 0]]])
    basis = _as_pair(np.eye(4))
    units = basis[:, 1:].T
    left = np.array([_as_vector(_multiply(u, basis)) for u in units])
    right = np.array([_as_vector(_multiply(basis, u[:, None])) for u in units])
    return np.array([0.5 * np.einsum("ij,mij->m", x, left),
                     -0.5 * np.einsum("ij,mij->m", x, right)])


def _rotate(q, v) -> list:
    """Components of R(q) v for unit quaternion pairs q = (a, b) (2, ...)
    and a fixed 3-vector v.

    The columns of R(q) are (|a|^2 - |b|^2, 2 Im ab, -2 Re ab),
    (2 Im a conj(b), Re(a^2 + b^2), Im(a^2 + b^2)) and (2 Re a conj(b),
    Im(b^2 - a^2), Re(a^2 - b^2)); only those v needs are formed.
    """
    a, b = q
    out = [0.0, 0.0, 0.0]
    if v[0]:
        ab = a * b
        out = [v[0] * (a.real**2 + a.imag**2 - b.real**2 - b.imag**2),
               (2.0 * v[0]) * ab.imag, (-2.0 * v[0]) * ab.real]
    if v[1] or v[2]:
        cross, plus, minus = a * np.conj(b), a * a + b * b, a * a - b * b
        out[0] = out[0] + (2.0 * v[1]) * cross.imag + (2.0 * v[2]) * cross.real
        out[1] = out[1] + v[1] * plus.real - v[2] * minus.imag
        out[2] = out[2] + v[1] * plus.imag + v[2] * minus.real
    return out
