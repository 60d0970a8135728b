"""Distance-matrix analysis of clique subgraphs.

The detection primitive: square the measured ranges of a fully connected
subgraph into a distance matrix D, center it,

    G = -1/2 * J D J,      J = I - (1/n) 1 1^T,

and inspect the singular values of G.  For exact ranges of points in 3D,
G has rank 3; a biased satellite raises the 4th and 5th singular values,
so the ratio

    gamma_test = (s4 + s5) / s1

separates faulted from fault-free subgraphs, and the largest-magnitude
entry of the 4th left singular vector points at the faulty vertex.

G is symmetric, so its singular values are the magnitudes |lambda| of its
eigenvalues and its left singular vectors are its eigenvectors.  The
analysis therefore runs a symmetric eigensolver and orders each spectrum
by |lambda|, descending; no SVD is computed.  Readers of singular values
alone (calibration, training targets) run the values-only eigvalsh
(spectrum), which computes no eigenvector and sorts the magnitudes
themselves; readers of vectors (the vote, the predictor features that
batch_features reads for detector and training set) run eigh, order it
by magnitude_order and keep u1-u4.  Every function works on a stack of
cliques: cliques are an (m, k) integer array of satellite ids, and a
single clique is a batch of one, so the Monte-Carlo hot loops run one
stacked LAPACK call per epoch (detect) or per chunk of whole epochs (a
campaign trial, analyze_blocks).  build_edm squares the call's
range matrix once and gathers every clique's block from it with one flat
take, which gives the same bits as gathering the ranges and squaring
them (squaring rounds each entry alone).

A certificate spares the eigensolver the 6-cliques whose flags and vote it
can prove, and a screen the training draws whose gamma_test no percentile
reads.  Each bounds gamma_test with stacked products and solves what it
cannot decide, so every value read has its unscreened bits and every
decision read is the unscreened one.  Neither forms G.  J projects onto
the complement of the all-ones vector 1, so G = V M V^T for any
orthonormal basis V (6x5) of that complement, with M = V^T G V =
-1/2 V^T D V, and G's spectrum is M's and G's 0 on 1.  D is symmetric with
a zero diagonal, so both read only its entries d_ij of the pairs i < j:
each entry of M is the 15-term sum M_ab = sum_{i<j} t_ij d_ij over the
folded table t_ij = -1/2 (V_ia V_jb + V_ja V_ib) (_fold), and |D|_F =
sqrt(2 sum_{i<j} d_ij^2).  Both bound s4 + s5 by the eigenvalues mu1, mu2
of a symmetric block of rank <= 2, trace t and Frobenius norm f:
|mu1| + |mu2| = max(|t|, d) and max |mu_i| = (|t| + d) / 2 for
d = |mu1 - mu2| = sqrt(2 f^2 - t^2) (_pair_magnitudes).  Both allow tau,
_ROUNDING times a Frobenius norm, for the rounding they do not compute
(the eigensolver's backward error, the asymmetry of the computed G, their
own products), and widen the result by _WIDEN.

The certificate (_settle): a threshold t reads only whether gamma_test > t,
and the vote only which entry of |u4| is largest, so
analyze_clique_batch(..., thresholds=ts), on 6-cliques only, solves just
the rows whose flag at some t of ts, or whose vote when some t flags them,
the certificate cannot prove, and returns no singular values or vectors,
which no threshold reads.  Its basis is one fixed H (_COMPLEMENT): columns
2-6 of the complete QR of 1 / sqrt(6) alone (bound_basis).  It gathers
each clique's 15 d_ij (squared_pairs, one flat take) and folds them into
M = H^T G H with one product by H's table (_CERTIFICATE_FOLD, the 15
entries expanded to the 5x5); only the rows it leaves are mirrored back to
their 6x6 D (ranging.mirror_pairs), centred and solved.  It reads each
pair once, so it refuses a range matrix that is not exactly symmetric
(_check_symmetric, naming the first asymmetric pair), for which the rows
it settles and the rows eigh solves would describe different matrices;
measure_ranges, add_biases and analyze_blocks' stacks are symmetric.
It works in a Nystrom basis of M (_nystrom_basis): U from one subspace
step M P on three fixed probes P (_PROBES), orthonormalised by
Cholesky-QR, A = U^T M U = L L^T, C = L^-1 U^T M and R = M - C^T C, with
tau = _ROUNDING (|M|_F + |C|_F^2) + _FOLD_GAP |D|_F.  It argues in exact
arithmetic on M; tau covers the distance from the matrix eigh solves to
H M H^T (below).  Let U~ and W be orthonormal bases of span(U) and of its
complement (two columns), and A' = U~^T M U~, B = U~^T M W,
C' = W^T M W.  R vanishes on U, so R = W S W^T for
S = C' - B^T A'^-1 B, the Schur complement of A' in [U~, W]^T M [U~, W]:
S's eigenvalues sigma1, sigma2 are R's nonzero pair, known from tr(R) and
|R|_F (_pair_magnitudes; within sqrt(5) tau and tau).  For
|z| <= rho < a = lambda_min(A'), M has as many eigenvalues below z as
S(z) = C' - B^T (A' - z)^-1 B has (E. V. Haynsworth, "Determination of
the inertia of a partitioned Hermitian matrix", Linear Algebra Appl.
1968), and S(z) is within |z| phi of S, phi = |F|^2 / (a - rho),
F = A'^-1/2 B.  So if max |sigma_i| < rho (1 - phi), M has two
eigenvalues within |sigma_i| phi / (1 - phi) of sigma_i and three of at
least rho: s4 + s5 is |sigma1| + |sigma2| to that relative margin.  rho is
a / 2, a >= 1 / (|L^-1|_F^2 (1 + omega)) for omega = |U^T U - I|_F, and
|F| = |C W| <= |L^-1|_F |E|_F for E = (I - P_U) M U, which is M U - U A
to within 2 omega |A|_F.  s1 is lambda_max(A') to within
|B| <= sqrt(lambda_max(A')) |F| (interlacing and Weyl), lambda_max(A') is
A's to a factor 1 +- omega (Ostrowski), and A's is enclosed by the signs
of its characteristic polynomial (_top_eigenvalue).  That gives
lo <= gamma_test <= hi; a row's flags are proved when no t of ts has
lo <= t < hi, and its gamma_test is then a value in [lo, hi].  For the
vote, read only where some t flags the row, x is R's eigenvector of
sigma, the one of sigma1, sigma2 of larger magnitude, less its part
U A^-1 U^T M x that couples to span(U), normalised.  By the Davis-Kahan
sin theta theorem (C. Davis & W. M. Kahan, SIAM J. Numer. Anal. 1970) it
is within eps = sqrt(2) (|M x - sigma x| + 2 tau) / delta of M's
eigenvector, delta the distance from sigma to M's other eigenvalues and
G's 0 by the enclosures above, so H x, in the clique's coordinates, is
within eps of u4, to H's rounding.  The vote is proved when sigma's
eigenvalue is 4th by |lambda| with margin and the top two entries of
|H x| differ by more than 2 eps.  On campaign and detect rows the
certificate settles about 99.9% of the rows; eigh solves the rest.

The fold's allowance.  With u = eps / 2, the G that eigh solves
(geometric_center's rounded -1/2 J D J, read by its lower triangle) is
within about 20 u |D|_F of the exact G: two 6-term products by J, whose
entries' magnitudes sum to 5/3 in each row, and J's own rounding.  The
folded M is within about 29 u |D|_F of d T for H's table T (15-term sums;
sum t_ij^2 <= 1/2 per diagonal entry of M and <= 1/4 per other entry for
orthonormal columns, so |T|_F^2 <= 15/2, and |d| = |D|_F / sqrt(2)), T's
own three roundings add 5 u |D|_F, and H, within 1.2 eps of orthonormal
and of orthogonal to 1, is within 2 eps of an exact basis H* of the
complement of 1, which adds 4 u |D|_F.  So the G that eigh solves is
within about 58 u |D|_F (29 eps) of H* M H*^T, whose spectrum is the
folded M's and 0, and every eigenvalue moves by at most that (Weyl);
_FOLD_GAP |D|_F, 128 eps |D|_F, covers it with room for the higher-order
terms.

The training-target screen (top_gammas): a target is a tail percentile of
a geometry's noise draws and reads only the top few ranks.  The noiseless
centred matrix G0 has rank 3; V (bound_basis) holds its top three
eigenvectors and two vectors spanning the rest of its null space, all
orthogonal to the all-ones vector, so a draw's G has the spectrum of
M = V^T G V, folded from the draw's 15 d_ij by V's table, plus 0.
Split M = [[A, B], [B^T, C]] (A 3x3, C 2x2) and let tau = _ROUNDING |D|_F.
If Gershgorin's lower bound a_lo on
eig(A) exceeds both eigenvalues mu1, mu2 of C by eta = a_lo - max |mu_i| -
2 tau > 0, the quadratic residual bound (R. Mathias, SIAM J. Matrix Anal.
Appl. 1998; C.-K. Li & R.-C. Li, Linear Algebra Appl. 2005) puts each
eigenvalue of M within eps = |B|_F^2 / eta + 3 tau of its sorted
counterpart in eig(A) u {mu1, mu2}.  So s4 + s5 lies within 2 eps of
|mu1| + |mu2| and s1 within eps of [max diag A, Gershgorin's top of A],
which gives lo <= gamma_test <= hi (lo = 0 and hi = inf where eta or the
bound on s1 is not positive).  With L a geometry's keep-th largest lo,
keep draws have gamma_test >= L and a draw with hi < L has gamma_test < L,
so the draws with hi >= L hold every one of the top keep ranks.  The
computed M is within tau of the exact one: sum_{i<j} t_ij^2 <= 1/2 for
orthonormal columns of V, so a 15-term sum whose table entries carry three
roundings each errs by at most about 18 eps |D|_F / 2, some 1e-15 |D|_F.
The draws that are solved are mirrored back to their 6x6 matrices
(ranging.mirror_pairs) and solved as every other matrix is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cliques import CLIQUE_SIZE
from .ranging import RangeMatrix, mirror_pairs, pair_rows


class MissingEdgeError(ValueError):
    """A clique reads a pair with no positive range: the pair is unmeasured
    (a stale schedule), or its noise is larger than its range."""


def _squares(ranges: RangeMatrix, cliques: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The squared ranges at flat, an (m, ...) stack of indices into the
    flattened (row-major) range matrix, row c read by cliques[c]; the
    diagonal reads 0.  Raises MissingEdgeError, naming the first such
    clique, if a read off-diagonal range is <= 0, else a ValueError,
    naming the first such clique, if a read square is not finite."""
    r = ranges.r
    n = len(r)
    with np.errstate(over="ignore"):
        squared = r * r
    # One check of both faults: a range <= 0, or a square that is NaN or inf.
    good = (r > 0.0) & (squared < np.inf)
    good.flat[::n + 1] = True
    read = good.take(flat)
    if not read.all():
        def first(hits):
            return cliques[hits.reshape(len(cliques), -1).any(axis=1).argmax()].tolist()

        unmeasured = r <= 0.0
        unmeasured.flat[::n + 1] = False
        missing = unmeasured.take(flat)
        if missing.any():
            raise MissingEdgeError(f"clique {first(missing)} has a range <= 0: the pair is "
                                   f"unmeasured, or its noise is larger than its range")
        raise ValueError(f"clique {first(~read)} has a range whose square is not finite")
    squared.flat[::n + 1] = 0.0
    return squared.take(flat)


def build_edm(ranges: RangeMatrix, cliques: np.ndarray) -> np.ndarray:
    """Squared measured ranges (m^2) of each clique, (m, k, k), zero diagonals.

    The members of a clique are distinct satellite ids.  The range matrix
    is squared once (diagonal zeroed), and every clique's block is one
    flat take from it.  Raises MissingEdgeError, naming the first such
    clique, if any clique pair has no positive range (range <= 0
    off-diagonal): the clique schedule is stale for this epoch's topology,
    or the pair's noise is larger than its range; otherwise a ValueError,
    naming the first such clique, if a pair's squared range is not finite
    (a NaN range, or one beyond about 1.3e154 m).
    """
    # Entry (c, i, j) of flat is the index of r[cliques[c, i], cliques[c, j]]
    # in r's flattened (row-major) storage.
    flat = cliques * len(ranges.r)
    return _squares(ranges, cliques, flat[:, :, None] + cliques[:, None, :])


def squared_pairs(ranges: RangeMatrix, cliques: np.ndarray) -> np.ndarray:
    """(m, k(k-1)/2) squared measured ranges d_ij of each clique's pairs
    i < j, in pair_rows order: the upper triangles of build_edm, one flat
    take, under its range rule."""
    i, j = pair_rows(cliques.shape[1])
    return _squares(ranges, cliques, cliques[:, i] * len(ranges.r) + cliques[:, j])


def _check_symmetric(r: np.ndarray) -> None:
    """Refuse a range matrix that is not exactly symmetric (a NaN matches a
    NaN), naming its first asymmetric pair i < j in row-major order."""
    if np.array_equal(r, r.T):
        return
    apart = (r != r.T) & ~(np.isnan(r) & np.isnan(r.T))
    if apart.any():
        i, j = np.argwhere(np.triu(apart))[0]
        raise ValueError(f"an analysis under thresholds reads each pair once, so the range "
                         f"matrix must be symmetric; r[{i}, {j}] = {float(r[i, j])!r} but "
                         f"r[{j}, {i}] = {float(r[j, i])!r}")


def centering_matrix(n: int) -> np.ndarray:
    """J = I - (1/n) 1 1^T."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def geometric_center(d: np.ndarray) -> np.ndarray:
    """G = -1/2 J D J over the last two axes of a (..., k, k) stack.

    Each G is symmetric with zero row and column sums.
    """
    j = centering_matrix(d.shape[-1])
    return -0.5 * (j @ d @ j)


def canonicalize_signs(u: np.ndarray) -> np.ndarray:
    """Deterministic sign convention for singular vectors (columns).

    Eigenvector signs are arbitrary; each column is flipped so its
    largest-magnitude entry (first on ties) is positive.  Zero columns are
    left untouched.  Accepts a single (n, m) matrix or a stacked (..., n, m)
    array.
    """
    u = np.array(u, copy=True)
    mags = np.abs(u)
    lead = np.argmax(mags, axis=-2)
    lead_vals = np.take_along_axis(u, lead[..., None, :], axis=-2)[..., 0, :]
    flip = np.where(lead_vals < 0.0, -1.0, 1.0)
    return u * flip[..., None, :]


@dataclass(frozen=True)
class BatchAnalysis:
    """Stacked analyses of m cliques against one range matrix, in one of
    three shapes.  Full (analyze_clique_batch(...)): every field, with
    u1-u4 only in left_vectors (the vote reads u4, the predictor features
    u1-u3).  Values only (vectors=False): None for left_vectors and
    fault_vertex_local.  Thresholded (thresholds=ts, 6-cliques only): None
    for singular_values and left_vectors; a row eigh solved has its
    unthresholded gamma_test and vote, and a row the certificate settled a
    gamma_test that each t of ts flags exactly when it flags the solved
    one and, when some t flags it, the solved vote (else vertex 0, which
    no reader reads).
    """

    cliques: np.ndarray           # (m, k) satellite ids
    singular_values: np.ndarray | None  # (m, k) descending per row
    left_vectors: np.ndarray | None  # (m, k, 4): u1-u4 as columns
    gamma_test: np.ndarray        # (m,)
    fault_vertex_local: np.ndarray | None  # (m,) argmax |u4| per clique, first on ties


def batch_features(batch: BatchAnalysis) -> np.ndarray:
    """Predictor feature rows [s1, s2, s3, u1^T, u2^T, u3^T], (m, 21) for
    6-cliques; u1-u3 are sign-canonicalized, so a row depends on the
    subgraph alone, not on the eigensolver's sign choices."""
    u = canonicalize_signs(batch.left_vectors[:, :, :3]).transpose(0, 2, 1)
    return np.concatenate([batch.singular_values[:, :3], u.reshape(-1, 3 * u.shape[2])], axis=1)


def gamma_from_spectrum(s: np.ndarray) -> np.ndarray:
    """gamma_test = (s4 + s5) / s1 over the last axis of descending singular values.

    Defined as 0 when s1 = 0 (an all-zero matrix should never flag a fault).
    """
    lead = s[..., 0]
    return np.divide(
        s[..., 3] + s[..., 4], lead, out=np.zeros(lead.shape), where=lead > 0.0
    )


def magnitude_order(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices that sort each row of eigenvalues by |lambda|, descending.

    The sort is stable, so equal magnitudes keep eigh's ascending order.
    """
    return np.argsort(-np.abs(eigenvalues), axis=-1, kind="stable")


def spectrum(g: np.ndarray) -> np.ndarray:
    """Singular values |lambda| of each matrix of a (..., k, k) stack of
    centred matrices, descending; one eigvalsh, no eigenvectors.

    The magnitudes are sorted themselves: eigenvalues that magnitude_order
    would tie have equal |lambda|, so the values equal the |lambda| that
    magnitude_order puts in each place.
    """
    s = np.abs(np.linalg.eigvalsh(g))
    s.sort(axis=-1)
    return s[..., ::-1]


# Allowance, per unit of the Frobenius norm a bound scales it by, for the
# rounding the bound does not compute: the eigensolver's backward error,
# the asymmetry of the computed G and the rounding of the bound's own
# products; each is a few hundred eps at most.
_ROUNDING = 1e-12
# Allowance, per unit of |D|_F, for the distance from the G that eigh solves
# to H M H^T of the M that the certificate folds: about 29 eps to first
# order (module docstring).
_FOLD_GAP = 128.0 * np.finfo(float).eps
# Relative widening of a bound, for the rounding of its last sums and
# divisions and of gamma_test's own.
_WIDEN = 1e-9
# The upper triangle of a 5x5 matrix M = V^T G V, as (row, column) pairs:
# A's diagonal, A's off-diagonal, B, C's diagonal and C's off-diagonal, where
# A is rows/columns 0-2 and C is 3-4 (the layout _gamma_bounds reads).
_M_ROWS, _M_COLS = np.array([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2),
                             (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4),
                             (3, 3), (4, 4), (3, 4)]).T


def bound_basis(lead: np.ndarray) -> np.ndarray:
    """(..., k, k - 1) orthonormal bases of the complement of the all-ones
    vector, from (..., k, p) vectors: columns 2-k of one complete QR of
    [1/sqrt(k), lead].  For the training-target screen, lead is u1-u3 of
    each geometry's noiseless centred matrix, (m, 6, 3), and the basis V is
    u1-u3 without their rounding-sized component along 1 (up to sign) and
    the rest of the null space.
    """
    ones = np.full(lead.shape[:-1] + (1,), 1.0 / math.sqrt(lead.shape[-2]))
    return np.linalg.qr(np.concatenate([ones, lead], axis=-1), mode="complete")[0][..., 1:]


def _fold(basis: np.ndarray) -> np.ndarray:
    """(..., 15, 15) folded tables of M = V^T G V = -1/2 V^T D V for bases V,
    (..., 6, 5), orthogonal to the all-ones vector: entry (e, p) is
    -1/2 (V_ia V_jb + V_ja V_ib), the weight of pair p = (i, j) of
    pair_rows in entry e = (a, b) of _M_ROWS, _M_COLS."""
    i, j = pair_rows(basis.shape[-2])
    vi, vj = basis[..., i, :], basis[..., j, :]
    return -0.5 * (vi[..., _M_ROWS] * vj[..., _M_COLS]
                   + vj[..., _M_ROWS] * vi[..., _M_COLS]).swapaxes(-1, -2)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# The certificate's fixed basis H of the complement of 1 in R^6 (bound_basis
# of no vectors), (6, 5), and its table (15, 25): one product of a clique's
# 15 squared pair ranges with it is the row-major M = H^T G H.
_COMPLEMENT = _read_only(bound_basis(np.zeros((CLIQUE_SIZE, 0))))
_M_ENTRY = np.empty((5, 5), dtype=np.intp)
_M_ENTRY[_M_ROWS, _M_COLS] = _M_ENTRY[_M_COLS, _M_ROWS] = np.arange(len(_M_ROWS))
_CERTIFICATE_FOLD = _read_only(np.ascontiguousarray(_fold(_COMPLEMENT)[_M_ENTRY.ravel()].T))
# Three fixed probe vectors, (5, 3), in H's coordinates (no centring: that
# space holds no all-ones vector to avoid).
_PROBES = _read_only(np.cos(np.outer(np.arange(1.0, CLIQUE_SIZE), [1.0, 2.0, 3.0])))


def _carve(work: np.ndarray, *shapes: tuple) -> list[np.ndarray]:
    """Consecutive views of the flat array work, one of each shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(work[start:start + size].reshape(shape))
        start += size
    return views


def _cholesky_inverse(s: np.ndarray) -> np.ndarray:
    """L^-1 for the lower Cholesky factor L of each symmetric matrix of an
    (m, 3, 3) stack; NaN where s is not positive definite."""
    m = len(s)
    s00, _, _, s10, s11, _, s20, s21, s22 = np.ascontiguousarray(s.reshape(m, 9).T)
    inv = np.zeros((9, m))
    i00, _, _, i10, i11, _, i20, i21, i22 = inv
    l00 = np.sqrt(s00)
    l10 = s10 / l00
    l20 = s20 / l00
    l11 = np.sqrt(s11 - l10 * l10)
    l21 = (s21 - l20 * l10) / l11
    np.divide(1.0, l00, out=i00)
    np.divide(1.0, l11, out=i11)
    np.divide(1.0, np.sqrt(s22 - l20 * l20 - l21 * l21), out=i22)
    np.multiply(-l10 * i00, i11, out=i10)
    np.multiply(-l21 * i11, i22, out=i21)
    np.multiply(-(l20 * i00 + l21 * i10), i22, out=i20)
    return np.ascontiguousarray(inv.T).reshape(m, 3, 3)


def _pair_magnitudes(t: np.ndarray, spread: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|mu1| + |mu2| and max |mu_i| for the eigenvalues mu1, mu2 of symmetric
    blocks of rank at most 2, from their traces t = mu1 + mu2 and spreads
    |mu1 - mu2| = sqrt(2 f^2 - t^2), f the Frobenius norm."""
    t = np.abs(t)
    return np.maximum(spread, t), 0.5 * (t + spread)


def _nystrom_basis(d: np.ndarray) -> tuple[np.ndarray, ...]:
    """(M, U^T, U, U^T M, A, L^-1, C, R, tau) of each row of an (m, 15) stack
    of squared pair ranges: M = H^T G H, folded from the row, and the
    certificate's Nystrom basis products in H's coordinates (the module
    docstring); NaN rows where a Cholesky factor fails."""
    m, k = len(d), len(_PROBES)
    # One workspace for the stacked temporaries, each written with out=:
    # M, R, U^T, U, U^T M, C, A (Y^T and Y^T Y in the last two until they
    # are written), and Y, whose block then holds C^T.
    g, r, ut, u, ugt, c, a, y = _carve(
        np.empty(m * (2 * k * k + 15 * k + 9)), (m, k, k), (m, k, k), (m, 3, k), (m, k, 3),
        (m, 3, k), (m, 3, k), (m, 3, 3), (m, k, 3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.matmul(d, _CERTIFICATE_FOLD, out=g.reshape(m, k * k))
        np.matmul(g.reshape(m * k, k), _PROBES, out=y.reshape(m * k, 3))
        yt = c
        np.copyto(yt, y.transpose(0, 2, 1))
        np.matmul(_cholesky_inverse(np.matmul(yt, y, out=a)), yt, out=ut)
        np.matmul(ut, g, out=ugt)
        np.copyto(u, ut.transpose(0, 2, 1))
        # The Cholesky factor reads A's lower triangle only.
        np.matmul(ugt, u, out=a)
        a_inv = _cholesky_inverse(a)
        np.matmul(a_inv, ugt, out=c)
        ct = y
        np.copyto(ct, c.transpose(0, 2, 1))
        np.subtract(g, np.matmul(ct, c, out=r), out=r)
        gf = g.reshape(m, k * k)
        cf = c.reshape(m, 3 * k)
        # |D|_F = sqrt(2 sum_{i<j} d_ij^2).
        tau = (_ROUNDING * (np.sqrt(np.vecdot(gf, gf)) + np.vecdot(cf, cf))
               + _FOLD_GAP * np.sqrt(2.0 * np.vecdot(d, d)))
    return g, ut, u, ugt, a, a_inv, c, r, tau


def _top_eigenvalue(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, estimate) of the largest eigenvalue of each symmetric matrix
    of an (m, 9) stack of flattened 3x3s; NaN bounds where it cannot
    certify them.

    The estimate is the trigonometric root of the characteristic polynomial
    h(x) = x^3 - 3 p2 x - det(B) of B = A - q I (q = trace(A) / 3, p2 =
    |B|_F^2 / 6), whose roots are A's eigenvalues less q and whose largest
    root is at least p = sqrt(p2), the larger zero of h'.  So a point x with
    h(x) < 0 lies below the largest root, and a point x >= p with h(x) > 0
    lies above it.  Each sign is taken only beyond _ROUNDING s^3, s = |q| +
    3 p, an allowance for the rounding of B and of h, at points
    sqrt(_ROUNDING) s either side of the estimate: that certifies every
    largest eigenvalue that stands about 1e-6 s clear of the next.
    """
    a00, a01, a02, _, a11, a12, _, _, a22 = np.ascontiguousarray(a.T)
    q = (a00 + a11 + a22) / 3.0
    b0, b1, b2 = a00 - q, a11 - q, a22 - q
    p2 = (b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0
    det = (b0 * (b1 * b2 - a12 * a12) - a01 * (a01 * b2 - a12 * a02)
           + a02 * (a01 * a12 - b1 * a02))
    p = np.sqrt(p2)
    root = 2.0 * p * np.cos(np.arccos(np.clip(det / (2.0 * p2 * p), -1.0, 1.0)) / 3.0)
    scale = np.abs(q) + 3.0 * p
    allowance = _ROUNDING * scale ** 3
    below = root - math.sqrt(_ROUNDING) * scale
    above = root + math.sqrt(_ROUNDING) * scale
    lo = np.where((below * below - 3.0 * p2) * below - det < -allowance, q + below, np.nan)
    hi = np.where((above > p) & ((above * above - 3.0 * p2) * above - det > allowance),
                  q + above, np.nan)
    return lo, hi, q + root


def _settle(
    d: np.ndarray, thresholds: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(settled, gamma, vote) of each 6-clique of an (m, 15) stack of
    squared pair ranges (squared_pairs), from the Nystrom basis products of
    its M = H^T G H: the certificate of the module docstring.

    A row is settled when its enclosure of eigh's gamma_test holds no
    threshold of thresholds (so gamma, a value inside it, is flagged by
    exactly the thresholds eigh's gamma_test is) and, if any threshold
    flags it, vote is the vertex eigh's u4 votes for.  A row no threshold
    flags has vote 0.
    """
    m, k = len(d), len(_PROBES)
    thresholds = np.asarray(thresholds, dtype=float)[:, None]
    g, ut, u, ugt, a, a_inv, c, r, tau = _nystrom_basis(d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # omega >= |U^T U - I|_F.
        gram = np.matmul(ut, u).reshape(m, 9)
        gram[:, ::4] -= 1.0
        omega = np.sqrt(np.vecdot(gram, gram)) + _ROUNDING
        # |E|_F bound for E = (I - P_U) M U = M U - U A plus what U's
        # non-orthonormality adds.
        e = np.subtract(ugt, np.matmul(a, ut)).reshape(m, 3 * k)
        a = a.reshape(m, 9)
        e = np.sqrt(np.vecdot(e, e)) + 2.0 * (omega * np.sqrt(np.vecdot(a, a)) + tau)
        # |L^-1|_F^2 >= 1 / lambda_min(A); rho is half a lower bound on the
        # least eigenvalue of A in an orthonormal basis of span(U).
        inv = a_inv.reshape(m, 9)
        inv2 = np.vecdot(inv, inv)
        rho = 0.5 / (inv2 * (1.0 + omega)) - 0.5 * tau
        phi = inv2 * e * e / rho
        rel = phi / (1.0 - phi)
        # R's nonzero eigenvalue pair, from its trace t and Frobenius norm f.
        rf = r.reshape(m, k * k)
        t = rf @ np.eye(k).ravel()
        f = np.sqrt(np.vecdot(rf, rf))
        t_lo = np.maximum(np.abs(t) - math.sqrt(k) * tau, 0.0)
        t_hi = np.abs(t) + math.sqrt(k) * tau
        d_lo = np.sqrt(np.maximum(2.0 * np.maximum(f - tau, 0.0) ** 2 - t_hi * t_hi, 0.0))
        d_hi = np.sqrt(2.0 * (f + tau) ** 2 - t_lo * t_lo)
        pair_lo, top_lo = _pair_magnitudes(t_lo, d_lo)
        pair_hi, top_hi = _pair_magnitudes(t_hi, d_hi)
        valid = ((omega < 0.25) & (phi < 0.5) & (top_hi < rho * (1.0 - phi))
                 & (top_hi * (1.0 + rel) + 2.0 * tau < rho))
        lam_lo, lam_hi, lam = _top_eigenvalue(a)
        s1_lo = (lam_lo - tau) / (1.0 + omega) - tau
        lam_hi = (lam_hi + tau) / (1.0 - omega)
        s1_hi = lam_hi + np.sqrt(lam_hi * inv2) * e + tau
        lo = (pair_lo * (1.0 - rel) - 2.0 * tau) / s1_hi * (1.0 - _WIDEN)
        hi = (pair_hi * (1.0 + rel) + 2.0 * tau) / s1_lo * (1.0 + _WIDEN)
        settled = valid & (s1_lo > 0.0) & ((thresholds < lo) | (thresholds >= hi)).all(axis=0)
        pair, sigma = _pair_magnitudes(t, np.sqrt(np.maximum(2.0 * f * f - t * t, 0.0)))
        gamma = np.clip(pair / lam, lo, hi)
        # |lambda| of the pair's other eigenvalue (at most), and of its
        # eigenvalue sigma of larger magnitude (at least), in the matrix eigh
        # solves; gap is from sigma to its other eigenvalues.
        low_hi = 0.5 * np.maximum(t_hi - d_lo, d_hi - t_lo) * (1.0 + rel) + tau
        top_lo = top_lo * (1.0 - rel) - tau
        gap = np.minimum(sigma - low_hi, rho - tau - sigma)
        # Only the rows some threshold flags read a vote.
        rows = np.flatnonzero(settled & (thresholds < lo).any(axis=0))
        t, r, gap = t[rows], r[rows], gap[rows]
        sigma = np.where(t < 0.0, -sigma[rows], sigma[rows])
        # The eigenvector of sigma, (R - other I) R p for a probe p, then the
        # Nystrom correction x - U A^-1 U^T M x, which makes it nearly M's
        # eigenvector.
        rp = (r.reshape(-1, k) @ _PROBES[:, 0]).reshape(-1, k)
        x = np.einsum("mij,mj->mi", r, rp) - (t - sigma)[:, None] * rp
        x -= np.einsum("mij,mj->mi", u[rows], np.einsum(
            "mji,mj->mi", a_inv[rows], np.einsum("mij,mj->mi", c[rows], x)))
        x /= np.sqrt(np.vecdot(x, x))[:, None]
        res = np.einsum("mij,mj->mi", g[rows], x) - sigma[:, None] * x
        # eps bounds |H x - u4| (Davis-Kahan, and H's rounding).
        eps = math.sqrt(2.0) * (np.sqrt(np.vecdot(res, res)) + 2.0 * tau[rows]) / gap + _ROUNDING
        # H x is x in the clique's six coordinates: the top two entries of
        # |H x| must differ by more than 2 eps.
        x = np.abs(x @ _COMPLEMENT.T)
        lead = np.arange(len(rows)), x.argmax(axis=1)
        vote = np.zeros(m, dtype=np.intp)
        vote[rows] = lead[1]
        margin = x[lead]
        x[lead] = -1.0
        margin -= x.max(axis=1)
        settled[rows] = (top_lo[rows] > low_hi[rows]) & (gap > 0.0) & (margin > 2.0 * eps)
    return settled, gamma, vote


def _solve(g: np.ndarray, vectors: bool) -> tuple[np.ndarray | None, ...]:
    """(singular values, u1-u4, gamma_test, vote) of a stack of centred
    matrices: one eigh, or one spectrum without vectors (u1-u4 and vote
    None).  The vote is argmax |u4|, first on ties."""
    if not vectors:
        s = spectrum(g)
        return s, None, gamma_from_spectrum(s), None
    lam, vecs = np.linalg.eigh(g)
    order = magnitude_order(lam)
    s = np.abs(np.take_along_axis(lam, order, axis=1))
    # Gather u1-u4 as whole rows of the transposed stack: numpy copies
    # contiguous rows faster than it gathers single columns.
    u = vecs.swapaxes(1, 2)[np.arange(len(order))[:, None], order[:, :4]].swapaxes(1, 2)
    return s, u, gamma_from_spectrum(s), np.argmax(np.abs(u[:, :, 3]), axis=1)


def _gamma_bounds(basis: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, n) arrays lo <= gamma_test <= hi for a (c, n, 15) stack of squared
    noisy ranges of the pairs i < j, in each geometry's bound_basis,
    (c, 6, 5)."""
    # (c, 15, n): row e is entry e of every draw's M.
    m = _fold(basis) @ d.transpose(0, 2, 1)
    tau = _ROUNDING * np.sqrt(2.0 * np.einsum("cnk,cnk->cn", d, d))
    diag = m[:, 0:3]
    off = np.abs(m[:, 3:6])
    radius = off.sum(axis=1, keepdims=True) - off[:, ::-1]  # row i skips the pair without i
    a_lo = (diag - radius).min(axis=1)
    top_hi = (diag + radius).max(axis=1)
    top_lo = diag.max(axis=1)
    b2 = (m[:, 6:12] ** 2).sum(axis=1)
    # C's spread as a hypot, free of the cancellation in 2 f^2 - t^2.
    spread = np.hypot(m[:, 12] - m[:, 13], 2.0 * m[:, 14])
    pair, top_c = _pair_magnitudes(m[:, 12] + m[:, 13], spread)
    eta = a_lo - top_c - 2.0 * tau
    good = eta > 0.0
    eps = np.divide(b2, eta, out=np.full(eta.shape, np.inf), where=good) + 3.0 * tau
    good &= top_lo > eps
    lo = np.divide(np.maximum(pair - 2.0 * eps, 0.0), top_hi + eps,
                   out=np.zeros(eta.shape), where=good)
    hi = np.divide(pair + 2.0 * eps, top_lo - eps, out=np.full(eta.shape, np.inf), where=good)
    return lo * (1.0 - _WIDEN), hi * (1.0 + _WIDEN)


def top_gammas(basis: np.ndarray, d: np.ndarray, keep: int) -> np.ndarray:
    """gamma_test of each draw of a (c, n, 15) stack of squared noisy ranges
    of the pairs i < j (row-major) that can hold one of its geometry's top
    keep ranks, -inf for the others: the training-target screen, in
    bound_basis bases (c, 6, 5).  Solved draws are mirrored to their
    matrices and have their unscreened bits, so each row's top keep values
    are those of solving every draw.
    """
    lo, hi = _gamma_bounds(basis, d)
    n = d.shape[1]
    solve = hi >= np.partition(lo, n - keep, axis=1)[:, n - keep, None]
    gamma = np.full(solve.shape, -np.inf)
    # d[solve] is a 2-D stack, so its matrices are a 3-D one: geometric_center's
    # matmul runs faster on it than on a 4-D one.
    gamma[solve] = _solve(geometric_center(mirror_pairs(d[solve], basis.shape[1])),
                          vectors=False)[2]
    return gamma


def analyze_clique_batch(
    ranges: RangeMatrix, cliques: np.ndarray, vectors: bool = True,
    thresholds: Sequence[float] | None = None,
) -> BatchAnalysis:
    """Singular values and left singular vectors u1-u4 of every clique's
    centered distance matrix, plus gamma_test.

    One batched eigh: singular values are |lambda| and the vectors are the
    eigenvectors, both in magnitude_order.  Vector signs are arbitrary.
    With vectors=False the values come from spectrum (eigvalsh) instead,
    and left_vectors and fault_vertex_local are None.

    thresholds, when given, are the scalar thresholds the caller will read
    (gamma_test > t flags a row), and the caller reads the vote of a
    flagged row, so vectors must be set.  Each 6-clique then goes to the
    certificate: if it settles, its gamma_test is flagged by exactly the
    thresholds that flag eigh's, and if any flags it, its vote is eigh's.
    Only the rows left are solved, with the gamma_test and vote they have
    without thresholds, and singular_values and left_vectors are None (the
    thresholded BatchAnalysis).  The certificate is derived for 6-cliques,
    so thresholds take no other size, and reads each pair once, so they
    take only an exactly symmetric range matrix (a ValueError names the
    first asymmetric pair).  Requires cliques of k >= 5 vertices.
    """
    k = cliques.shape[1]
    if k < 5:
        raise ValueError("gamma_test undefined for cliques smaller than 5")
    if thresholds is not None and not (vectors and k == CLIQUE_SIZE):
        raise ValueError(f"an analysis under thresholds needs vectors (it reads the vote) and "
                         f"{CLIQUE_SIZE}-cliques; got vectors={vectors} and {k}-cliques")
    if thresholds is None:
        s, u, gamma, vote = _solve(geometric_center(build_edm(ranges, cliques)), vectors)
    else:
        s = u = None
        _check_symmetric(ranges.r)
        d = squared_pairs(ranges, cliques)
        settled, gamma, vote = _settle(d, thresholds)
        rows = np.flatnonzero(~settled)
        # Most calls leave no row to solve, and an empty eigh still costs a
        # call.  Mirrored, a row's pairs are its build_edm block: r is symmetric.
        if len(rows):
            g = geometric_center(mirror_pairs(d[rows], k))
            _, _, gamma[rows], vote[rows] = _solve(g, vectors=True)
    return BatchAnalysis(cliques=cliques, singular_values=s, left_vectors=u, gamma_test=gamma,
                         fault_vertex_local=vote)


def analyze_blocks(
    blocks: Sequence[np.ndarray], rows: Sequence[np.ndarray],
    thresholds: Sequence[float] | None = None,
) -> BatchAnalysis:
    """analyze_clique_batch of the cliques rows[b] of each (n, n) range
    matrix blocks[b], in one call.

    The blocks are the diagonal of one block-diagonal range matrix (zeros
    off the blocks, which build_edm would refuse as unmeasured but no
    clique reads), and the satellite ids of rows[b] are offset by n * b for
    the call and restored in the returned cliques, whose rows are those of
    rows in order.  A solved row has the bits of analysing its block alone:
    build_edm squares each entry alone, and the centring and the
    eigensolver work per matrix.
    """
    n = len(blocks[0])
    stacked = np.zeros((len(blocks) * n, len(blocks) * n))
    for b, block in enumerate(blocks):
        stacked[b * n:(b + 1) * n, b * n:(b + 1) * n] = block
    ids = np.concatenate(rows)
    shift = np.repeat(n * np.arange(len(rows)), [len(part) for part in rows])
    analysed = analyze_clique_batch(RangeMatrix(stacked), ids + shift[:, None],
                                    thresholds=thresholds)
    return replace(analysed, cliques=ids)
