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
stacked LAPACK call per epoch.  build_edm squares the epoch's
range matrix once and gathers every clique's block from it with one flat
take, which gives the same bits as gathering the ranges and squaring
them (squaring rounds each entry alone).

Two screens spare the eigensolver the matrices whose gamma_test no reader
needs, and a certificate those whose flags and vote it can prove.  Each
bounds gamma_test with stacked products and no eigensolver, and solves
what it cannot decide from the same centred matrices, so every value read
has its unscreened bits and every decision read is the unscreened one.
All three bound s4 + s5 by the
eigenvalues mu1, mu2 of a symmetric block of rank <= 2, trace t and
Frobenius norm f: |mu1| + |mu2| = max(|t|, d) and max |mu_i| =
(|t| + d) / 2 for d = |mu1 - mu2| = sqrt(2 f^2 - t^2) (_pair_magnitudes).
All allow tau, _ROUNDING times a Frobenius norm, for the rounding they do
not compute (the eigensolver's backward error, the asymmetry of the
computed G, their own products), and widen the result by _WIDEN.

The analysis screen (gamma_bound): a fixed threshold reads nothing of the
many cliques at or below it, so analyze_clique_batch(..., thresholds=ts)
solves none that gamma_bound puts at or below min(ts).  For any X of
rank <= 3, s4 + s5 of G is at most s1 + s2 of R = G - X (L. Mirsky,
"Symmetric gauge functions and unitarily invariant norms", Quart. J.
Math. 1960).  X is
the Nystrom approximation C^T C, C = L^-1 U^T G, U^T G U = L L^T, in a
basis U from one subspace step G P on three fixed probes P (_probes),
orthonormalised by Cholesky-QR.  R vanishes on U and (G being centred) on
the all-ones vector, so it has rank 2; what rounding leaves outside that
part is bounded by |R Q|_F, Q = [U, 1/sqrt(k)] (_top_pair_bound).  s1 is
at least a Rayleigh quotient in U's span; tau = _ROUNDING (|G|_F +
|C|_F^2).

The certificate (_settle): a threshold t reads only whether gamma_test > t,
and the vote only which entry of |u4| is largest, so of the 6-cliques the
screen passes, only those are solved whose flag at some t of ts, or whose
vote when some t flags them, the certificate cannot prove from the
screen's basis.  It argues in exact arithmetic on G (G 1 = 0); as in the
screens, tau covers the distance from the matrix eigh solves to the one
the products describe.  Let U~ and W be orthonormal bases of span(U) and
of its complement in the complement of 1 (two columns for k = 6), and
A' = U~^T G U~, B = U~^T G W, C' = W^T G W.  R vanishes on U and on 1, so
R = W S W^T for S = C' - B^T A'^-1 B, the Schur complement of A' in
[U~, W]^T G [U~, W]: S's eigenvalues sigma1, sigma2 are R's nonzero pair,
known from tr(R) and |R|_F (_pair_magnitudes; within sqrt(k) tau and
tau).  For |z| <= rho < a = lambda_min(A'), G has as many eigenvalues
off 1 below z as S(z) = C' - B^T (A' - z)^-1 B has (E. V. Haynsworth,
"Determination of the inertia of a partitioned Hermitian matrix", Linear
Algebra Appl. 1968), and S(z) is within |z| phi of S, phi = |F|^2 /
(a - rho), F = A'^-1/2 B.  So if max |sigma_i| < rho (1 - phi), G has two
eigenvalues within |sigma_i| phi / (1 - phi) of sigma_i and three of at
least rho: s4 + s5 is |sigma1| + |sigma2| to that relative margin.  rho is
a / 2, a >= 1 / (|L^-1|_F^2 (1 + omega)) for omega = |U^T U - I|_F, and
|F| = |C W| <= |L^-1|_F |E|_F for E = (I - P_U) G U, which is G U - U A
to within 2 omega |A|_F.  s1 is lambda_max(A') to within |B| <=
sqrt(lambda_max(A')) |F| (interlacing and Weyl), lambda_max(A') is A's to
a factor 1 +- omega (Ostrowski), and A's is enclosed by the signs of its
characteristic polynomial (_top_eigenvalue).  That gives lo <= gamma_test
<= hi; a row's flags are proved when no t of ts has lo <= t < hi, and its
gamma_test is then a value in [lo, hi].  For the vote, x is R's
eigenvector of sigma, the one of sigma1, sigma2 of larger magnitude, less
its part U A^-1 U^T G x that couples to span(U), normalised.  By the
Davis-Kahan sin theta theorem (C. Davis & W. M. Kahan, SIAM J. Numer.
Anal. 1970) it is within eps = sqrt(2) (|G x - sigma x| + 2 tau) / delta
of u4, delta the distance from sigma to G's other eigenvalues by the
enclosures above, so the vote is proved when sigma's eigenvalue is 4th by
|lambda| with margin and the top two entries of |x| differ by more than
2 eps.  On campaign and detect rows the certificate settles about 99.8%
of the rows the screen passes; eigh solves the rest.

The training-target screen (top_gammas): a target is a tail percentile of
a geometry's noise draws and reads only the top few ranks.  The noiseless
centred matrix G0 has rank 3; V (bound_basis) holds its top three
eigenvectors and two vectors spanning the rest of its null space, all
orthogonal to the all-ones vector, so a draw's G has the spectrum of
M = V^T G V = -1/2 V^T D V, plus 0.  D is symmetric with a zero diagonal,
so the screen reads only its entries d_ij of the pairs i < j: each entry
of M is the 15-term sum M_ab = sum_{i<j} t_ij d_ij over the folded table
t_ij = -1/2 (V_ia V_jb + V_ja V_ib), and |D|_F = sqrt(2 sum_{i<j} d_ij^2).
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

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .cliques import CLIQUE_SIZE
from .ranging import RangeMatrix, mirror_pairs, pair_rows


class MissingEdgeError(ValueError):
    """A clique reads a pair with no positive range: the pair is unmeasured
    (a stale schedule), or its noise is larger than its range."""


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
    r = ranges.r
    n = len(r)
    # Entry (c, i, j) of flat is the index of r[cliques[c, i], cliques[c, j]]
    # in r's flattened (row-major) storage.
    flat = cliques * n
    flat = flat[:, :, None] + cliques[:, None, :]
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
    """Stacked analyses of m cliques against one range matrix.

    left_vectors holds u1-u4 only (the vote reads u4, the predictor
    features u1-u3).  An analysis built without vectors
    (analyze_clique_batch(..., vectors=False)) has None for left_vectors
    and fault_vertex_local.  A row that an analysis under thresholds
    (analyze_clique_batch(..., thresholds=ts)) screened out has gamma_test
    -inf, NaN singular values and vectors and fault vertex 0: no threshold
    at or above min(ts) flags it, so its values, vectors and vote are never
    read.  A row the certificate settled has NaN singular values and
    vectors too, a gamma_test that each t of ts flags exactly when it flags
    the solved one, and, when some t flags it, the solved vote.
    """

    cliques: np.ndarray           # (m, k) satellite ids
    singular_values: np.ndarray   # (m, k) descending per row
    left_vectors: np.ndarray | None  # (m, k, 4): u1-u4 as columns
    gamma_test: np.ndarray        # (m,)
    fault_vertex_local: np.ndarray | None  # (m,) argmax |u4| per clique, first on ties

    def fault_vertex_global(self) -> np.ndarray:
        """Map per-clique fault attributions to satellite ids."""
        return self.cliques[np.arange(len(self.cliques)), self.fault_vertex_local]


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


# Allowance, per unit of the Frobenius norm a screen scales it by, for the
# rounding the screen does not compute: the eigensolver's backward error,
# the asymmetry of the computed G and the rounding of the screen's own
# products; each is a few hundred eps at most.
_ROUNDING = 1e-12
# Relative widening of a bound, for the rounding of its last sums and
# divisions and of gamma_test's own.
_WIDEN = 1e-9
# Largest trace(Y^T Y) |L^-1|_F^2, an upper bound on cond(Y)^2, for which
# the Cholesky-QR basis is used.  Cholesky-QR loses orthogonality as
# eps cond(Y)^2 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, "Roundoff error
# analysis of the CholeskyQR2 algorithm", ETNA 2015), so below this limit
# the singular values of [U, 1/sqrt(k)] stay far above the 4/5 that
# _top_pair_bound assumes.
_BASIS_CONDITION = 1e8
# The upper triangle of the 5x5 matrix M = V^T G V that _gamma_bounds reads,
# as (row, column) pairs: A's diagonal, A's off-diagonal, B, C's diagonal
# and C's off-diagonal, where A is rows/columns 0-2 and C is 3-4.
_M_ROWS, _M_COLS = np.array([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2),
                             (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4),
                             (3, 3), (4, 4), (3, 4)]).T


@functools.cache
def _probes(k: int) -> np.ndarray:
    """(k, 3) fixed probe vectors, each orthogonal to the all-ones vector
    (read-only: every call shares the array)."""
    p = np.cos(np.outer(np.arange(1, k + 1), [1.0, 2.0, 3.0]))
    p -= p.mean(axis=0)
    p.setflags(write=False)
    return p


def _carve(work: np.ndarray, *shapes: tuple) -> list[np.ndarray]:
    """Consecutive views of the flat array work, one of each shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(work[start:start + size].reshape(shape))
        start += size
    return views


def _cholesky_inverse(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L^-1 for the lower Cholesky factor L of each symmetric matrix of an
    (m, 3, 3) stack, and trace(s) |L^-1|_F^2, an upper bound on the
    condition number of s.  Where s is not positive definite, both hold NaN.
    """
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
    return np.ascontiguousarray(inv.T).reshape(m, 3, 3), (s00 + s11 + s22) * (inv * inv).sum(axis=0)


def _pair_magnitudes(t: np.ndarray, spread: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|mu1| + |mu2| and max |mu_i| for the eigenvalues mu1, mu2 of symmetric
    blocks of rank at most 2, from their traces t = mu1 + mu2 and spreads
    |mu1 - mu2| = sqrt(2 f^2 - t^2), f the Frobenius norm."""
    t = np.abs(t)
    return np.maximum(spread, t), 0.5 * (t + spread)


def _top_pair_bound(r: np.ndarray, rq: np.ndarray) -> np.ndarray:
    """Upper bound on s1 + s2 of each symmetric matrix of an (m, k, k) stack
    r, given rq = Q^T r for (m, k, 4) columns Q whose singular values are
    all at least 4/5.

    Let P project onto the complement of Q's columns.  For k <= 6, P r P
    has rank at most 2, so its s1 + s2 is the closed form of its trace t
    and Frobenius norm f, which is 1-Lipschitz in t and grows with f.
    f <= |r|_F, |t - trace(r)| <= 2 |r Q|_F and the rest r - P r P has
    |.|_F <= sqrt(2) |r Q|_F (for Q orthonormal; 5/4 of that here), so
    s1 + s2 of r is at most the closed form at (trace(r), |r|_F) plus
    5 |rq|_F.  For k > 6 it is sqrt(2) |r|_F, which holds for any matrix.
    """
    m, k = r.shape[:2]
    flat = r.reshape(m, k * k)
    if k > 6:
        return np.sqrt(2.0 * np.vecdot(flat, flat))
    trace = flat @ np.eye(k).ravel()
    spread = np.sqrt(np.maximum(2.0 * np.vecdot(flat, flat) - trace * trace, 0.0))
    top = _pair_magnitudes(trace, spread)[0]
    rq = rq.reshape(m, 4 * k)
    return top + 5.0 * np.sqrt(np.vecdot(rq, rq))


class _Basis(NamedTuple):
    """The products of gamma_bound's basis that the certificate reuses
    (_settle; the module docstring), one row per matrix of the stack."""

    ut: np.ndarray     # (m, 3, k) U^T
    u: np.ndarray      # (m, k, 3) U
    ugt: np.ndarray    # (m, 3, k) U^T G
    a: np.ndarray      # (m, 3, 3) A = U^T G U = L L^T
    a_inv: np.ndarray  # (m, 3, 3) L^-1
    c: np.ndarray      # (m, 3, k) C = L^-1 U^T G
    r: np.ndarray      # (m, k, k) R = G - C^T C
    tau: np.ndarray    # (m,) the rounding allowance

    def rows(self, index: np.ndarray) -> "_Basis":
        return _Basis(*(part[index] for part in self))


def gamma_bound(g: np.ndarray) -> tuple[np.ndarray, _Basis]:
    """Certified upper bound on gamma_test of each matrix of an (m, k, k)
    stack of centred matrices (k >= 5), or +inf where it certifies none:
    the analysis screen of the module docstring; and the basis products it
    was computed from, which the certificate reuses.

    The Rayleigh quotient is of v = U z, z = A^2 e_j for A's largest
    diagonal entry j: z^T A z / |v|^2 with |v|^2 computed, so U need not be
    exactly orthonormal.  The bound is (s4 + s5 bound + 2 tau) / (s1 bound
    - tau); +inf where a Cholesky factor fails, Y = G P is too
    ill-conditioned (_BASIS_CONDITION) or the s1 bound is not positive.
    """
    m, k = g.shape[:2]
    # One workspace for the stacked temporaries, each written with out=:
    # R, Q^T, U, U^T G, C, A (Y^T and Y^T Y in the last two until they are
    # written), and a scratch block that later steps reuse once earlier
    # ones are done with them.
    r, qt, u, ugt, c, a, one = _carve(
        np.empty(m * (k * k + 17 * k + 9)), (m, k, k), (m, 4, k), (m, k, 3), (m, 3, k),
        (m, 3, k), (m, 3, 3), (4 * k * m,))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = one[:3 * k * m].reshape(m, k, 3)
        np.matmul(g.reshape(m * k, k), _probes(k), out=y.reshape(m * k, 3))
        yt = c
        np.copyto(yt, y.transpose(0, 2, 1))
        linv, condition = _cholesky_inverse(np.matmul(yt, y, out=a))
        # Rows u1-u3, then the all-ones vector, normalised.
        qt[:, 3] = 1.0 / math.sqrt(k)
        ut = np.matmul(linv, yt, out=qt[:, :3])
        np.matmul(ut, g, out=ugt)
        np.copyto(u, ut.transpose(0, 2, 1))
        # The Cholesky factor reads A's lower triangle only.
        np.matmul(ugt, u, out=a)
        a_inv = _cholesky_inverse(a)[0]
        np.matmul(a_inv, ugt, out=c)
        ct = one[:3 * k * m].reshape(m, k, 3)
        np.copyto(ct, c.transpose(0, 2, 1))
        np.subtract(g, np.matmul(ct, c, out=r), out=r)
        gf = g.reshape(m, k * k)
        cf = c.reshape(m, 3 * k)
        tau = _ROUNDING * (np.sqrt(np.vecdot(gf, gf)) + np.vecdot(cf, cf))
        top_pair = _top_pair_bound(r, np.matmul(qt, r, out=one.reshape(m, 4, k)))
        # A as (3, 3, m): a3[i, j] is entry (i, j) of every row's A.
        a3 = np.ascontiguousarray(a.reshape(m, 9).T).reshape(3, 3, m)
        z = a3[:, a3.diagonal().argmax(axis=1), np.arange(m)]
        z = (a3 * z).sum(axis=1)
        w = (a3 * z).sum(axis=1)
        v = (np.ascontiguousarray(z.T)[:, None] @ ut).reshape(m, k)
        s1 = ((z * w).sum(axis=0) - tau * (z * z).sum(axis=0)) / np.vecdot(v, v) - tau
        bound = (top_pair + 2.0 * tau) / s1 * (1.0 + _WIDEN)
        bound = np.where((s1 > 0.0) & (condition < _BASIS_CONDITION) & (bound >= 0.0),
                         bound, np.inf)
    return bound, _Basis(ut, u, ugt, a, a_inv, c, r, tau)


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
    g: np.ndarray, basis: _Basis, thresholds: np.ndarray, vectors: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(settled, gamma, vote) of each 6x6 centred matrix of a stack, from
    gamma_bound's basis products: the certificate of the module docstring.

    A row is settled when its enclosure of eigh's gamma_test holds no
    threshold of the (t, 1) column thresholds (so gamma, a value inside
    it, is flagged by exactly the thresholds eigh's gamma_test is) and, if
    any threshold flags it and vectors is set, vote is the vertex eigh's u4
    votes for.  vote is None without vectors.
    """
    m, k = g.shape[:2]
    ut, u, ugt, a, a_inv, c, r, tau = basis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # omega >= |U^T U - I|_F.
        gram = np.matmul(ut, u).reshape(m, 9)
        gram[:, ::4] -= 1.0
        omega = np.sqrt(np.vecdot(gram, gram)) + _ROUNDING
        # |E|_F bound for E = (I - P_U) G U = G U - U A plus what U's
        # non-orthonormality adds.
        e = np.subtract(ugt, np.matmul(a, ut)).reshape(m, 3 * k)
        a = a.reshape(m, 9)
        e = np.sqrt(np.vecdot(e, e)) + 2.0 * (omega * np.sqrt(np.vecdot(a, a)) + tau)
        # |L^-1|_F^2 >= 1 / lambda_min(A); rho is half a lower bound on the
        # least eigenvalue of A in an orthonormal basis of span(U).
        a_inv = a_inv.reshape(m, 9)
        inv2 = np.vecdot(a_inv, a_inv)
        rho = 0.5 / (inv2 * (1.0 + omega)) - 0.5 * tau
        phi = inv2 * e * e / rho
        rel = phi / (1.0 - phi)
        # R's nonzero eigenvalue pair, from its trace t and Frobenius norm f.
        rf = r.reshape(m, k * k)
        t = rf @ np.eye(k).ravel()
        f = np.sqrt(np.vecdot(rf, rf))
        at = np.abs(t)
        t_lo = np.maximum(at - math.sqrt(k) * tau, 0.0)
        t_hi = at + math.sqrt(k) * tau
        d_lo = np.sqrt(np.maximum(2.0 * np.maximum(f - tau, 0.0) ** 2 - t_hi * t_hi, 0.0))
        d_hi = np.sqrt(2.0 * (f + tau) ** 2 - t_lo * t_lo)
        top_hi = 0.5 * (t_hi + d_hi)
        valid = ((omega < 0.25) & (phi < 0.5) & (top_hi < rho * (1.0 - phi))
                 & (top_hi * (1.0 + rel) + 2.0 * tau < rho))
        lam_lo, lam_hi, lam = _top_eigenvalue(a)
        s1_lo = (lam_lo - tau) / (1.0 + omega) - tau
        lam_hi = (lam_hi + tau) / (1.0 - omega)
        s1_hi = lam_hi + np.sqrt(lam_hi * inv2) * e + tau
        lo = (np.maximum(t_lo, d_lo) * (1.0 - rel) - 2.0 * tau) / s1_hi * (1.0 - _WIDEN)
        hi = (np.maximum(t_hi, d_hi) * (1.0 + rel) + 2.0 * tau) / s1_lo * (1.0 + _WIDEN)
        settled = valid & (s1_lo > 0.0) & ((thresholds < lo) | (thresholds >= hi)).all(axis=0)
        spread = np.sqrt(np.maximum(2.0 * f * f - t * t, 0.0))
        gamma = np.clip(np.maximum(at, spread) / lam, lo, hi)
        if not vectors:
            return settled, gamma, None
        # The eigenvector of R's eigenvalue sigma of larger magnitude, (R -
        # other I) R p for a probe p, then the Nystrom correction x - U A^-1
        # U^T G x, which makes it nearly G's eigenvector.
        sigma = 0.5 * (at + spread)
        sigma[t < 0.0] *= -1.0
        other = t - sigma
        rp = (rf.reshape(m * k, k) @ _probes(k)[:, 0]).reshape(m, k)
        x = np.einsum("mij,mj->mi", r, rp) - other[:, None] * rp
        x -= np.einsum("mij,mj->mi", u, np.einsum(
            "mji,mj->mi", a_inv.reshape(m, 3, 3), np.einsum("mij,mj->mi", c, x)))
        x /= np.sqrt(np.vecdot(x, x))[:, None]
        res = np.einsum("mij,mj->mi", g, x) - sigma[:, None] * x
        # |lambda| of the pair's other eigenvalue (at most), and of sigma's
        # (at least), in the matrix eigh solves; gap is from sigma to its
        # other eigenvalues, and eps bounds |x - u4| (Davis-Kahan).
        low_hi = 0.5 * np.maximum(t_hi - d_lo, d_hi - t_lo) * (1.0 + rel) + tau
        top_lo = 0.5 * (t_lo + d_lo) * (1.0 - rel) - tau
        gap = np.minimum(np.abs(sigma) - low_hi, rho - tau - np.abs(sigma))
        eps = math.sqrt(2.0) * (np.sqrt(np.vecdot(res, res)) + 2.0 * tau) / gap + _ROUNDING
        x = np.abs(x)
        vote = x.argmax(axis=1)
        top = x[np.arange(m), vote]
        x[np.arange(m), vote] = -1.0
        voted = (top_lo > low_hi) & (gap > 0.0) & (top - x.max(axis=1) > 2.0 * eps)
        flagged = (thresholds < lo).any(axis=0)
        return settled & (voted | ~flagged), gamma, vote


def _solve(g: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(singular values, u1-u4 or None, gamma_test) of a stack of centred
    matrices: one eigh, or one spectrum without vectors."""
    if not vectors:
        s = spectrum(g)
        return s, None, gamma_from_spectrum(s)
    lam, vecs = np.linalg.eigh(g)
    order = magnitude_order(lam)
    s = np.abs(np.take_along_axis(lam, order, axis=1))
    # Gather u1-u4 as whole rows of the transposed stack: numpy copies
    # contiguous rows faster than it gathers single columns.
    u = vecs.swapaxes(1, 2)[np.arange(len(order))[:, None], order[:, :4]].swapaxes(1, 2)
    return s, u, gamma_from_spectrum(s)


def bound_basis(lead: np.ndarray) -> np.ndarray:
    """(m, 6, 5) bases V of the training-target screen, from u1-u3 of each
    geometry's noiseless centred matrix, (m, 6, 3): columns 2-6 of one
    complete QR of [1/sqrt(6), u1, u2, u3], which are u1-u3 without their
    rounding-sized component along 1 (up to sign) and the rest of the
    null space.
    """
    ones = np.full(lead.shape[:-1] + (1,), 1.0 / math.sqrt(lead.shape[-2]))
    return np.linalg.qr(np.concatenate([ones, lead], axis=-1), mode="complete")[0][..., 1:]


def _gamma_bounds(basis: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, n) arrays lo <= gamma_test <= hi for a (c, n, 15) stack of squared
    noisy ranges of the pairs i < j, in each geometry's bound_basis,
    (c, 6, 5)."""
    i, j = pair_rows(basis.shape[1])
    vi, vj = basis[:, i], basis[:, j]
    # (c, 15, 15): row k is the folded table of entry k of M.
    table = -0.5 * (vi[:, :, _M_ROWS] * vj[:, :, _M_COLS]
                    + vj[:, :, _M_ROWS] * vi[:, :, _M_COLS]).transpose(0, 2, 1)
    # (c, 15, n): row k is entry k of every draw's M.
    m = table @ d.transpose(0, 2, 1)
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
    (gamma_test > t flags a row).  A row whose gamma_bound is at or below
    the smallest keeps its place with gamma_test -inf (the analysis
    screen).  A 6-clique the screen passes goes to the certificate: if it
    settles, its gamma_test is flagged by exactly the thresholds that
    flag eigh's, and if any flags it, its vote is eigh's; its values and
    vectors are NaN (BatchAnalysis).  Only the rows left are solved, with
    the bits they have unscreened.  Requires cliques of k >= 5 vertices.
    """
    m, k = cliques.shape
    if k < 5:
        raise ValueError("gamma_test undefined for cliques smaller than 5")
    g = geometric_center(build_edm(ranges, cliques))
    if thresholds is None:
        s, u, gamma = _solve(g, vectors)
        vote = None if u is None else np.argmax(np.abs(u[:, :, 3]), axis=1)
    else:
        thresholds = np.asarray(thresholds, dtype=float)
        s = np.full((m, k), np.nan)
        u = np.full((m, k, 4), np.nan) if vectors else None
        gamma = np.full(m, -np.inf)
        vote = np.zeros(m, dtype=np.intp) if vectors else None
        bound, basis = gamma_bound(g)
        rows = np.flatnonzero(~(bound <= thresholds.min()))
        if k == CLIQUE_SIZE:
            # Only the rows the screen passes are kept, so the screen's
            # workspace is freed before the certificate and eigh run.
            basis = basis.rows(rows)
            settled, gamma_rows, vote_rows = _settle(g[rows], basis, thresholds[:, None], vectors)
            gamma[rows[settled]] = gamma_rows[settled]
            if vectors:
                vote[rows[settled]] = vote_rows[settled]
            rows = rows[~settled]
        # Most calls leave no row to solve, and an empty eigh still costs a call.
        if len(rows):
            s[rows], u_rows, gamma[rows] = _solve(g[rows], vectors)
            if vectors:
                u[rows] = u_rows
                vote[rows] = np.argmax(np.abs(u_rows[:, :, 3]), axis=1)
    return BatchAnalysis(
        cliques=cliques,
        singular_values=s,
        left_vectors=u,
        gamma_test=gamma,
        fault_vertex_local=vote,
    )


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
