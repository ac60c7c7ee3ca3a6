"""The sparse grid layer of the graph solver, stability and the audits.

The graph Newton Jacobian, the 5-point Laplacian of the harmonic start,
the Dijkstra lattice of the geodesic audits and the graph stiffness of
the stability form (on its region's block of the grid) come from one
interior-stencil assembly (stencil_matrix), which writes the compressed-
row (CSR) arrays straight from the grid, with no COO stage; the direct
factorisations read their band from those arrays, and only an operator
too wide for the band is converted, to CSC for SuperLU.

Every grid operator is assembled and applied with its unknowns numbered
row-major, so an operator on a grid of m x n interior nodes is banded,
with half-bandwidth n + 1 for the 9-point stencil.  A grid with at most
_DIRECT_CELLS = 64 cells on each side, or one that cannot be halved, is
factored directly (_factor), in one of three ways.  When the operator's
half-bandwidth is at most 64, as it is on every grid of at most 64 cells
a side, it is LAPACK's (Anderson et al., LAPACK Users' Guide, SIAM 1999)
band Cholesky factorisation, dpbtrf and dpbtrs, for the symmetric
positive definite stability operator shifted below its spectrum, and
LAPACK's band LU with partial pivoting, dgbtrf and dgbtrs, for the
Newton Jacobians and the Laplacian of the harmonic start.  A wider
operator goes to SuperLU, which orders the columns by minimum degree on
A^T + A (George and Liu, SIAM Review 31, 1989).  A finer grid that can
be halved is factored as a V-cycle (Briggs, Henson and McCormick, A
Multigrid Tutorial, 2000): bilinear prolongation P, restriction P^T / 4,
Galerkin coarse operators, two damped-Jacobi sweeps (weight 0.7) on each
side of a coarse correction, and that factorisation of the first coarser
grid with at most 64 cells a side, whose half-bandwidth is at most 64.
A solve on such a grid is GMRES (Saad, Iterative Methods for Sparse
Linear Systems, 2003) with one V-cycle as preconditioner, to the residual
relative to the right-hand side that the caller sets (solvers._newton's
forcing term); a GMRES that misses it raises LinearSolveError.  The same
V-cycle, or factorisation, of the graph stability operator shifted below
its spectrum preconditions the LOBPCG eigen-solve of
stability.first_eigenvalue.

The profile stability operator is a symmetric Tridiagonal in numpy
arrays, and its shifted form is factored by odd-even cyclic reduction
(_cyclic_reduction), also in numpy.  So only graph code needs scipy, and
this module imports it inside the functions that use it: a profile
command never loads it.  scipy cannot be loaded in part, as its array-API
layer imports numpy.f2py and numpy.testing with any submodule, and that
import takes longer than most profile commands' own work.
"""

from __future__ import annotations

import numpy as np


def stencil_matrix(offsets, coefs: np.ndarray):
    """The interior stencil of an nx x ny grid as a CSR matrix over the
    interior unknowns, the grid less a border as wide as the longest offset
    (b = max |di|, |dj|): coefs[i, j, m], of shape (nx - 2b, ny - 2b, k),
    weighs the neighbour (i + di, j + dj) of interior node (i, j) for the
    m-th of the k offsets (di, dj), sorted as pairs, which puts each row's
    columns in order: unknowns are numbered row-major.  A neighbour on the border is left out; every
    other entry is stored, zeros included."""
    import scipy.sparse as sp
    mx, my, k = coefs.shape
    n = mx * my
    b = max(max(abs(di), abs(dj)) for di, dj in offsets)
    # the unknown of each node, -1 on the border
    unknown = np.full((mx + 2 * b, my + 2 * b), -1, dtype=np.int32)
    unknown[b:mx + b, b:my + b] = np.arange(n, dtype=np.int32).reshape(mx, my)
    cols = np.stack([unknown[b + di:mx + b + di, b + dj:my + b + dj]
                     for di, dj in offsets], axis=-1).reshape(n, k)
    coefs = coefs.reshape(n, k)
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1, dtype=np.int32), out=indptr[1:])
    return sp.csr_matrix((coefs[keep], cols[keep], indptr), shape=(n, n))


# the 9-point and 5-point stencil offsets (di, dj), sorted
NINE_POINT = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
FIVE_POINT = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


def cell_average(F: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Mean of the four corner values of each cell of an nx x ny grid."""
    G = F.reshape(nx, ny)
    return 0.25 * (G[:-1, :-1] + G[1:, :-1] + G[:-1, 1:] + G[1:, 1:])


# a grid with more than this many cells on a side is solved by GMRES with a
# V-cycle preconditioner; coarsening stops at the first grid with at most
# this many, and only that grid is factored, in band storage when its
# operator's half-bandwidth is at most this many
_DIRECT_CELLS = 64
# damped-Jacobi weight and sweeps on each side of a coarse correction
_JACOBI_WEIGHT = 0.7
_SWEEPS = 2
# GMRES restarts every _GMRES_RESTART iterations and gives up after
# _GMRES_CYCLES restarts
_GMRES_RESTART = 30
_GMRES_CYCLES = 10


class LinearSolveError(RuntimeError):
    """GMRES did not reach its tolerance on a Newton step, the LU of a
    coarsest operator met an exactly zero pivot, or the Cholesky
    factorisation or cyclic reduction of one declared positive definite
    met a pivot that is not positive."""


class Tridiagonal:
    """The symmetric tridiagonal operator with diag[i] at (i, i) and off[i]
    at (i, i + 1) and (i + 1, i), in numpy arrays: the profile stability
    operator.  A product with a vector or an n x k block sums each row's
    terms from zero in the order lower, diagonal, upper, as scipy's CSR
    product of the same matrix does, so the two agree bit for bit."""

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        self.diag, self.off = diag, off

    @property
    def shape(self) -> tuple:
        return (self.diag.size, self.diag.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        d, e = self.diag, self.off
        if x.ndim == 2:
            d, e = d[:, None], e[:, None]
        y = np.zeros_like(x, dtype=float)  # in x's layout, C or Fortran
        y[1:] += e * x[:-1]
        y += d * x
        y[:-1] += e * x[1:]
        return y

    def __abs__(self) -> Tridiagonal:
        return Tridiagonal(np.abs(self.diag), np.abs(self.off))

    def toarray(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.off, -1) + np.diag(self.off, 1)


def _cyclic_reduction(T: Tridiagonal):
    """The back-solve b -> T^{-1} b of a symmetric positive definite
    Tridiagonal T, by odd-even cyclic reduction (Buzbee, Golub and
    Nielson, SIAM J. Numer. Anal. 7, 1970) in whole-array numpy steps.

    T is padded with uncoupled unit rows to 2^k - 1 unknowns.  Each level
    eliminates the unknowns at even positions, which couple only to their
    odd neighbours, so that their own diagonal entries are the pivots, and
    leaves the tridiagonal Schur complement on the odd ones, 2^(k-1) - 1
    of them; k levels reach one unknown.  The pivots are those of the
    LDL^T factorisation of T in that elimination order, all positive
    exactly when T is positive definite; raises LinearSolveError at a
    level with one that is not, as LAPACK's dpbtrf does at a leading minor
    that is not."""
    n = T.diag.size
    size = (1 << n.bit_length()) - 1
    d = np.ones(size)
    d[:n] = T.diag
    # e[i] couples unknowns i - 1 and i; e[0] and e[size] couple none
    e = np.zeros(size + 1)
    e[1:n] = T.off
    levels = []  # (left / pivot, right / pivot, pivot) of each eliminated unknown
    while True:
        piv = d[0::2]
        if not piv.min() > 0.0:
            raise LinearSolveError(f"cyclic reduction of {n} unknowns: a pivot "
                                   "is not positive, so the operator is not "
                                   "positive definite")
        if d.size == 1:
            break
        left, right = e[0::2], e[1::2]
        lm, rm = left / piv, right / piv
        d = d[1::2] - (right * rm)[:-1] - (left * lm)[1:]
        e = -(left * rm)
        levels.append((lm, rm, piv))

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.zeros(size)
        x[:n] = b
        eliminated = []
        for lm, rm, _ in levels:
            even = x[0::2]
            eliminated.append(even)
            x = x[1::2] - rm[:-1] * even[:-1] - lm[1:] * even[1:]
        x = x / d
        for (lm, rm, piv), even in zip(reversed(levels), reversed(eliminated)):
            # x at the odd positions of the finer level, between zeros that
            # stand for the neighbours past either end
            full = np.zeros(2 * x.size + 3)
            full[2:-1:2] = x
            full[1::2] = even / piv - lm * full[:-1:2] - rm * full[2::2]
            x = full[1:-1]
        return x[:n]

    return solve


def _factor(A, spd: bool = False):
    """The back-solve b -> A^{-1} b of the square sparse operator A.

    A Tridiagonal, which the caller knows to be positive definite (the
    profile's shifted stability operator), goes to _cyclic_reduction.
    Else the half-bandwidths kl and ku are read from A's entries as column
    less row.  When both are at most _DIRECT_CELLS, the entries are
    scattered into LAPACK band storage in Fortran order and factored in
    place: with spd, for an operator the caller knows to be symmetric
    positive definite (stability.first_eigenvalue's shifted graph
    operator), the lower triangle goes into a (kl + 1) x n band for the
    Cholesky factorisation dpbtrf, each back-solve dpbtrs; else the
    (2 kl + ku + 1) x n band is LU-factored with partial pivoting by
    dgbtrf, each back-solve dgbtrs.  A wider operator is factored by
    SuperLU in the minimum-degree column order of A^T + A: there the band
    holds three to four times SuperLU's L + U and back-solves slower.
    Raises LinearSolveError when an LU pivot is exactly zero, or when a
    pivot or leading minor of a positive definite operator is not
    positive."""
    if isinstance(A, Tridiagonal):
        return _cyclic_reduction(A)
    import scipy.sparse.linalg as spla
    from scipy.linalg import lapack
    A = A.tocsr()
    A.sum_duplicates()  # in place: the scatter below keeps one entry per slot
    n = A.shape[0]
    offset = A.indices - np.repeat(np.arange(n), np.diff(A.indptr))
    kl, ku = -int(offset.min(initial=0)), int(offset.max(initial=0))
    if max(kl, ku) > _DIRECT_CELLS:
        try:
            return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise LinearSolveError(f"LU of {n} unknowns: {exc}") from exc
    if spd:
        # row i - j of column j holds A[i, j], i >= j
        lower = offset <= 0
        ab = np.zeros((kl + 1, n), order="F")
        ab[-offset[lower], A.indices[lower]] = A.data[lower]
        c, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=True)
        if info > 0:
            raise LinearSolveError(f"Cholesky factorisation of {n} unknowns: "
                                   f"leading minor {info} is not positive definite")
        return lambda b: lapack.dpbtrs(c, b, lower=1)[0]
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl + ku - offset, A.indices] = A.data
    lu, piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=True)
    if info > 0:
        raise LinearSolveError(
            f"LU of {n} unknowns: pivot {info} is exactly zero")
    return lambda b: lapack.dgbtrs(lu, kl, ku, b, piv)[0]


def _bilinear_1d(cells: int):
    """Linear interpolation, as a CSR matrix, from the interior nodes of a
    line of cells/2 cells to the interior nodes of the line of cells
    cells."""
    import scipy.sparse as sp
    k = np.arange(cells // 2 - 1)
    rows = np.concatenate([2 * k + 1, 2 * k, 2 * k + 2])
    vals = np.repeat([1.0, 0.5, 0.5], k.size)
    return sp.csr_matrix((vals, (rows, np.tile(k, 3))), shape=(cells - 1, k.size))


def transfers(mx: int, my: int) -> list:
    """The (P, P^T / 4) pairs of a grid of mx x my cells, finest first: P
    is bilinear prolongation on interior nodes from the grid of twice the
    spacing, and P^T / 4 the restriction.  Halving stops at the first grid
    with at most _DIRECT_CELLS cells on each side, or an odd number on
    one."""
    import scipy.sparse as sp
    prolongations = []
    while (max(mx, my) > _DIRECT_CELLS and mx % 2 == 0 and my % 2 == 0
           and min(mx, my) >= 4):
        prolongations.append(sp.kron(_bilinear_1d(mx), _bilinear_1d(my),
                                     format="csr"))
        mx, my = mx // 2, my // 2
    return [(P, (P.T / 4.0).tocsr()) for P in prolongations]


class Hierarchy:
    """The V-cycle of one operator J (CSR, numbered row-major): a Newton
    Jacobian, the Laplacian of the harmonic start, or the shifted
    stability operator that preconditions stability.first_eigenvalue,
    which on a profile is a Tridiagonal with no grid above it.  It
    holds, for each grid above the coarsest, its operator, weighted
    inverse diagonal and transfers, and the back-solve of the coarsest
    operator (_factor): the band Cholesky one, or a Tridiagonal's cyclic
    reduction, when spd declares J symmetric positive definite, as only
    first_eigenvalue does, else the LU.  Each coarser operator is the Galerkin product (P^T / 4) A P,
    symmetric only to rounding when J is symmetric; the Cholesky
    factorisation reads its lower triangle, which is no loss in a
    preconditioner.  With no grid above the coarsest, a cycle is the
    back-solve."""

    def __init__(self, J, transfers, spd: bool = False):
        self.levels = []
        A = J
        for P, R in transfers:
            self.levels.append((A, _JACOBI_WEIGHT / A.diagonal(), P, R))
            A = R @ (A @ P)
        self.coarse_solve = _factor(A, spd=spd)

    def vcycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle for J x = b from x = 0, with _SWEEPS damped-Jacobi
        sweeps before and after each coarse correction."""
        down = []
        for A, wdinv, P, R in self.levels:
            x = wdinv * b
            for _ in range(_SWEEPS - 1):
                x += wdinv * (b - A @ x)
            down.append((b, x))
            b = R @ (b - A @ x)
        x = self.coarse_solve(b)
        for (A, wdinv, P, R), (b, x_fine) in zip(reversed(self.levels),
                                                 reversed(down)):
            x = x_fine + P @ x
            for _ in range(_SWEEPS):
                x += wdinv * (b - A @ x)
        return x

    def solve(self, b: np.ndarray, rtol: float):
        """(x, GMRES iterations) for J x = b: the back-solve when there is
        no grid above the coarsest, else GMRES preconditioned by one V-cycle
        to a 2-norm residual of at most rtol |b|.  Raises LinearSolveError
        when GMRES misses rtol."""
        if not self.levels:
            return self.coarse_solve(b), 0
        import scipy.sparse.linalg as spla
        # the operator is made per solve: kept on the hierarchy, it would
        # close a reference cycle that holds the grid operators until a
        # full garbage collection
        J = self.levels[0][0]
        cycle = spla.LinearOperator(J.shape, matvec=self.vcycle, dtype=float)
        iters = []
        x, info = spla.gmres(J, b, M=cycle, rtol=rtol, atol=0.0,
                             restart=_GMRES_RESTART, maxiter=_GMRES_CYCLES,
                             callback=iters.append, callback_type="pr_norm")
        if info != 0:
            raise LinearSolveError(
                f"GMRES missed relative residual eta_k = {rtol:.3g} on "
                f"{J.shape[0]} unknowns (info {info}, {len(iters)} iterations)")
        return x, len(iters)
