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
V-cycle, or factorisation, of the stability operator shifted below its
spectrum preconditions the LOBPCG eigen-solve of
stability.first_eigenvalue.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack


def stencil_matrix(offsets, coefs: np.ndarray) -> sp.csr_matrix:
    """The interior stencil of an nx x ny grid as a CSR matrix over the
    interior unknowns, the grid less a border as wide as the longest offset
    (b = max |di|, |dj|): coefs[i, j, m], of shape (nx - 2b, ny - 2b, k),
    weighs the neighbour (i + di, j + dj) of interior node (i, j) for the
    m-th of the k offsets (di, dj), sorted as pairs, which puts each row's
    columns in order: unknowns are numbered row-major.  A neighbour on the border is left out; every
    other entry is stored, zeros included."""
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
    factorisation of one declared positive definite met a leading minor
    that is not."""


def _factor(A, spd: bool = False):
    """The back-solve b -> A^{-1} b of the square sparse operator A.

    The half-bandwidths kl and ku are read from A's entries as column less
    row.  When both are at most _DIRECT_CELLS, the entries are scattered
    into LAPACK band storage in Fortran order and factored in place: with
    spd, for an operator the caller knows to be symmetric positive
    definite (stability.first_eigenvalue's shifted operator), the lower
    triangle goes into a (kl + 1) x n band for the Cholesky factorisation
    dpbtrf, each back-solve dpbtrs; else the (2 kl + ku + 1) x n band is
    LU-factored with partial pivoting by dgbtrf, each back-solve dgbtrs.
    A wider operator is factored by SuperLU in the minimum-degree column
    order of A^T + A: there the band holds three to four times SuperLU's
    L + U and back-solves slower.  Raises LinearSolveError when an LU
    pivot is exactly zero, or when a leading minor of an spd operator is
    not positive definite."""
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


def _bilinear_1d(cells: int) -> sp.csr_matrix:
    """Linear interpolation from the interior nodes of a line of cells/2
    cells to the interior nodes of the line of cells cells."""
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
    stability operator that preconditions stability.first_eigenvalue.  It
    holds, for each grid above the coarsest, its operator, weighted
    inverse diagonal and transfers, and the back-solve of the coarsest
    operator (_factor): the band Cholesky one when spd declares J
    symmetric positive definite, as only first_eigenvalue does, else the
    LU.  Each coarser operator is the Galerkin product (P^T / 4) A P,
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
