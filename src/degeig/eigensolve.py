"""Positive eigenpairs of the pencil A e = lambda B e as the top of (B, A).

A is the (SPD after Dirichlet elimination) energy matrix, B the g-weighted
mass matrix, possibly indefinite. The paper's e_n minimizes the energy under
a unit g-mass constraint, energy-orthogonally to e_1..e_{n-1}; equivalently
it maximizes mu(u) = (u^T B u) / (u^T A u) there. By Courant-Fischer these
successive maximizers are the eigenvectors of the k largest mu = 1/lambda of
B v = mu A v, so block eigensolver calls find all k and nothing is deflated
step by step. B is never factorized.

Two routes are provided: solve_dense (the reference up to DENSE_THRESHOLD: a
Cholesky congruence C = U^{-T} B U^{-1} formed in A's band storage, then one
standard eigh call for the top k mu of C, on the full pencil of either
geometry) and solve_successive: one ARPACK call with a sparse LU of A on
radial and explicit pencils, and on cube grids one block LOBPCG call per
parity sector, preconditioned by V-cycle-preconditioned CG. A block, unlike
single-vector Lanczos, keeps every member of a multiplicity.

Every weight is radial and the grid centered, so A and B commute with the
mirrors (x, y, z) -> (+-x, +-y, +-z) and the pencil splits into sectors of
vectors even (e) or odd (o) in each axis. Axis permutations leave four
distinct ones (SECTORS): eee, oee, ooe and ooo, with 1, 3, 3 and 1 members
(oee, eoe, eeo), so each triple is one computed pair. lambda_1 is simple and
its eigenvector lies in eee: A has nonpositive off-diagonals and B is
diagonal, so A - lambda_1 B is a positive semidefinite irreducible Z-matrix,
and by Perron-Frobenius its null vector is positive, hence even in every
axis. So eee asks for k pairs and a sector of w members for ceil((k - 1) / w),
which together hold the k largest mu; a sector asking for none is skipped.
Each pair of a grid solve reports its member's label as its sector. Pairs go
by the mu their call returned, ties in the call's order: oee, eoe, eeo.
"""

from dataclasses import dataclass, field
from itertools import permutations
from warnings import catch_warnings, simplefilter, warn_explicit

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
import scipy.sparse as sp

from .assembly import mass_plus_inner, volume_integral

CLUSTER_RTOL = 1e-9  # eigenvalues closer than this (relatively) form a cluster
DENSE_THRESHOLD = 2000  # solve_dense refuses larger orders
TRANSPOSE_BLOCK = 128  # square blocks swapped by _transpose_in_place
# the starts of the warnings with which scipy's lobpcg breaks off its loop
# early, each with what failed
LOBPCG_BREAKDOWNS = {
    "Failed at iteration": "LOBPCG could not B-orthonormalize its preconditioned residuals",
    "eigh failed at iteration": "LOBPCG's Rayleigh-Ritz eigh failed",
}


class SolverError(RuntimeError):
    """Raised when the pencil cannot be processed (e.g. A not SPD)."""


@dataclass
class SolverSettings:
    """Iteration controls for the successive solver; max_iter caps ARPACK's
    restarts (radial, explicit pencils) or, on cube grids, the iterations of
    each parity sector's LOBPCG call (so a solve may run up to four times
    max_iter iterations in all)."""

    k: int = 6
    tol: float = 1e-9           # relative weak-form residual target
    max_iter: int = 400         # per call; a stalled LOBPCG pair runs to it

    def validate(self):
        if self.k < 1:
            raise ValueError("eigenpair count k must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be strictly positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class EigenSequence:
    """Ordered positive eigenpairs with their diagnostics.

    vectors holds one B-normalized eigenvector per column. cross_energy and
    cross_mass are the Gram matrices in the energy and mass inner products;
    their off-diagonals quantify orthogonality. iterations holds, per pair,
    the number of applications of B (one per vector) made by the block call
    that produced the pair: one count per solve off the cube grid, one per
    parity sector on it (0 for the dense solve). residual_floors holds, per
    pair, the rounding floor of its residual (_residual_floors). sectors
    holds, per pair of a cube-grid successive solve, its parity sector: a
    letter per axis, "e" for even and "o" for odd under that axis's mirror;
    it is None elsewhere, and the report then has no sector field.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    cross_energy: np.ndarray
    cross_mass: np.ndarray
    iterations: list
    converged: list
    requested: int
    exhausted: bool
    method: str
    clusters: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    residual_floors: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sectors: list = None

    @property
    def count(self):
        return int(self.lambdas.size)

    def max_cross_energy(self):
        return _max_off_diagonal(self.cross_energy)

    def to_report(self):
        pairs = [
            {
                "n": i + 1,
                "lambda": float(self.lambdas[i]),
                "residual": float(self.residuals[i]),
                "b_norm": float(self.cross_mass[i, i]),
                "iterations": int(self.iterations[i]),
                "converged": bool(self.converged[i]),
            }
            for i in range(self.count)
        ]
        if self.sectors is not None:
            for p, sector in zip(pairs, self.sectors):
                p["sector"] = sector
        return {
            "method": self.method,
            "requested": self.requested,
            "found": self.count,
            "exhausted": bool(self.exhausted),
            "pairs": pairs,
            "max_cross_energy": self.max_cross_energy(),
            "max_cross_mass": _max_off_diagonal(self.cross_mass),
            "clusters": [list(map(int, c)) for c in self.clusters],
            "warnings": list(self.warnings),
        }


def _max_off_diagonal(gram):
    """Largest |entry| off the diagonal of a Gram matrix, 0 below order 2."""
    if gram.shape[0] < 2:
        return 0.0
    return float(np.max(np.abs(gram - np.diag(np.diag(gram)))))


def cluster_gaps(seq):
    """Relative gaps (lambda_{i+1} - lambda_i) / lambda_{i+1} of a sequence,
    and the mask of the gaps that lie between two clusters, not inside one."""
    lam = seq.lambdas
    gaps = np.diff(lam) / lam[1:]
    between = np.zeros(gaps.size, dtype=bool)
    between[[c[0] - 1 for c in seq.clusters[1:]]] = True
    return gaps, between


def _relative_residual(Ae, Be, lam):
    nrm = np.linalg.norm(Ae)
    if nrm == 0.0:
        return np.inf
    return float(np.linalg.norm(Ae - lam * Be) / nrm)


def residual(pair, lam, e):
    """Relative weak-form residual ||A e - lambda B e|| / ||A e||."""
    e = np.asarray(e, dtype=float)
    return _relative_residual(pair.A @ e, pair.B @ e, lam)


def _first_significant_index(e):
    mags = np.abs(e)
    top = mags.max()
    if top == 0.0:
        return 0
    idx = np.nonzero(mags > 1e-8 * top)[0]
    return int(idx[0]) if idx.size else 0


def _fix_sign(pair, e, first_mode):
    """Deterministic orientation: the ground mode integrates nonnegatively,
    higher modes lead with a positive coefficient."""
    if first_mode:
        s = volume_integral(pair, e)
        if s < 0.0:
            return -e
        if s > 0.0:
            return e
    if e[_first_significant_index(e)] < 0.0:
        return -e
    return e


def _detect_clusters(lambdas):
    clusters, current = [], [0]
    for i in range(1, lambdas.size):
        if lambdas[i] - lambdas[i - 1] <= CLUSTER_RTOL * max(lambdas[i], lambdas[i - 1]):
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    if lambdas.size:
        clusters.append(current)
    return clusters


def _residual_floors(pair, lambdas, vectors, AV):
    """Rounding floor of each relative residual, eps ||(|A| + lambda |B|) |e|||/||A e||.

    The size of the rounding error in evaluating A e - lambda B e: a residual
    near it cannot be reduced by further iteration. |A| and |B| share A's and
    B's index arrays, so only the values are copied.
    """
    def magnitude(M):
        return type(M)((np.abs(M.data), M.indices, M.indptr), shape=M.shape)

    absV = np.abs(vectors)
    F = magnitude(pair.A) @ absV + (magnitude(pair.B) @ absV) * lambdas
    return np.finfo(float).eps * np.linalg.norm(F, axis=0) / np.linalg.norm(AV, axis=0)


def _finalize(pair, lambdas, vectors, applications, requested, exhausted, method,
              warnings=(), tol=None, stops=None, sectors=None):
    """Orient and measure the pairs in their given order; judge them against tol if given.

    applications, stops and sectors (if given) hold one entry per pair, in
    the order of lambdas. A pair is converged when its relative residual is
    within tol (always without tol). An unconverged pair is warned about as
    at its rounding floor when its residual is within FLOOR_MARGIN of it,
    otherwise by its stop entry, the reason the eigensolver call that
    produced it stopped; pair warnings precede the given ones.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    k = lambdas.size
    for i in range(k):
        vectors[:, i] = _fix_sign(pair, vectors[:, i], first_mode=(i == 0))
    AV = pair.A @ vectors if k else vectors
    BV = pair.B @ vectors if k else vectors
    resid = np.array([_relative_residual(AV[:, i], BV[:, i], lambdas[i]) for i in range(k)])
    floors = _residual_floors(pair, lambdas, vectors, AV) if k else np.zeros(0)
    converged = [tol is None or bool(r <= tol) for r in resid]
    pair_warnings = [
        f"pair {i + 1} is at its rounding floor: residual {resid[i]:.3e} is "
        f"{resid[i] / floors[i]:.1f} times the floor {floors[i]:.3e} (tol {tol:.0e})"
        if resid[i] <= FLOOR_MARGIN * floors[i] else
        f"pair {i + 1} {stops[i]} at residual {resid[i]:.3e} (tol {tol:.0e})"
        for i in range(k) if not converged[i]
    ]
    return EigenSequence(
        lambdas=lambdas,
        vectors=vectors,
        residuals=resid,
        cross_energy=vectors.T @ AV,
        cross_mass=vectors.T @ BV,
        iterations=applications,
        converged=converged,
        requested=requested,
        exhausted=exhausted,
        method=method,
        clusters=_detect_clusters(lambdas),
        warnings=pair_warnings + list(warnings),
        residual_floors=floors,
        sectors=sectors,
    )


def _bandwidth(A):
    """Largest |i - j| over the stored entries of A, at least 1."""
    coo = A.tocoo()
    return int(np.max(np.abs(coo.row - coo.col), initial=1))


def _band_solve(U, X, trans):
    """U^{-1} X (trans "N") or U^{-T} X (trans "T") for the banded upper
    triangular U, overwriting X when it is a Fortran-ordered float array."""
    X, info = sla.lapack.dtbtrs(U, X, trans=trans, overwrite_b=1)
    if info != 0:
        raise SolverError(f"banded triangular solve failed (info={info})")
    return X


def _transpose_in_place(X):
    """Replace the square array X by its transpose without a second n^2 array.

    Off-diagonal blocks are swapped through a block-sized buffer and diagonal
    blocks transposed through a copy of themselves, so X keeps its memory
    order (a Fortran-ordered X then holds X^T in Fortran order).
    """
    n, block = X.shape[0], TRANSPOSE_BLOCK
    for i in range(0, n, block):
        a = slice(i, i + block)
        X[a, a] = X[a, a].T.copy()
        for j in range(i + block, n, block):
            b = slice(j, j + block)
            upper = X[a, b].copy()
            X[a, b] = X[b, a].T
            X[b, a] = upper.T
    return X


def solve_dense(pair, k, dense_threshold=DENSE_THRESHOLD):
    """Top-k reference solve of the pencil B v = mu A v.

    An explicit Cholesky congruence in A's band storage (Golub-Van Loan,
    Matrix Computations, 8.7): A = U^T U by a banded Cholesky, C =
    U^{-T} B U^{-1} by two banded triangular solves against a dense copy of B,
    one standard eigh call for the k largest mu of C, and e = U^{-1} w. A is
    never densified: the work is O(n^2 w) for bandwidth w, and C is formed
    and diagonalized in the one n^2 buffer that holds B's dense copy (X =
    U^{-T} B is transposed in place between the solves). mu > 0 are the
    reciprocals of the smallest positive pencil eigenvalues, nonpositive
    directions are discarded.
    Returns the k smallest positive lambda; fewer when the pencil has fewer
    positive eigenvalues (reported, not fatal).
    """
    n = pair.order
    if n > dense_threshold:
        raise SolverError(f"dense solve refused at order {n} > {dense_threshold}")
    if k < 1:
        raise ValueError("k must be >= 1")
    w = _bandwidth(pair.A)
    upper = sp.triu(pair.A, format="coo")
    band = np.zeros((w + 1, n), order="F")  # LAPACK band storage, factored in place
    band[w + upper.row - upper.col, upper.col] = upper.data
    del upper
    try:
        U = sla.cholesky_banded(band, overwrite_ab=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise SolverError(f"energy matrix is not positive definite: {exc}") from exc
    X = _band_solve(U, pair.B.toarray(order="F"), "T")  # U^{-T} B
    # U^{-T} (U^{-T} B)^T = U^{-T} B U^{-1}; X.T alone would be copied to Fortran order
    C = _band_solve(U, _transpose_in_place(X), "T")
    mu, W = sla.eigh(C, subset_by_index=[max(n - k, 0), n - 1],
                     overwrite_a=True, check_finite=False)
    V = _band_solve(U, W, "N")  # v = U^{-1} w, so v^T A v = w^T w = 1
    floor = 1e-12 * max(np.max(np.abs(mu)), np.finfo(float).tiny)
    pos = np.nonzero(mu > floor)[0][::-1]  # descending mu = ascending lambda
    warnings = []
    if pos.size < k:
        warnings.append(
            f"pencil has only {pos.size} positive eigenvalues; {k} requested"
        )
    E = V[:, pos] / np.sqrt(mu[pos])  # v^T A v = 1, so e^T B e = 1
    lambdas = np.einsum("ij,ij->j", E, pair.A @ E)
    return _finalize(pair, lambdas, E, [0] * pos.size, requested=k, exhausted=pos.size < k,
                     method="dense", warnings=warnings)


def _interpolation(shape, mirrored):
    """Linear interpolation onto the dof array of this shape from the one
    halved along every axis, as a sparse matrix.

    The tensor product of the 1-D rule: fine point 2j+1 takes coarse point j
    with weight 1, its neighbours 2j and 2j+2 with weight 1/2. On a mirrored
    axis (an even axis of a parity sector, _mirror_basis) fine point 0 is the
    mirror plane, whose outer neighbour is the image of fine point 1, so it
    takes coarse point 0 with weight 1 in nodal values, 1/sqrt(2) in the
    sector's orthonormal coordinates. Dofs are raveled in C order, as
    interior_points orders them. Returns (P, coarse shape).
    """
    P = sp.identity(1, format="csr")
    for s, mirror in zip(shape, mirrored):
        j = np.arange(s // 2)
        rows = np.concatenate([2 * j + 1, 2 * j, 2 * j + 2])
        keep = rows < s
        vals = np.repeat([1.0, 0.5, 0.5], j.size)
        if mirror and j.size:
            vals[j.size] = np.sqrt(0.5)  # row 0 from coarse point 0
        P1 = sp.csr_matrix((vals[keep], (rows[keep], np.tile(j, 3)[keep])),
                           shape=(s, j.size))
        P = sp.kron(P, P1, format="csr")
    return P, tuple(s // 2 for s in shape)


def _vcycle(A, shape, mirrored):
    """Symmetric multigrid V-cycle for A as a LinearOperator.

    Coarse operators are Galerkin products P^T A P of _interpolation (with
    the given mirrored axes), so no level is rediscretized. Each level
    smooths with SMOOTHING_SWEEPS damped Jacobi sweeps before and after its
    coarse correction; the coarsest (order at most COARSEST_ORDER) is solved
    exactly with a dense inverse. Pre- and post-smoothing mirror each other,
    so the cycle is a fixed SPD operator and a valid CG preconditioner. It
    applies to a vector or, column by column, to an (order, m) block.
    """
    order = A.shape[0]
    levels = []
    while A.shape[0] > COARSEST_ORDER:
        P, shape = _interpolation(shape, mirrored)
        # the restriction is stored once, as P.T builds a new CSC view per use;
        # the Galerkin product keeps P.T, as the CSR copy would round it differently
        levels.append((A, SMOOTHING_WEIGHT / A.diagonal(), P, P.T.tocsr()))
        A = (P.T @ A @ P).tocsr()
    inv = np.linalg.inv(A.toarray())
    inv = 0.5 * (inv + inv.T)

    def cycle(b, level=0):
        if level == len(levels):
            return inv @ b
        A, d, P, R = levels[level]
        if b.ndim == 2:
            d = d[:, None]  # a block: one column per right-hand side
        x = d * b
        for _ in range(SMOOTHING_SWEEPS - 1):
            x += d * (b - A @ x)
        x += P @ cycle(R @ (b - A @ x), level + 1)
        for _ in range(SMOOTHING_SWEEPS):
            x += d * (b - A @ x)
        return x

    return spla.LinearOperator((order, order), matvec=cycle, matmat=cycle,
                               dtype=float)


COARSEST_ORDER = 200  # the multigrid hierarchy solves this order and below densely
SMOOTHING_WEIGHT = 0.8  # damped Jacobi
SMOOTHING_SWEEPS = 2  # before and after each coarse correction
EXHAUSTION_RTOL = 1e-12  # mu at or below this fraction of mu_1 is no positive eigenvalue
FLOOR_MARGIN = 10.0  # a residual within this factor of its rounding floor is at the floor
# the distinct parity sectors of the cube grid, one per orbit of the axis
# permutations, a letter per axis (e: even, o: odd under its mirror); the
# first holds lambda_1 (see _sector_maximizers)
SECTORS = ("eee", "oee", "ooe", "ooo")


def _mirror_basis(c, parity):
    """Orthonormal basis of the even ("e") or odd ("o") vectors on one axis
    of 2c + 1 interior nodes under the mirror i -> 2c - i, as a sparse
    (2c + 1, c + 1) or (2c + 1, c) matrix.

    Column j holds the node pair at distance j from the center c (even: j =
    0..c, the center alone for j = 0) or j + 1 (odd: the center is zero), with
    weights +-1/sqrt(2); the sector's dofs are ordered by that distance.
    """
    j = np.arange(c + 1) if parity == "e" else np.arange(1, c + 1)
    w = np.where(j == 0, 1.0, np.sqrt(0.5))
    sign = 1.0 if parity == "e" else -1.0
    rows = np.concatenate([c + j, c - j[j > 0]])
    cols = np.concatenate([np.arange(j.size), np.nonzero(j > 0)[0]])
    vals = np.concatenate([w, sign * w[j > 0]])
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 * c + 1, j.size))


def _sector_members(label):
    """The sectors an axis permutation carries the sector label to, with the
    permutation: a (transpose axes, label) list starting with label itself."""
    members = {}
    for axes in permutations(range(3)):
        members.setdefault("".join(label[a] for a in axes), axes)
    return [(axes, name) for name, axes in members.items()]


def _lobpcg(A, B, shape, mirrored, m, settings, seed, sector):
    """The m largest mu of B v = mu A v, B diagonal, by one block LOBPCG call.

    The call runs at most settings.max_iter iterations and is preconditioned
    by CG on A to relative residual 0.1, each CG preconditioned by one
    V-cycle (_vcycle) over the dof array of this shape, with these mirrored
    axes. Column n of the start block is seeded by default_rng([seed, n,
    sector]). A block of more than a third of B's rank is solved densely
    (at most DENSE_THRESHOLD dofs), counted as one application of B per dof
    as LOBPCG counts its own dense solve. Returns the mu (LOBPCG's final
    Rayleigh-Ritz values, or eigh's) with their vectors as columns, the
    number of applications of B and the reason the call stopped: the
    iteration cap, LOBPCG's own tolerance, or a breakdown
    (LOBPCG_BREAKDOWNS) named with the iteration it happened in.
    """
    order = A.shape[0]
    if 3 * m > np.count_nonzero(B.diagonal()) and order <= DENSE_THRESHOLD:
        # the eigenvectors of the nonzero mu lie in A^{-1} range(B): past a
        # third of B's rank, LOBPCG's basis of the block, its preconditioned
        # residuals and its search directions turns singular and the call
        # breaks down (ring weight, grid 9^3)
        mus, vecs = sla.eigh(B.toarray(), A.toarray(), subset_by_index=[order - m, order - 1],
                             check_finite=False)
        return mus, vecs, order, "was solved densely"
    applications = 0

    def apply(X):
        nonlocal applications
        applications += 1 if X.ndim == 1 else X.shape[1]
        return B @ X

    op = spla.LinearOperator((order, order), matvec=apply, matmat=apply, dtype=float)
    X0 = np.column_stack([np.random.default_rng([seed, n, sector]).standard_normal(order)
                          for n in range(m)])
    vcycle = _vcycle(A, shape, mirrored)
    iterations = 0

    def precondition(R):
        nonlocal iterations
        iterations += 1  # LOBPCG preconditions its residual block once per iteration
        X = np.empty_like(R)
        for j, r in enumerate(R.T):
            X[:, j], info = spla.cg(A, r, rtol=0.1, atol=0.0, M=vcycle)
            if info < 0:
                raise SolverError(f"inner CG broke down (info={info})")
        return X

    # LOBPCG's tol is absolute; 1e-2 * tol leaves the relative residual below
    # tol on most cube-grid cases, not all. Its warnings are recorded, not
    # shown, because _finalize reports an unconverged pair itself; only a
    # breakdown's warning tells it from an early stop. Its residual history
    # cannot tell the cap from an early stop: it is cut at the best iterate,
    # which may be far from the last.
    with catch_warnings(record=True) as caught:
        simplefilter("always", UserWarning)
        mus, vecs = spla.lobpcg(op, X0, B=A, M=precondition, largest=True,
                                tol=1e-2 * settings.tol, maxiter=settings.max_iter)
    for w in caught:
        if not issubclass(w.category, UserWarning):
            warn_explicit(w.message, w.category, w.filename, w.lineno)
    causes = [cause for w in caught for head, cause in LOBPCG_BREAKDOWNS.items()
              if str(w.message).startswith(head)]
    if causes:
        # iterations counts the one that broke down, as it had preconditioned
        # its residuals; LOBPCG's warning numbers it from 0
        return mus, vecs, applications, (f"broke down in iteration {iterations} of "
                                          f"{settings.max_iter} ({causes[0]}) and stopped")
    # the loop runs iterations 0..max_iter unless every pair met the tolerance
    if iterations > settings.max_iter:
        return mus, vecs, applications, "hit the iteration cap"
    return mus, vecs, applications, (f"met LOBPCG's tolerance after {iterations} of "
                                      f"{settings.max_iter} iterations and stopped")


def _sector_maximizers(pair, m, settings, seed):
    """The m largest mu of the cube-grid pencil, one call per parity sector.

    The count rule of the module docstring sets each sector's ask, capped at
    its count of positive B entries (its count of positive mu, by
    Sylvester's law of inertia). A sector's pencil is S^T A S, S^T B S for S
    the Kronecker product of the orthonormal 1-D mirror bases
    (_mirror_basis), so LOBPCG's absolute tolerance means what it means on
    the full grid. Column n of sector s's start block (s its index in
    SECTORS) is seeded by default_rng([seed, n, s]). Returns the m largest
    mu the calls returned (fewer if the sectors hold fewer positive mu) in a
    stable descending order, so a triple keeps its members' order (oee, eoe,
    eeo; ooe, oeo, eoo), their maximizers on the full grid as columns (sector
    vectors carried to a member by an axis permutation), and per column the
    applications of B and the stop reason of its call and its member's label.
    """
    A, B = pair.A, pair.B
    c = (pair.geometry.n - 3) // 2
    found = []  # (mu, basis S, sector vector, axes, applications, stop, member label)
    for index, label in enumerate(SECTORS):
        members = _sector_members(label)
        bases = [_mirror_basis(c, parity) for parity in label]
        shape = tuple(b.shape[1] for b in bases)
        ask = m if index == 0 else -(-(m - 1) // len(members))
        if ask < 1:
            continue
        S = sp.kron(sp.kron(bases[0], bases[1]), bases[2], format="csr")
        Bs = (S.T @ B @ S).tocsr()
        ask = min(ask, np.count_nonzero(Bs.diagonal() > 0.0))
        if ask < 1:
            continue
        As = (S.T @ A @ S).tocsr()
        mus, vecs, applications, stop = _lobpcg(As, Bs, shape, [p == "e" for p in label],
                                                ask, settings, seed, index)
        for mu, v in zip(mus, vecs.T):
            found += [(mu, S, v, axes, applications, stop, name) for axes, name in members]
    found = sorted(found, key=lambda f: -f[0])[:m]  # stable: members stay in order
    full = (2 * c + 1,) * 3
    vecs = np.zeros((pair.order, len(found)))
    for j, (_, S, v, axes, *_) in enumerate(found):
        vecs[:, j] = (S @ v).reshape(full).transpose(axes).ravel()
    return ([f[0] for f in found], vecs, [f[4] for f in found], [f[5] for f in found],
            [f[6] for f in found])


def _maximize_quotient(pair, m, settings, seed):
    """Maximize mu = u^T B u / u^T A u over m-dimensional subspaces.

    By Courant-Fischer the maximizers are the m largest eigenpairs of the
    pencil (B, A), and the geometry alone picks the call. Radial and explicit
    pencils: one ARPACK call in the A inner product (mode 2) with a sparse LU
    of A, started from default_rng([seed, 0, 0]), raising ArpackNoConvergence
    after settings.max_iter restarts. Cube grids: one block LOBPCG call per
    parity sector (_sector_maximizers), as single-vector Lanczos can skip
    members of the cube's symmetry-forced multiplicities. Returns the m mu
    the call computed (ARPACK's eigenvalues, the sectors' Ritz values), their
    maximizers as columns and, per column, the applications of B made by the
    call that produced it and the reason that call stopped (which names an
    unconverged pair's warning); then the columns' parity sectors on cube
    grids, None elsewhere.
    """
    if pair.mode == "grid3d":
        return _sector_maximizers(pair, m, settings, seed)
    A, B = pair.A, pair.B
    applications = 0

    def apply(X):
        nonlocal applications
        applications += 1 if X.ndim == 1 else X.shape[1]
        return B @ X

    shape = (pair.order, pair.order)
    op = spla.LinearOperator(shape, matvec=apply, matmat=apply, dtype=float)
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"factorization of the energy matrix failed: {exc}") from exc
    inv = spla.LinearOperator(shape, matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng([seed, 0, 0]).standard_normal(pair.order)
    mus, vecs = spla.eigsh(op, m, M=A, Minv=inv, which="LA", v0=v0, maxiter=settings.max_iter)
    return mus, vecs, [applications] * m, ["stalled after ARPACK converged"] * m, None


def solve_successive(pair, settings=None, seed=42):
    """Compute the k smallest positive eigenpairs as the k largest mu of (B, A).

    One _maximize_quotient call (ARPACK on radial and explicit pencils, one
    block LOBPCG call per parity sector on cube grids) asks for min(k,
    order - 1) pairs, k = settings.k, from start blocks drawn from seed,
    and walks them in a stable descending order of the mu it returned, so
    equal mu keep the call's order. A pair with mu at or below
    EXHAUSTION_RTOL * mu_1 (mu <= 0 for the first) proves the positive
    spectrum exhausted: it and all below it are dropped, giving a partial
    sequence, not an error; so do fewer returned pairs than asked for. Each
    kept pair is converged when its relative weak-form residual is within
    tol.
    Eigenvectors are normalized to unit g-mass, so lambda_n equals the energy
    of e_n by construction; the ground mode is oriented nonnegatively.
    """
    settings = settings or SolverSettings()
    settings.validate()
    m = min(settings.k, pair.order - 1)
    if m < 1:
        raise SolverError("the successive solve needs an order of at least 2")
    try:
        mus, vecs, applications, stops, sectors = _maximize_quotient(pair, m, settings, seed)
    except spla.ArpackNoConvergence as exc:
        done = len(exc.eigenvalues)
        raise SolverError(
            f"pair {done + 1}: ARPACK did not converge within {settings.max_iter} "
            f"restarts ({done} of {m} pairs converged)"
        ) from exc
    order = sorted(range(len(mus)), key=lambda j: -mus[j])
    kept = [j for j in order if mus[j] > max(EXHAUSTION_RTOL * mus[order[0]], 0.0)]
    masses = [u @ b for u, b in zip(vecs.T, (pair.B @ vecs).T)]
    vectors = vecs[:, kept] / np.sqrt([masses[j] for j in kept])
    warnings = []
    exhausted = len(kept) < m
    if exhausted:
        warnings.append(
            f"no further positive eigenvalue found (found {len(kept)} of {settings.k})"
        )
    if m < settings.k and not exhausted:
        warnings.append(
            f"k = {settings.k} capped at order - 1 = {m}: the block eigensolver "
            f"returns fewer pairs than the order, so pair {m + 1} was not computed"
        )
    return _finalize(
        pair, [e @ (pair.A @ e) for e in vectors.T], vectors, [applications[j] for j in kept],
        requested=settings.k, exhausted=exhausted, method="successive", warnings=warnings,
        tol=settings.tol, stops=[stops[j] for j in kept],
        sectors=None if sectors is None else [sectors[j] for j in kept],
    )


@dataclass
class GrowthReport:
    """Diagnostics of the unit-energy rescaled modes e_n / sqrt(lambda_n).

    In exact arithmetic each rescaled mode has unit energy and its g-mass
    equals 1/lambda_n, bounded above by its g^+ mass; the tabulated gaps
    measure how closely the discrete sequence reproduces those identities.
    """

    lambdas: np.ndarray
    unit_energy: np.ndarray       # ||f_n||_alpha^2
    mass_values: np.ndarray       # integral of g f_n^2
    plus_mass_values: np.ndarray  # integral of g^+ f_n^2
    identity_gaps: np.ndarray     # |1/lambda_n - integral g f_n^2|
    bound_margins: np.ndarray     # integral g^+ f_n^2 - 1/lambda_n
    strictly_increasing: bool     # each cluster lies above the previous one
    ratios: np.ndarray            # lambda_n / lambda_1


def growth_diagnostics(seq, pair):
    """Tabulate the rescaled-mode identities and the growth trend of lambda_n."""
    if seq.count == 0:
        raise ValueError("empty eigen sequence")
    lam = seq.lambdas
    unit_energy = np.zeros(seq.count)
    mass_vals = np.zeros(seq.count)
    plus_vals = np.zeros(seq.count)
    for i in range(seq.count):
        f = seq.vectors[:, i] / np.sqrt(lam[i])
        unit_energy[i] = f @ (pair.A @ f)
        mass_vals[i] = f @ (pair.B @ f)
        plus_vals[i] = mass_plus_inner(pair, f)
    inv = 1.0 / lam
    gaps, between = cluster_gaps(seq)
    return GrowthReport(
        lambdas=lam.copy(),
        unit_energy=unit_energy,
        mass_values=mass_vals,
        plus_mass_values=plus_vals,
        identity_gaps=np.abs(inv - mass_vals),
        bound_margins=plus_vals - inv,
        strictly_increasing=bool(np.all(gaps[between] > CLUSTER_RTOL)),
        ratios=lam / lam[0],
    )
