"""Positive eigenpairs of the pencil A e = lambda B e as the top of (B, A).

A is the (SPD after Dirichlet elimination) energy matrix, B the g-weighted
mass matrix, possibly indefinite. The paper's e_n minimizes the energy under
a unit g-mass constraint, energy-orthogonally to e_1..e_{n-1}; equivalently
it maximizes mu(u) = (u^T B u) / (u^T A u) there. By Courant-Fischer these
successive maximizers are the eigenvectors of the k largest mu = 1/lambda of
B v = mu A v, so block eigensolver calls find all k and nothing is deflated
step by step. B is never factorized.

Both solvers run one pipeline: one call per invariant block (_blocks), each
a record (block, mu, vectors, applications, stop), which _finalize merges by
mu (_merged) and turns into pairs by one positivity cut, normalization,
lambda rule and residual judgement, and one cluster rule (cluster_gaps,
whose gaps the solve claim reads too), warning when k cuts a cluster that a
call computed. solve_dense, the reference up to DENSE_THRESHOLD, asks every
block for k mu, whatever the successive ask rule below would ask, under the
same cap and stop (_blocks), each by one direct call (_dense_pairs):
_tridiagonal_eigh on an unprojected tridiagonal pencil (every radial one),
else one generalized eigh of the block's densified pencil; its records carry
no applications or stop.

An invariant block (Block) is a subspace that A and B map into itself, so
a smaller pencil of the same kind (Bossavit, Symmetry, groups, and boundary
value problems, CMAME 56, 1986); its members are the blocks an axis
permutation carries it to, with the same mu. A radial or explicit pencil
is one block of one member, solved equilibrated (_equilibration): its
routes form the equilibrated A and B only to factor or densify them, and
ARPACK applies them without a copy (_equilibrated), so no equilibrated
copy of the whole pencil is alive through ARPACK. _merged scales the
vectors back. On the cube grid every weight is radial and the grid
centered, so A and B commute with the mirrors (x, y, z) -> (+-x, +-y,
+-z): the blocks are the sectors of vectors even (e) or odd (o) in each
axis, one per orbit of the axis permutations (SECTORS: eee, oee, ooe and
ooo, with 1, 3, 3 and 1 members, e.g. oee, eoe, eeo), each solved on S^T
A S, S^T B S for an orthonormal basis S of it.

The sectors are nested: as B is diagonal and A reaches one node per axis,
oee's pencil is eee's on the coordinates j_x >= 1, ooe's is oee's on j_y >=
1 and ooo's is ooe's on j_z >= 1, bit for bit, so eee alone is projected
(_blocks). By Cauchy interlacing (Parlett, The Symmetric Eigenvalue
Problem, SIAM 1998, 10.1) the j-th largest mu of a sector is then at most
the j-th of the sector before it. For m = min(k, order - 1) a block of w
members, W of them in it and the blocks before it, asks for floor((m - 1 +
w) / W) pairs: m for a radial or explicit pencil, and on the cube grid m,
floor((m + 2) / 4), floor((m + 2) / 7) and floor(m / 8). Together the asks
hold the m largest mu: in the merged order below, the j-th mu of a block
comes after the first j of every block before it and its own first j - 1,
each once per member, j W - w entries, so it is among the m largest only if
j W - w < m. _blocks owns the chain: it reads each block's w from its
members and asks a solver's rule (this one, or the dense reference's k)
before forming the block, then caps the ask by the block's count of
positive mu (Sylvester's law of inertia). Neither asks nor positive counts
increase from a sector to the next (a sub-pencil's positive B entries are
among its parent's), so the first zero ask, of the rule or the cap, ends
the chain, and no block after it is formed: k = 1 forms eee alone, and
the dense reference solves no sector without a positive mu. A new block
family joins the rule by adding its blocks to _blocks. The warning
on a cluster that k cuts (_finalize) sees only the mu computed past the
m-th. A later sector computes fewer of those than the first, so a cut
member that only a later sector holds can go unwarned; a triple's members
are carried from one computed pair, so a triple that k cuts is always seen.

A block of the successive solve is solved by one call (_block_pairs):
ARPACK with a sparse LU of A if unprojected. A sector takes block LOBPCG,
preconditioned by V-cycle-preconditioned CG, wherever LOBPCG can iterate;
unlike single-vector Lanczos it keeps every member of a multiplicity. Its
basis of 3 ask vectors lies in A^{-1} range(B) (Knyazev, SIAM J. Sci.
Comput. 23, 2001), and scipy's lobpcg iterates only on an order of at least
5 ask, so a sector of at most DENSE_THRESHOLD dofs whose B has rank r < 5
ask is solved by _low_rank_eigh, exact on that rank. As r <= order, every
LOBPCG call then iterates unless it asks for more than DENSE_THRESHOLD / 5
pairs. The pairs of all blocks are merged by mu, equal mu in the order the
blocks and calls returned them (a triple reads oee, eoe, eeo), and each
vector is carried to its members; a grid pair of either solver reports its
member's label as sector. EigenSequence.calls records each call.

Each route maps its own failures: the function that calls a library
(_block_pairs for splu and ARPACK, _dense_pairs for eigh, and likewise
_lobpcg, _tridiagonal_eigh and _low_rank_eigh) is the only place that turns
that library's failure into a SolverError. An ARPACK call holding fewer
pairs than it asked names the first pair it lacks; ARPACK's other errors
and eigh's LinAlgError keep the library's message. So each solver is one
pass over _blocks, one route call per block, with no try of its own.

ARPACK's Lanczos basis holds 2 m + 1 vectors for m asked pairs, at most
the order: the least its users' guide advises (Lehoucq, Sorensen and Yang,
ARPACK Users' Guide, SIAM 1998), where scipy's default holds at least 20,
so only m < 10 sees a smaller basis. B with a negative diagonal entry is
the exception. Such a B is indefinite, and Lanczos converges to both ends
of the spectrum: on the ring the negative mu lie farther out than the m-th
positive one and crowd the basis, so its implicit restarts take up to 1.8
times the B applications (m = 8 to 64). There the basis holds NCV_PER_PAIR
* m vectors, at least 20 and at most the order. SuperLU factors A with
panel_size=1 and relax=1, which set only its working storage (Demmel et
al., SIAM J. Matrix Anal. Appl. 20, 1999): a tridiagonal A has no
supernode to gain from them. ARPACK's n x (2 m + 1) arrays and SuperLU's
transient set the peak memory of a large radial solve together, so the two
cut it together (gaussian M32768, k = 6, on a 2-core x86_64 machine:
ru_maxrss 101.7 to 98.9 MB, and to 97.4 MB with the equilibrated pencil
applied without a copy).
"""

import ctypes
import weakref
from dataclasses import dataclass, field
from itertools import permutations
from warnings import catch_warnings, simplefilter, warn_explicit

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
import scipy.sparse as sp
from scipy.linalg import cython_lapack

from .assembly import mass_plus_inner, volume_integral

CLUSTER_RTOL = 1e-9  # eigenvalues closer than this (relatively) form a cluster
# solve_dense refuses larger orders, and _block_pairs solves no larger sector
# on B's rank: it bounds the dense copies of a block's A and B that eigh holds
# (the whole pencil's, if it is one block) and the rank-r solve's n x r arrays
# and sparse LU; the tridiagonal route needs O(n) memory
DENSE_THRESHOLD = 2000
INVERSE_SHIFT = 1e-10  # inverse iteration runs at mu (1 + INVERSE_SHIFT)
INVERSE_STEPS = 2  # inverse-iteration steps per vector
NCV_PER_PAIR = 3  # ARPACK's basis per asked pair on an indefinite pencil (_block_pairs)
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
    """Iteration controls for the successive solver; max_iter caps each block
    call's ARPACK restarts or LOBPCG iterations, at most four calls on a cube
    grid, one per nested parity sector whose interlacing ask is not zero."""

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
    their off-diagonals quantify orthogonality. calls holds one record per
    block call: its block (grid only), the pairs it produced, its
    applications of B (iterations lists them) and its stop, both None for
    the dense solve.
    Per pair, residual_floors holds its residual's rounding floor and sectors
    the label of its member (module docstring): on the cube grid its parity
    sector, a letter per axis, "e" even and "o" odd under that axis's mirror;
    None elsewhere, where the report has no sector field.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    cross_energy: np.ndarray
    cross_mass: np.ndarray
    converged: list
    requested: int
    exhausted: bool
    method: str
    clusters: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    residual_floors: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sectors: list = field(default_factory=list)
    calls: list = field(default_factory=list)

    @property
    def count(self):
        return int(self.lambdas.size)

    @property
    def iterations(self):
        return [call["applications"] for call in self.calls]

    def max_cross_energy(self):
        return _max_off_diagonal(self.cross_energy)

    def to_report(self):
        pairs = [
            {
                "n": i + 1,
                "lambda": float(self.lambdas[i]),
                "residual": float(self.residuals[i]),
                "b_norm": float(self.cross_mass[i, i]),
                "converged": bool(self.converged[i]),
                **({} if self.sectors[i] is None else {"sector": self.sectors[i]}),
            }
            for i in range(self.count)
        ]
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


def cluster_gaps(lambdas):
    """The cluster rule: the relative gaps (lambda_{i+1} - lambda_i) /
    lambda_{i+1} of a positive sequence, and its clusters, the runs of
    indices that no gap above CLUSTER_RTOL separates."""
    gaps = np.diff(lambdas) / lambdas[1:]
    runs = np.split(np.arange(len(lambdas)), np.flatnonzero(gaps > CLUSTER_RTOL) + 1)
    return gaps, [run.tolist() for run in runs if run.size]


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
    return int(np.argmax(mags > 1e-8 * mags.max()))


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


def _residual_floors(pair, lambdas, vectors, AV):
    """Rounding floor of each relative residual, eps ||(|A| + lambda |B|) |e|||/||A e||.

    The size of the rounding error in evaluating A e - lambda B e: a residual
    near it cannot be reduced by further iteration. |A| and |B| are applied
    FLOOR_ROWS rows at a time, with only those rows' values copied (a block
    shares A's or B's index arrays), to one column of V at a time. The sums
    of squares of F = |A| |V| + lambda |B| |V| and of A V run in the order
    np.linalg.norm(X, axis=0) takes on a whole n x k X: down each column for
    k > 1, pairwise for k = 1 (numpy reduces a contiguous axis pairwise).
    """
    def magnitude_times(M, x):
        y = np.empty(M.shape[0])
        for start in range(0, M.shape[0], FLOOR_ROWS):
            stop = min(start + FLOOR_ROWS, M.shape[0])
            lo, hi = M.indptr[start], M.indptr[stop]
            block = type(M)((np.abs(M.data[lo:hi]), M.indices[lo:hi],
                             M.indptr[start:stop + 1] - lo), shape=(stop - start, M.shape[1]))
            y[start:stop] = block @ x
        return y

    def norm(x):  # squares x in place
        x *= x
        return np.sqrt(np.add.reduce(x) if lambdas.size == 1 else np.cumsum(x)[-1])

    av_norms = [norm(AV[:, j].copy()) for j in range(lambdas.size)]
    floors = np.empty(lambdas.size)
    for j, lam in enumerate(lambdas):
        e = np.abs(vectors[:, j])
        f = magnitude_times(pair.A, e)
        g = magnitude_times(pair.B, e)
        g *= lam
        f += g
        floors[j] = np.finfo(float).eps * norm(f) / av_norms[j]
    return floors


def _finalize(pair, calls, requested, asked, method, tol=None):
    """The pairs of a solve's block calls, one (block, mu, vectors,
    applications, stop) each, asked for `asked` of `requested` pairs. Once
    merged, each record in calls is cut to (label, applications, stop).

    _merged orders the calls' mu, and pairs go by that order. A mu at or
    below EXHAUSTION_RTOL * mu_1 (mu <= 0 for the first) proves the positive
    spectrum exhausted, as do fewer pairs than asked for: it and all below
    it are dropped, giving a partial sequence, not an error. Each kept vector
    is scaled to unit g-mass by sqrt(v^T B v) and oriented (_fix_sign); its
    lambda is its energy e^T A e. A pair is converged when its relative
    residual is within tol (always without tol). An unconverged pair is
    warned about as at its rounding floor when its residual is within
    FLOOR_MARGIN of it, otherwise by its call's stop and its mu_n / mu_1 (an
    absolute tolerance in mu leaves a small one a large relative residual);
    these precede the warning on a cluster cut by the mu computed past the
    asked ones (cluster_gaps reads 1 / mu, as a gap in lambda is 1 - mu_{n+1}
    / mu_n), then on exhaustion or on the order - 1 cap.
    """
    mus, vecs, sources = _merged(pair, calls, asked)
    # the records are cut to what the sequence reads, so each block's pencil
    # and basis and each call's vectors are freed with the merged ones
    calls[:] = [(block.label, applications, stop) for block, _, _, applications, stop in calls]
    floor = max(EXHAUSTION_RTOL * mus[0], 0.0) if mus else 0.0
    k = int(sum(mu > floor for mu in mus[:asked]))
    kept = vecs[:, :k]
    masses = [u @ b for u, b in zip(kept.T, (pair.B @ kept).T)]
    vectors = kept.copy(order="F")
    del vecs, kept
    vectors /= np.sqrt(masses)
    for i in range(k):
        vectors[:, i] = _fix_sign(pair, vectors[:, i], first_mode=(i == 0))
    # A V and B V in C order, as a block product returns them, one column at a
    # time: a block product would first copy the Fortran-ordered vectors
    lambdas = np.empty(k)
    AV, BV = np.empty((pair.order, k)), np.empty((pair.order, k))
    for i, e in enumerate(vectors.T):
        Ae = pair.A @ e
        lambdas[i] = e @ Ae
        AV[:, i], BV[:, i] = Ae, pair.B @ e
    resid = np.array([_relative_residual(AV[:, i], BV[:, i], lambdas[i]) for i in range(k)])
    floors = _residual_floors(pair, lambdas, vectors, AV)
    converged = [tol is None or bool(r <= tol) for r in resid]
    warnings = [
        f"pair {i + 1} is at its rounding floor: residual {resid[i]:.3e} is "
        f"{resid[i] / floors[i]:.1f} times the floor {floors[i]:.3e} (tol {tol:.0e})"
        if resid[i] <= FLOOR_MARGIN * floors[i] else
        f"pair {i + 1} {calls[sources[i][0]][2]} at residual {resid[i]:.3e} "
        f"(tol {tol:.0e}, mu_n / mu_1 = {mus[i] / mus[0]:.1e})"
        for i in range(k) if not converged[i]
    ]
    _, clusters = cluster_gaps(lambdas)
    if k == asked:  # the mu past the asked ones go on from the last, which is kept
        tail = np.array(mus[k - 1:])
        cut = len(cluster_gaps(1.0 / tail[tail > 0.0])[1][0]) - 1
        if cut:
            warnings.append(f"k = {asked} cuts a cluster: {cut} computed member(s) after "
                            f"pairs {[i + 1 for i in clusters[-1]]} (lambda {lambdas[-1]:.7g}) "
                            "not reported")
    if k < asked:
        warnings.append(f"no further positive eigenvalue found (found {k} of {requested})")
    elif asked < requested:
        warnings.append(
            f"k = {requested} capped at order - 1 = {asked}: the block eigensolver "
            f"returns fewer pairs than the order, so pair {asked + 1} was not computed"
        )
    return EigenSequence(
        lambdas=lambdas,
        vectors=vectors,
        residuals=resid,
        cross_energy=vectors.T @ AV,
        cross_mass=vectors.T @ BV,
        converged=converged,
        requested=requested,
        exhausted=k < asked,
        method=method,
        clusters=clusters,
        warnings=warnings,
        residual_floors=floors,
        sectors=[label for _, label in sources[:k]],
        calls=[{**({} if label is None else {"block": label}),
                "pairs": [i + 1 for i in range(k) if sources[i][0] == index],
                "applications": applications, "stop": stop}
               for index, (label, applications, stop) in enumerate(calls)],
    )


def _bandwidth(A):
    """Largest |i - j| over the stored entries of A, at least 1."""
    coo = A.tocoo()
    return int(np.max(np.abs(coo.row - coo.col), initial=1))


def _lapack_function(name, *argtypes):
    """The C function `name` of scipy's Cython LAPACK (scipy.linalg.cython_lapack),
    called through ctypes with these argument types."""
    capsule = cython_lapack.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(pointer(capsule, capsule_name(capsule)))


_CHAR = ctypes.c_char_p
_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
_DOUBLES = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
_INTS = np.ctypeslib.ndpointer(np.intc, ndim=1, flags="C_CONTIGUOUS")
# eigenvalues of a banded symmetric-definite pencil; scipy.linalg.lapack wraps
# no ?sbgv* routine. Arguments: jobz, range, uplo, n, ka, kb, ab, ldab, bb,
# ldbb, q, ldq, vl, vu, il, iu, abstol, m, w, z, ldz, work, iwork, ifail, info
_DSBGVX = _lapack_function(
    "dsbgvx", _CHAR, _CHAR, _CHAR, _INT, _INT, _INT, _DOUBLES, _INT, _DOUBLES, _INT, _DOUBLES,
    _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _INT, _DOUBLES, _DOUBLES, _INT, _DOUBLES,
    _INTS, _INTS, _INT)


def _equilibration(A):
    """Per dof the power of two s within a factor sqrt(2) of diag(A)^{-1/2}.
    Powers of two scale without rounding, so the pencil scaled by diag(s) on
    both sides is the given one exactly (and as symmetric), and so are the
    vectors scaled back. A nonpositive diag(A) entry is a SolverError: A is
    then not positive definite."""
    d = A.diagonal()
    if not np.all(d > 0.0):
        i = int(np.argmin(d > 0.0))
        raise SolverError(f"energy matrix is not positive definite: diagonal entry {i} "
                          f"is {d[i]:g}")
    return np.ldexp(1.0, -(np.frexp(d)[1] // 2))  # d s^2 lies in [0.5, 2)


def _scaled(M, scale):
    """diag(scale) M diag(scale) for a CSR M: a copy of its data, sharing its index arrays."""
    data = M.data * np.repeat(scale, np.diff(M.indptr)) * scale[M.indices]
    return sp.csr_matrix((data, M.indices, M.indptr), shape=M.shape)


def _equilibrated(M, scale):
    """diag(scale) M diag(scale) as a LinearOperator, applied as scale (M (scale
    x)) without a copy of M: powers of two scale without rounding, so each
    product is _scaled(M, scale)'s."""
    return spla.LinearOperator(M.shape, matvec=lambda x: scale * (M @ (scale * x)), dtype=float)


def _band_rows(M):
    """The tridiagonal M in LAPACK band storage with one super- and one
    subdiagonal: rows superdiagonal, diagonal, subdiagonal, each entry in
    its column (solve_banded's (1, 1) layout; the first two rows are the
    upper band storage of a symmetric M)."""
    return np.array([np.r_[0.0, M.diagonal(1)], M.diagonal(), np.r_[M.diagonal(-1), 0.0]],
                    order="F")


def _tridiagonal_eigh(A, B, m):
    """The m largest mu of B v = mu A v for tridiagonal A and B, and the
    vectors of the positive ones, v^T A v = 1, in O(n m) memory. The work is
    superlinear in n, most of it dsbgvx's reduction, whose bulges run down
    the whole band (k = 6 on radial pencils: 0.006, 0.013, 0.043 and 0.143 s
    at n = 1024, 2048, 4096 and 8192 on a 2-core machine).

    One LAPACK dsbgvx call (eigenvalues only, by index) reduces the pencil to
    a standard one inside its band (Crawford's split Cholesky of A,
    Comm. ACM 16, 1973), tridiagonalizes it and bisects for the m largest
    mu; an A that is not positive definite is a SolverError. Each mu kept by
    _finalize's rule (above EXHAUSTION_RTOL of the largest, and positive)
    takes INVERSE_STEPS steps of inverse iteration (Parlett, The Symmetric
    Eigenvalue Problem, ch. 4) by solve_banded, shifted to mu (1 +
    INVERSE_SHIFT), the j-th started from default_rng([0, j]); the shift
    keeps an exact mu from making the shifted pencil singular. The pencil is
    equilibrated (_dense_pairs), which keeps the vectors accurate where
    diag(A) spans many decades (N = 5: 1e-22 to 1e7). One Rayleigh-Ritz eigh
    call on the span of the vectors makes those of a cluster A-orthogonal.
    Returns the Ritz values ascending and their vectors as columns.
    """
    n = A.shape[0]
    ab, bb = _band_rows(B), _band_rows(A)  # dsbgvx's A is our B, its B our A
    mu = np.zeros(n)
    unused = np.zeros((1, 1), order="F")  # q and z, not referenced without vectors
    i, d = ctypes.c_int, ctypes.c_double
    found, info = i(), i()
    _DSBGVX(b"N", b"I", b"U", i(n), i(1), i(1), ab, i(3), bb, i(3), unused, i(1), d(0.0), d(0.0),
            i(max(n - m, 0) + 1), i(n), d(0.0), found, mu, unused, i(1), np.zeros(7 * n),
            np.zeros(5 * n, np.intc), np.zeros(n, np.intc), info)
    if info.value > n:
        raise SolverError("energy matrix is not positive definite: its leading minor of "
                          f"order {info.value - n} is not positive")
    if info.value != 0:
        raise SolverError(f"banded generalized eigensolve failed (info={info.value})")
    mu = mu[:found.value]
    mu = mu[mu > max(EXHAUSTION_RTOL * mu[-1], 0.0)]
    W = np.empty((n, mu.size))
    for j, shift in enumerate(mu * (1.0 + INVERSE_SHIFT)):
        band = _band_rows(B - shift * A)
        w = np.random.default_rng([0, j]).standard_normal(n)
        for _ in range(INVERSE_STEPS):
            w = sla.solve_banded((1, 1), band, A @ w)
            w /= np.linalg.norm(w)
        W[:, j] = w
    ritz, Y = sla.eigh(W.T @ (B @ W), W.T @ (A @ W))
    return ritz, W @ Y


def solve_dense(pair, k, dense_threshold=DENSE_THRESHOLD):
    """Top-k reference solve of the pencil B v = mu A v of either geometry:
    one pass over _blocks with the ask k for every block under the chain's
    cap and stop (module docstring), one direct call (_dense_pairs) per
    block, whose calls _finalize turns into pairs. Orders of the whole
    pencil above dense_threshold are refused, as is k < 1. Returns the k
    smallest positive lambda; fewer when the pencil has fewer positive
    eigenvalues (reported, not fatal).
    """
    if pair.order > dense_threshold:
        raise SolverError(f"dense solve refused at order {pair.order} > {dense_threshold}")
    if k < 1:
        raise ValueError("k must be >= 1")
    calls = [(block, *_dense_pairs(block, ask)) for block, ask in _blocks(pair, lambda w, W: k)]
    return _finalize(pair, calls, requested=k, asked=k, method="dense")


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
    so the cycle is a fixed SPD operator and a valid CG preconditioner.
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
    return spla.LinearOperator((order, order), matvec=lambda b: _cycle(levels, inv, b),
                               dtype=float)


def _cycle(levels, inv, b, level=0):
    """The V-cycle of _vcycle on b from this level down. A module function,
    so the hierarchy is in no reference cycle and is freed with its operator."""
    if level == len(levels):
        return inv @ b
    A, d, P, R = levels[level]
    x = d * b
    for _ in range(SMOOTHING_SWEEPS - 1):
        x += d * (b - A @ x)
    x += P @ _cycle(levels, inv, R @ (b - A @ x), level + 1)
    for _ in range(SMOOTHING_SWEEPS):
        x += d * (b - A @ x)
    return x


COARSEST_ORDER = 200  # the multigrid hierarchy solves this order and below densely
SMOOTHING_WEIGHT = 0.8  # damped Jacobi
SMOOTHING_SWEEPS = 2  # before and after each coarse correction
EXHAUSTION_RTOL = 1e-12  # mu at or below this fraction of mu_1 is no positive eigenvalue
FLOOR_MARGIN = 10.0  # a residual within this factor of its rounding floor is at the floor
FLOOR_ROWS = 4096  # rows of |A| and |B| formed at a time by _residual_floors
SECTORS = ("eee", "oee", "ooe", "ooo")  # the cube grid's blocks (module docstring)
PROJECTION_ROWS = 2048  # rows of a sector's projected pencil formed at a time (_project)


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


def _project(M, ST):
    """S^T M S for a symmetric CSR M with sorted indices, given ST = S^T as
    CSR, formed PROJECTION_ROWS rows at a time.

    Each block of rows is ST @ (M @ S_block), transposed and sorted, which
    runs the products of (S.T @ M @ S).tocsr() in their order: M stands in
    for its own CSC copy, which holds the same arrays. So the result equals
    that product bit for bit, while only one block's intermediate product is
    held at a time.
    """
    blocks = [(ST @ (M @ ST[i:i + PROJECTION_ROWS].T.tocsr())).T.tocsr()
              for i in range(0, ST.shape[0], PROJECTION_ROWS)]
    return sp.vstack(blocks, format="csr")


@dataclass
class Block:
    """One invariant block of the pencil (module docstring): members lists
    (axes, label) per member, itself first; A, B is S^T A S, S^T B S for its
    orthonormal basis S, and a member's vector is S v on the full dof array
    (of this shape), its axes transposed to axes. If S is None the block is
    the whole pencil as given, which its routes solve equilibrated as
    diag(scale) A diag(scale) and the same of B (_equilibration), and its
    vector is scale v."""

    label: str
    members: list
    A: object
    B: object
    S: object = None
    shape: tuple = None
    scale: object = None


def _members(label):
    """(axes, label) of each sector an axis permutation carries the sector
    label to, label itself first with the identity."""
    members = {}
    for axes in permutations(range(3)):
        members.setdefault("".join(label[a] for a in axes), axes)
    return [(axes, name) for name, axes in members.items()]


def _blocks(pair, rule):
    """Yields (block, ask) for the pencil's invariant blocks in chain order:
    the one owner of the chain's cap and stop (module docstring), with
    rule(w, W) as the ask before the cap.

    By Sylvester's law of inertia a sector's positive mu are its positive B
    entries; the whole pencil has order of them, or none when g^+ vanishes at
    every quadrature point, as B is then negative semidefinite. A sector's S
    is the Kronecker product of the orthonormal 1-D mirror bases, so that an
    absolute tolerance means on it what it means on the full grid.

    Only eee is projected (_project). Each later sector of SECTORS turns one
    more axis odd, and its pencil is its predecessor's on the coordinates j
    >= 1 of that axis, bit for bit: B is diagonal and A couples a node only
    to nodes at most one step away per axis, so for j, j' >= 1 the nodes c +
    j and c - j' never couple, and an even and an odd basis column of the
    same j give the same products."""
    grid = pair.mode == "grid3d"
    total, A = 0, None
    for label in SECTORS if grid else [None]:
        members = _members(label) if grid else [(None, None)]
        total += len(members)
        ask = rule(len(members), total)
        if ask == 0:
            return
        if not grid:
            block = Block(None, members, pair.A, pair.B, scale=_equilibration(pair.A))
            positive = 0 if pair.gplus_vanishes else pair.order
        else:
            c = (pair.geometry.n - 3) // 2
            bases = [_mirror_basis(c, parity) for parity in label]
            S = sp.kron(sp.kron(bases[0], bases[1]), bases[2], format="csr")
            if A is None:
                ST = S.T.tocsr()
                A, B = _project(pair.A, ST), _project(pair.B, ST)
            else:
                # the axis that turned odd (x, y, then z) drops its coordinate j =
                # 0 from the predecessor's dofs, in their Kronecker order
                keep = np.ones(dofs, dtype=bool)
                keep[(slice(None),) * label.rindex("o") + (0,)] = False
                keep = keep.ravel()
                A, B = A[keep][:, keep], B[keep][:, keep]
            dofs = [c + (p == "e") for p in label]  # c + 1 per even axis, c per odd
            block = Block(label, members, A, B, S, (2 * c + 1,) * 3)
            positive = int(np.count_nonzero(B.diagonal() > 0.0))
        ask = min(ask, positive)
        if ask == 0:
            return
        yield block, ask


def _counted(B):
    """B as a LinearOperator counting in .applications the vectors it is
    applied to. Its function reaches it by a weak reference, so B is in no
    reference cycle and is freed with the operator."""
    def apply(X):
        counter().applications += 1 if X.ndim == 1 else X.shape[1]
        return B @ X

    op = spla.LinearOperator(B.shape, matvec=apply, matmat=apply, dtype=float)
    op.applications, counter = 0, weakref.ref(op)
    return op


def _lobpcg(A, B, shape, mirrored, m, settings, seed, sector):
    """The m largest mu of B v = mu A v, B diagonal, by one block LOBPCG call.

    The call runs at most settings.max_iter iterations and is preconditioned
    by CG on A to relative residual 0.1, each CG preconditioned by one
    V-cycle (_vcycle) over the dof array of this shape, with these mirrored
    axes. Column n of the start block is seeded by default_rng([seed, n,
    sector]). Returns LOBPCG's final Rayleigh-Ritz values with their vectors
    as columns, the number of applications of B and the reason the call
    stopped: the iteration cap, LOBPCG's own tolerance, or a breakdown
    (LOBPCG_BREAKDOWNS) named with the iteration it happened in.
    """
    order = A.shape[0]
    op = _counted(B)
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
        return mus, vecs, op.applications, (f"broke down in iteration {iterations} of "
                                             f"{settings.max_iter} ({causes[0]}) and stopped")
    # the loop runs iterations 0..max_iter unless every pair met the tolerance
    if iterations > settings.max_iter:
        return mus, vecs, op.applications, "hit the iteration cap"
    return mus, vecs, op.applications, (f"met LOBPCG's tolerance after {iterations} of "
                                         f"{settings.max_iter} iterations and stopped")


def _block_pairs(block, ask, settings, seed, index):
    """One call for the ask largest mu of a block, the index-th, by its route
    (module docstring) from a start drawn from seed: the mu, their vectors as
    columns, its applications of B and its stop. ARPACK's basis holds 2 ask +
    1 vectors unless B has a negative diagonal entry, and then NCV_PER_PAIR *
    ask, at least 20; at most the order either way. SuperLU factors A with
    panel_size=1 and relax=1 (module docstring). On gaussian M512, M8192 and
    M32768 at seed 1, ask = 1, 2, 3, 6 and 12 take 17-18, 23-25, 25-26, 32
    and 40-47 applications of B, against 21, 21, 21, 31-32 and 40-47 with
    scipy's basis of at least 20. On ring M8192 with ask = 24, whose mu_24 =
    1.3e-4 lies inside the negative mu -0.102, -0.011, ..., its 72 vectors
    take 100 applications of B where 49 take 170. On a gaussian weight,
    whose B is positive definite, they would cost more than they save: 73
    applications against 63. ARPACK stopped by max_iter keeps its pairs
    when it holds all ask of them (its test passed for each), with a stop
    naming the cap. Holding done < ask of them, it raises a SolverError
    naming pair done + 1 and counting done of ask (the whole pencil is one
    block, so its ask is the solve's). ARPACK's other errors are a
    SolverError with ARPACK's message."""
    A, B = block.A, block.B
    if block.S is None:
        # ARPACK runs on the equilibrated pencil, as the dense route does: where
        # diag(A) spans many decades (N = 9: 1e-44 to 1e10) the LU of A itself
        # gives pairs far from converged that ARPACK's test in mu accepts
        try:
            # the equilibrated A is formed for the LU alone; it is exactly
            # symmetric, so its transpose's CSC arrays are its CSR ones
            lu = spla.splu(_scaled(A, block.scale).T, panel_size=1, relax=1)
        except RuntimeError as exc:
            raise SolverError(f"factorization of the energy matrix failed: {exc}") from exc
        op = _counted(_equilibrated(B, block.scale))
        inv = spla.LinearOperator(op.shape, matvec=lu.solve, dtype=float)
        v0 = np.random.default_rng([seed, 0, index]).standard_normal(A.shape[0])
        # B indefinite: its negative end competes for the basis (module docstring)
        ncv = min(max(NCV_PER_PAIR * ask, 20) if np.any(B.diagonal() < 0.0) else 2 * ask + 1,
                  A.shape[0])
        try:
            mus, vecs = spla.eigsh(op, ask, M=_equilibrated(A, block.scale), Minv=inv,
                                   which="LA", v0=v0, ncv=ncv, maxiter=settings.max_iter)
        except spla.ArpackNoConvergence as exc:
            # the restart cap can fall on the pass that converges the last asked pair
            done = len(exc.eigenvalues)
            if done < ask:
                raise SolverError(f"pair {done + 1}: ARPACK did not converge within "
                                  f"{settings.max_iter} restarts ({done} of {ask} pairs "
                                  "converged)") from exc
            return (exc.eigenvalues, exc.eigenvectors, op.applications,
                    f"met ARPACK's tolerance, absolute in mu, at its cap of "
                    f"{settings.max_iter} restarts and stopped")
        except spla.ArpackError as exc:
            raise SolverError(f"ARPACK failed: {exc}") from exc
        return mus, vecs, op.applications, "met ARPACK's tolerance, absolute in mu, and stopped"
    if 5 * ask > np.count_nonzero(B.diagonal()) and A.shape[0] <= DENSE_THRESHOLD:
        # LOBPCG iterates only where B's rank is at least 5 asks (module
        # docstring); one application of B per dof is counted
        mus, vecs = _low_rank_eigh(A, B, ask)
        return mus, vecs, A.shape[0], "was solved densely"
    # a sector keeps c + 1 of an even axis's 2c + 1 nodes, c of an odd one's
    dofs = tuple(s // 2 + (p == "e") for s, p in zip(block.shape, block.label))
    return _lobpcg(A, B, dofs, [p == "e" for p in block.label], ask, settings, seed, index)


def _dense_pairs(block, ask):
    """One direct call for the ask largest mu of a block, the dense
    reference's route: _tridiagonal_eigh on an unprojected tridiagonal
    pencil (every radial one), else one generalized eigh of the block's
    densified pencil (a cube grid's sectors, a dense toy), LAPACK's
    Cholesky congruence, in O(order^3) work. Returns the mu ascending, their
    vectors as columns, and None for the applications and the stop. The
    whole pencil is equilibrated first (_scaled). eigh's LinAlgError (A not
    positive definite) is a SolverError here."""
    A, B, order = block.A, block.B, block.A.shape[0]
    if block.S is None:
        A, B = _scaled(A, block.scale), _scaled(B, block.scale)
        if max(_bandwidth(A), _bandwidth(B)) == 1:
            return (*_tridiagonal_eigh(A, B, ask), None, None)
    try:
        mu, V = sla.eigh(B.toarray(), A.toarray(), overwrite_a=True, overwrite_b=True,
                         check_finite=False, subset_by_index=[order - ask, order - 1])
    except sla.LinAlgError as exc:
        raise SolverError(f"dense eigh failed (its B is the energy matrix): {exc}") from exc
    return mu, V, None, None


def _low_rank_eigh(A, B, m):
    """The m largest mu of B v = mu A v for a diagonal B of rank r, and their
    vectors, v^T A v = 1, solved exactly on B's range in O(n r) memory (the
    Schur-complement form of a pencil with low-rank B; Golub and Van Loan,
    Matrix Computations, 8.7). With P the r dofs where B is nonzero, a
    vector of a nonzero mu is A^{-1} P y / mu, in the range of X = A^{-1} P,
    formed from one splu of A. There the pencil reads diag(b_P) G y = mu y
    for G = P^T X = L L^T, whose symmetric form L^T diag(b_P) L z = mu z one
    eigh call solves, and v = X L^{-T} z has v^T A v = z^T z = 1. Returns
    the mu ascending and their vectors as columns.
    """
    b = B.diagonal()
    dofs = np.flatnonzero(b)
    try:
        X = spla.splu(A.tocsc()).solve(sp.identity(A.shape[0], format="csc")[:, dofs].toarray())
        L = sla.cholesky(X[dofs], lower=True)
    except (RuntimeError, sla.LinAlgError) as exc:
        raise SolverError(f"energy matrix is not positive definite: {exc}") from exc
    mu, Z = sla.eigh(L.T @ (b[dofs, None] * L), subset_by_index=[dofs.size - m, dofs.size - 1])
    return mu, X @ sla.solve_triangular(L, Z, trans="T", lower=True)


def _merged(pair, calls, m):
    """The mu of the block calls, one (block, mu, vectors, applications,
    stop) each, in a stable descending order (equal mu in call order, a
    block's members in turn), and for the first m their vectors on the full
    pencil as columns and their call's index and member's label."""
    found = sorted([(mu, c, j, axes, name) for c, (b, mus, *_) in enumerate(calls)
                    for j, mu in enumerate(mus) for axes, name in b.members],
                   key=lambda f: -f[0])  # stable: members stay in order
    if calls and calls[0][0].S is None:
        # the whole pencil is the only block and needs no carrying: its vectors
        # are reordered and scaled back in place, as a second order x m array
        # would stay in the heap after them (ru_maxrss 1.3 MB higher on ring
        # M8192 k=24)
        b, _, vecs, *_ = calls[0]
        vecs[:] = vecs[:, [f[2] for f in found]]
        vecs *= b.scale[:, None]
    else:
        vecs = np.zeros((pair.order, min(m, len(found))))
        for j, (_, c, column, axes, _) in enumerate(found[:m]):
            b, _, V, *_ = calls[c]
            vecs[:, j] = (b.S @ V[:, column]).reshape(b.shape).transpose(axes).ravel()
    return [f[0] for f in found], vecs, [(f[1], f[4]) for f in found[:m]]


def _maximize_quotient(pair, m, settings, seed):
    """The m largest mu of the pencil (B, A): one _block_pairs call per
    block of _blocks, asked by the interlacing rule floor((m - 1 + w) / W)
    under the chain's cap and stop (module docstring), each a (block, mu,
    vectors, applications, stop) record, in call order."""
    return [(block, *_block_pairs(block, ask, settings, seed, index))
            for index, (block, ask) in enumerate(_blocks(pair, lambda w, W: (m - 1 + w) // W))]


def solve_successive(pair, settings=None, seed=42):
    """The k = settings.k smallest positive eigenpairs as the k largest mu
    of (B, A): one _maximize_quotient call for min(k, order - 1) of them
    from starts drawn from seed, whose mu, vectors and call records _finalize
    turns into pairs, each judged against settings.tol."""
    settings = settings or SolverSettings()
    settings.validate()
    m = min(settings.k, pair.order - 1)
    if m < 1:
        raise SolverError("the successive solve needs an order of at least 2")
    return _finalize(pair, _maximize_quotient(pair, m, settings, seed), requested=settings.k,
                     asked=m, method="successive", tol=settings.tol)


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
    return GrowthReport(
        lambdas=lam.copy(),
        unit_energy=unit_energy,
        mass_values=mass_vals,
        plus_mass_values=plus_vals,
        identity_gaps=np.abs(inv - mass_vals),
        bound_margins=plus_vals - inv,
        ratios=lam / lam[0],
    )
