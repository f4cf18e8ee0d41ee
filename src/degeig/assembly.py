"""Discrete forms for the power-weighted operator on truncated domains.

Assembles the symmetric stiffness matrix A (the energy inner product
integral of |x|^alpha grad u . grad v), the possibly indefinite mass matrix
B (integral of g u v), and the Hardy matrix H (integral of u v / |x|^(2-alpha)),
plus a shared volume quadrature used for L^p norms. Radial mode uses P1
elements with closed-form stiffness integrals; 3-d mode uses a conservative
7-point flux discretization with lumped B and H.
"""

import math

import numpy as np
import scipy.sparse as sp

from .quadrature import gauss_rule
from .weights import WeightDomainError, weight_split

MASS_GAUSS_ORDER = 4  # per-element rule for mass/Hardy/volume quadrature


class AssemblyError(RuntimeError):
    """Raised when a discrete form cannot be assembled."""


def sphere_area(N):
    """Surface area of the unit sphere S^(N-1)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def _symmetrized(mat):
    mat = mat.tocsr()
    return ((mat + mat.T) * 0.5).tocsr()


def _csr(vals, base, offsets, shape, keep=True):
    """CSR matrix from fixed per-row slots, with no COO staging.

    Slot j of row i holds vals[i, j] in column base[i] + offsets[j]; slots
    outside keep or outside the column range are dropped. The offsets
    increase, so every row comes out sorted. base is int32 (orders below
    2^31), which scipy keeps without a copy.
    """
    cols = base[:, None] + np.asarray(offsets, dtype=np.int32)
    keep = keep & (cols >= 0) & (cols < shape[1])
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=shape)


class DiscreteOperatorPair:
    """Assembled operators sharing one degree-of-freedom numbering.

    quad_weights are volume weights (measure included) at the quadrature
    points; interp maps nodal vectors to point values there, so every
    integral of a nodal function runs through the same quadrature path.
    """

    def __init__(self, A, B, H, quad_radii, quad_weights, interp,
                 g_quad, gplus_quad, geometry, N, alpha, mode, dof_positions):
        self.A = A
        self.B = B
        self.H = H
        self.quad_radii = quad_radii
        self.quad_weights = quad_weights
        self.interp = interp
        self.g_quad = g_quad
        self.gplus_quad = gplus_quad
        self.geometry = geometry
        self.N = N
        self.alpha = alpha
        self.mode = mode
        self.dof_positions = dof_positions

    @property
    def order(self):
        return self.A.shape[0]

    @classmethod
    def from_matrices(cls, A, B, H=None, quad_weights=None):
        """Wrap explicit matrices (testing and toy problems).

        The volume quadrature defaults to unit nodal weights with identity
        interpolation; g-dependent helpers are unavailable.
        """
        A = _symmetrized(sp.csr_matrix(A))
        B = _symmetrized(sp.csr_matrix(B))
        n = A.shape[0]
        if B.shape != A.shape:
            raise ValueError("A and B must share their order")
        H = _symmetrized(sp.csr_matrix(H)) if H is not None else sp.csr_matrix((n, n))
        w = np.ones(n) if quad_weights is None else np.asarray(quad_weights, float)
        return cls(A, B, H, None, w, sp.identity(n, format="csr"),
                   None, None, None, None, None, "matrices", np.arange(n, dtype=float))


def _check_vector(pair, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (pair.order,):
        raise ValueError(f"vector of length {u.shape} does not match order {pair.order}")
    return u


def energy_inner(pair, u, v=None):
    """u^T A v: the weighted-gradient inner product."""
    u = _check_vector(pair, u)
    v = u if v is None else _check_vector(pair, v)
    return float(u @ (pair.A @ v))


def mass_inner(pair, u, v=None):
    """u^T B v: the g-weighted form (sign-indefinite when g changes sign)."""
    u = _check_vector(pair, u)
    v = u if v is None else _check_vector(pair, v)
    return float(u @ (pair.B @ v))


def hardy_inner(pair, u, v=None):
    """u^T H v: the form with kernel |x|^(alpha-2)."""
    u = _check_vector(pair, u)
    v = u if v is None else _check_vector(pair, v)
    return float(u @ (pair.H @ v))


def mass_plus_inner(pair, u, v=None):
    """Quadrature of g^+ u v, on the same points as the mass matrix."""
    if pair.gplus_quad is None:
        raise AssemblyError("pair carries no weight data (built from bare matrices)")
    u = _check_vector(pair, u)
    v = u if v is None else _check_vector(pair, v)
    pu = pair.interp @ u
    pv = pu if v is u else pair.interp @ v
    return float(np.sum(pair.quad_weights * pair.gplus_quad * pu * pv))


def volume_integral(pair, u):
    """Quadrature of u over the truncated domain."""
    u = _check_vector(pair, u)
    return float(np.sum(pair.quad_weights * (pair.interp @ u)))


def lp_norm(pair, u, p):
    """(sum_q w_q |u(x_q)|^p)^(1/p) with the pair's volume quadrature."""
    if p < 1.0:
        raise ValueError("lp_norm needs p >= 1")
    u = _check_vector(pair, u)
    vals = np.abs(pair.interp @ u)
    return float(np.sum(pair.quad_weights * vals**p) ** (1.0 / p))


def _eval_weight_per_element(spec, radii_by_element):
    """g and g^+ at every radius from one weight_split, with weight_value's sums
    (so the same bits); on range errors, name the offending element."""
    try:
        gi, gd, gm = weight_split(spec, radii_by_element.ravel())
    except WeightDomainError:
        for e in range(radii_by_element.shape[0]):
            try:
                weight_split(spec, radii_by_element[e])
            except WeightDomainError as exc:
                raise AssemblyError(f"weight evaluation failed on element {e}: {exc}") from exc
        raise
    gplus = gi + gd
    return gplus - gm, gplus


def assemble_radial(mesh, N, alpha, spec):
    """P1 assembly of A, B, H on a radial mesh, reduced over radial functions.

    The stiffness integrand r^(alpha+N-1) phi_i' phi_j' is a monomial times
    constants, so element stiffness entries use the exact antiderivative
    r^(alpha+N)/(alpha+N). Mass and Hardy integrands carry user weights and
    use a fixed Gauss rule per element. The unit-sphere surface factor
    multiplies all volume terms so the matrices represent genuine R^N
    integrals (eigenvalue quotients do not see it; inequality constants do).
    The node at r = R is eliminated (Dirichlet); r = 0 keeps its natural
    degree of freedom.
    """
    if N < 3:
        raise AssemblyError("radial assembly needs N >= 3")
    if not 0.0 < alpha < 2.0:
        raise AssemblyError("alpha must lie in (0, 2)")
    nodes = mesh.nodes
    M = mesh.num_elements
    ndof = M  # nodes 0 .. M-1
    omega = sphere_area(N)
    h = mesh.element_sizes

    # stiffness: exact monomial integrals
    p = alpha + N
    moment = omega * (nodes[1:] ** p - nodes[:-1] ** p) / p  # integral of r^(p-1) per element
    s = moment / h**2
    # element i couples node i to node i + 1, which is a dof unless i = M - 1,
    # so A is tridiagonal and exactly symmetric as built
    left = np.concatenate([[0.0], s[:-1]])  # element i - 1 as seen from node i
    A = _csr(np.column_stack([-left, s + left, -s]), np.arange(M, dtype=np.int32),
             [-1, 0, 1], (ndof, ndof))
    A.eliminate_zeros()  # s underflows to 0 near r = 0 on steeply graded meshes

    # shared volume quadrature: Gauss points per element
    gx, gw = gauss_rule(MASS_GAUSS_ORDER)
    mid = 0.5 * (nodes[1:] + nodes[:-1])
    half = 0.5 * h
    qr = (mid[:, None] + half[:, None] * gx[None, :])  # (M, G)
    qw = (half[:, None] * gw[None, :]) * omega * qr ** (N - 1)

    g_q, gplus_q = _eval_weight_per_element(spec, qr)

    # interpolation from dofs to quadrature points
    G = MASS_GAUSS_ORDER
    nq = M * G
    # point q lies in element q // G and sees the hats of its left and right
    # node; the last element's right node is the boundary node, which is no
    # dof, so its column is out of range
    E = _csr((np.stack([nodes[1:, None] - qr, qr - nodes[:-1, None]], axis=-1)
              / h[:, None, None]).reshape(nq, 2),
             np.arange(nq, dtype=np.int32) // G, [0, 1], (nq, ndof))

    w_flat = qw.ravel()
    B = _symmetrized(E.T @ sp.diags(w_flat * g_q) @ E)
    hardy_kernel = qr.ravel() ** (alpha - 2.0)
    H = _symmetrized(E.T @ sp.diags(w_flat * hardy_kernel) @ E)

    return DiscreteOperatorPair(
        A=A, B=B, H=H,
        quad_radii=qr.ravel(), quad_weights=w_flat, interp=E,
        g_quad=g_q, gplus_quad=gplus_q,
        geometry=mesh, N=N, alpha=alpha, mode="radial",
        dof_positions=nodes[:-1].copy(),
    )


def _sym_norm(points):
    """Euclidean norms computed invariantly under coordinate permutations
    (squares summed in sorted order), so symmetric grids assemble to exactly
    symmetric matrices."""
    sq = np.sort(points**2, axis=-1)
    return np.sqrt(sq.sum(axis=-1))


def origin_cell_kernel_integral(hs, alpha):
    """Exact integral of |x|^(alpha-2) over the cube [-hs/2, hs/2]^3.

    Radial integration first reduces the integral to the cube surface:
    6 a / (alpha+1) * int_{[-a,a]^2} (u^2 + v^2 + a^2)^((alpha-2)/2) du dv
    with a = hs/2. The surface integrand is smooth, so a tensor Gauss rule
    is effectively exact. Finite because alpha - 2 > -3.
    """
    a = 0.5 * hs
    x, w = gauss_rule(32)
    u = a * x  # map [-1,1] -> [-a,a], jacobian a per axis
    U, V = np.meshgrid(u, u, indexing="ij")
    vals = (U**2 + V**2 + a**2) ** ((alpha - 2.0) / 2.0)
    surf = a * a * float(w @ vals @ w)
    return 6.0 * a / (alpha + 1.0) * surf


def _grid_stiffness(grid, alpha):
    """The 7-point flux matrix of assemble_grid3d, exactly symmetric as built.

    A function of its own so that its face and slot arrays are freed before
    the rest of the pair is built.
    """
    n = grid.n
    m = n - 2  # interior nodes per axis; dofs ravel the m^3 of them in C order
    hs = grid.hs
    ax = grid.axis
    o = (n - 1) // 2 - 1  # the origin's interior index along each axis
    lower, upper = [], []  # per axis, each dof's face toward -x_axis and +x_axis
    for axis in range(3):
        # the n - 1 faces normal to this axis on each line of interior nodes;
        # face t joins node t to node t + 1, i.e. interior nodes t - 1 and t
        coords = [ax[1:-1]] * 3
        coords[axis] = 0.5 * (ax[:-1] + ax[1:])
        c = hs * _sym_norm(np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)) ** alpha
        origin_faces = [o] * 3
        origin_faces[axis] = slice(o, o + 2)
        c[tuple(origin_faces)] = hs * hs**alpha / (alpha + 1.0)
        cut = [slice(None)] * 3
        cut[axis] = slice(0, m)
        lower.append(c[tuple(cut)])
        cut[axis] = slice(1, m + 1)
        upper.append(c[tuple(cut)])
    # sorted accumulation keeps the diagonal exactly symmetric under
    # coordinate permutations of the grid
    diag = np.sort(np.stack(lower + upper, axis=-1), axis=-1).sum(axis=-1)
    # each row's seven slots in column order: -x0, -x1, -x2, the dof, +x2, +x1, +x0;
    # a neighbour on the boundary is no dof
    vals = np.stack([-lower[0], -lower[1], -lower[2], diag,
                     -upper[2], -upper[1], -upper[0]], axis=-1).reshape(-1, 7)
    keep = np.ones((m, m, m, 7), dtype=bool)
    keep[0, :, :, 0] = keep[:, 0, :, 1] = keep[:, :, 0, 2] = False
    keep[:, :, -1, 4] = keep[:, -1, :, 5] = keep[-1, :, :, 6] = False
    A = _csr(vals, np.arange(m**3, dtype=np.int32), [-m * m, -m, -1, 0, 1, m, m * m],
             (m**3, m**3), keep.reshape(-1, 7))
    A.eliminate_zeros()  # hs^(1 + alpha) underflows for a tiny L; such entries are not stored
    return A


def assemble_grid3d(grid, alpha, spec):
    """7-point flux discretization on the cube grid (N = 3 only).

    The face coefficient between two adjacent nodes is |x|^alpha at the face
    midpoint; the six faces of the origin-centered cell instead use the exact
    radial average of the power over [0, hs], which keeps the conservation
    form nondegenerate at the singular node. B and H are lumped diagonal;
    the origin's Hardy weight is the exact cell integral of the kernel.
    """
    if not 0.0 < alpha < 2.0:
        raise AssemblyError("alpha must lie in (0, 2)")
    A = _grid_stiffness(grid, alpha)

    hs = grid.hs
    pts = grid.interior_points()
    radii = _sym_norm(pts)
    cell = hs**3
    try:
        gi, gd, gm = weight_split(spec, radii)
    except WeightDomainError as exc:
        raise AssemblyError(f"weight evaluation failed on the grid: {exc}") from exc
    gplus_nodes = gi + gd
    g_nodes = gplus_nodes - gm
    B = sp.diags(cell * g_nodes, format="csr")

    hardy = np.zeros_like(radii)
    nz = radii > 0.0
    hardy[nz] = radii[nz] ** (alpha - 2.0) * cell
    hardy[~nz] = origin_cell_kernel_integral(hs, alpha)
    H = sp.diags(hardy, format="csr")

    return DiscreteOperatorPair(
        A=A, B=B, H=H,
        quad_radii=radii, quad_weights=np.full(grid.num_interior, cell),
        interp=sp.identity(grid.num_interior, format="csr"),
        g_quad=g_nodes, gplus_quad=gplus_nodes,
        geometry=grid, N=3, alpha=alpha, mode="grid3d",
        dof_positions=pts,
    )


def export_coo(mat, path):
    """Write a sparse matrix as sorted 0-based 'i j value' triples."""
    coo = sp.csr_matrix(mat).tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{i} {j} {v:.17g}\n")
