"""Discrete forms for the power-weighted operator on truncated domains.

Assembles the symmetric stiffness matrix A (the energy inner product
integral of |x|^alpha grad u . grad v), the possibly indefinite mass matrix
B (integral of g u v), and the Hardy matrix H (integral of u v / |x|^(2-alpha)),
plus a shared volume quadrature used for L^p norms. Radial mode uses P1
elements with closed-form stiffness integrals, and B and H are tridiagonals
summed ELEMENT_BLOCK elements at a time (_hat_form); 3-d mode uses a conservative
7-point flux discretization with lumped B and H. Every matrix is written
as CSR directly, exactly symmetric, with no COO staging. A pair stores no
interpolation matrix: point values come from the hat functions on a radial
mesh and are the nodal values on the cube (_point_values).

Assembly builds A, B and the dof positions. H, and on a radial mesh the
volume quadrature, are built on first read (DiscreteOperatorPair), from the
same expressions, so solve's eigensolver runs without them. A weight whose
finite values overflow B is refused here, before any solver runs.
"""

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .quadrature import gauss_rule
from .weights import WeightDomainError, weight_split

MASS_GAUSS_ORDER = 4  # per-element rule for mass/Hardy/volume quadrature
ELEMENT_BLOCK = 2048  # elements summed at a time by _hat_form and _at_gauss_points
# min/max sorting networks by input count, their comparators (i, j) in order
# (Knuth, The Art of Computer Programming 3, 5.3.4; six inputs in 12)
SORTING_NETWORKS = {
    3: ((0, 1), (1, 2), (0, 1)),
    6: ((0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3), (4, 5),
        (1, 2), (3, 4)),
}


class AssemblyError(RuntimeError):
    """Raised when a discrete form cannot be assembled."""


def sphere_area(N):
    """Surface area of the unit sphere S^(N-1)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def _symmetrized(mat):
    mat = mat.tocsr()
    return ((mat + mat.T) * 0.5).tocsr()


def _csr(vals, base, offsets, shape, keep):
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

    A pair is built with A, B and the dof positions: on a radial mesh the
    view nodes[:-1] of its mesh's nodes, all but the Dirichlet node at R.
    The Hardy matrix H (read by check, converge's Hardy slack and
    --export-matrices) is built on first read, and so are a radial mesh's
    quad_weights and gplus_quad (read once the eigensolver has returned); a
    cube grid's quadrature comes with B, from the same weight values, and a
    pair from_matrices is given all three.

    quad_weights are volume weights (measure included) at the quadrature
    points and gplus_quad the weight's positive part there, one entry per
    point. On a radial mesh the points are the MASS_GAUSS_ORDER Gauss points
    of each element in turn, and a nodal vector's value at one is the sum of
    its element's two hat functions (_point_values); elsewhere the points are
    the dofs, and a nodal vector is its own point values. So every integral
    of a nodal function runs through the same quadrature path.

    gplus_vanishes is True for a radial pair whose weight's positive part is
    0 at every quadrature point, so that B is negative semidefinite and the
    pencil has no positive eigenvalue; it is False otherwise (a grid's
    sectors count their positive B entries instead).
    """

    gplus_vanishes = False

    def __init__(self, A, B, geometry, N, alpha, mode, dof_positions, spec=None):
        self.A = A
        self.B = B
        self.geometry = geometry
        self.N = N
        self.alpha = alpha
        self.mode = mode
        self.dof_positions = dof_positions
        self.spec = spec

    @property
    def order(self):
        return self.A.shape[0]

    @cached_property
    def H(self):
        if self.mode == "radial":
            return _radial_hardy(self.geometry, self.N, self.alpha)
        return _grid_hardy(self.geometry, self.alpha, self.dof_positions)

    @cached_property
    def quad_weights(self):
        mesh, N = self.geometry, self.N
        return _at_gauss_points(mesh, lambda j, r, h: _volume_weight(N, j, r, h))

    @cached_property
    def gplus_quad(self):
        mesh, spec = self.geometry, self.spec
        return _at_gauss_points(mesh, lambda j, r, h: _positive_part(spec, mesh, r))

    @classmethod
    def from_matrices(cls, A, B):
        """Wrap explicit matrices (testing and toy problems).

        H is zero and the volume quadrature unit nodal weights; g-dependent
        helpers are unavailable.
        """
        A = _symmetrized(sp.csr_matrix(A))
        B = _symmetrized(sp.csr_matrix(B))
        n = A.shape[0]
        if B.shape != A.shape:
            raise ValueError("A and B must share their order")
        pair = cls(A, B, None, None, None, "matrices", np.arange(n, dtype=float))
        pair.H = sp.csr_matrix((n, n))
        pair.quad_weights = np.ones(n)
        pair.gplus_quad = None
        return pair


def _check_vector(pair, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (pair.order,):
        raise ValueError(f"vector of length {u.shape} does not match order {pair.order}")
    return u


def energy_inner(pair, u):
    """u^T A u: the weighted-gradient energy."""
    u = _check_vector(pair, u)
    return float(u @ (pair.A @ u))


def hardy_inner(pair, u):
    """u^T H u: the form with kernel |x|^(alpha-2)."""
    u = _check_vector(pair, u)
    return float(u @ (pair.H @ u))


def _gauss_points(mesh, elements=slice(None)):
    """Per point of the mass rule (MASS_GAUSS_ORDER Gauss points per element),
    its radius in these elements (a slice, all by default) of a radial mesh,
    their sizes and the hat functions of each one's left and right node there."""
    left, right, h = (x[elements] for x in (mesh.nodes[:-1], mesh.nodes[1:], mesh.element_sizes))
    mid, half = 0.5 * (right + left), 0.5 * h
    for x in gauss_rule(MASS_GAUSS_ORDER)[0]:
        r = mid + half * x
        yield r, h, (right - r) / h, (r - left) / h


def _point_values(pair, u):
    """A nodal vector's values at the pair's quadrature points, raveled.

    On a radial mesh each point sees the hats of its element's two nodes;
    the boundary node r = R is no dof and its value is 0. Otherwise the
    points are the dofs.
    """
    if pair.mode != "radial":
        return u
    u = np.append(u, 0.0)
    values = np.empty((pair.order, MASS_GAUSS_ORDER))
    for j, (_, _, left, right) in enumerate(_gauss_points(pair.geometry)):
        values[:, j] = left * u[:-1] + right * u[1:]
    return values.ravel()


def mass_plus_inner(pair, u):
    """Quadrature of g^+ u^2, on the same points as the mass matrix."""
    if pair.gplus_quad is None:
        raise AssemblyError("pair carries no weight data (built from bare matrices)")
    pu = _point_values(pair, _check_vector(pair, u))
    return float(np.sum(pair.quad_weights * pair.gplus_quad * pu * pu))


def volume_integral(pair, u):
    """Quadrature of u over the truncated domain."""
    u = _check_vector(pair, u)
    return float(np.sum(pair.quad_weights * _point_values(pair, u)))


def lp_norm(pair, u, p):
    """(sum_q w_q |u(x_q)|^p)^(1/p) with the pair's volume quadrature."""
    if p < 1.0:
        raise ValueError("lp_norm needs p >= 1")
    u = _check_vector(pair, u)
    vals = np.abs(_point_values(pair, u))
    return float(np.sum(pair.quad_weights * vals**p) ** (1.0 / p))


def _split(spec, mesh, r):
    """weight_split at radii r, one per element; on a range error, name the
    first element with a Gauss point out of range."""
    try:
        return weight_split(spec, r)
    except WeightDomainError:
        points = np.column_stack([p for p, *_ in _gauss_points(mesh)])
        for e, radii in enumerate(points):
            try:
                weight_split(spec, radii)
            except WeightDomainError as exc:
                raise AssemblyError(f"weight evaluation failed on element {e}: {exc}") from exc
        raise


def _hat_form(mesh, weight):
    """The P1 form sum_q w_q phi_a(r_q) phi_b(r_q) over the Gauss points of a
    radial mesh, as a CSR matrix of order M (the boundary node is no dof).

    weight(j, r, h) gives w at Gauss point j, radii r, of elements of sizes
    h; it is called twice per point, and the elements are summed
    ELEMENT_BLOCK at a time, so every temporary is one value per element of
    one block. The matrix equals, bit for bit, the symmetrized (X + X^T) / 2
    of X = E^T diag(w) E with E the interpolation from dofs to the points:
    each sum runs over the points in their order, so a diagonal entry takes
    its left element's points before its right one's, each term is phi_b
    (phi_a w), an off-diagonal entry averages the sums of its two triangles,
    and an entry whose sum is 0 is not stored.
    """
    M = mesh.num_elements
    diag, upper, lower = np.zeros(M), np.zeros(M), np.zeros(M)
    for start in range(0, M, ELEMENT_BLOCK):
        block = slice(start, start + ELEMENT_BLOCK)
        right_of = diag[start + 1:start + ELEMENT_BLOCK + 1]  # node a, right of element a - 1
        for j, (r, h, left, right) in enumerate(_gauss_points(mesh, block)):
            w = weight(j, r, h)
            right_of += (right * (right * w))[:right_of.size]  # node M is no dof
            upper[block] += right * (left * w)  # row a, column a + 1
            lower[block] += left * (right * w)  # row a + 1, column a
        for j, (r, h, left, _) in enumerate(_gauss_points(mesh, block)):
            diag[block] += left * (left * weight(j, r, h))  # node a as element a's left node
    upper += lower
    del lower
    # a sum is stored when nonzero before halving, which may underflow to 0
    stored = upper != 0.0
    upper *= 0.5
    return _tridiagonal(diag, upper, stored)


def _tridiagonal(diag, upper, stored):
    """The symmetric tridiagonal CSR matrix with this diagonal and with upper[i]
    in row i, column i + 1 and in its mirror, storing the nonzero diagonal
    entries and the off-diagonal ones where stored holds (upper[-1] and
    stored[-1] lie past the matrix).

    The CSR arrays are written at their final size. Row i holds (i, i - 1),
    (i, i) and (i, i + 1), each if stored, in that order, so (i, i + 1) is
    the last slot of row i and its mirror (i + 1, i) the first of row i + 1.
    """
    M = diag.size
    up = stored.copy()
    up[-1] = False
    nonzero = diag != 0.0
    counts = nonzero.astype(np.int32)
    counts += up
    counts[1:] += up[:-1]
    indptr = np.zeros(M + 1, dtype=np.int32)
    np.cumsum(counts, dtype=np.int32, out=indptr[1:])
    del counts
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    ends, rows = indptr[1:], np.arange(M, dtype=np.int32)
    vals, cols, at = upper[up], rows[up], ends[up]
    data[at], indices[at] = vals, cols  # (i + 1, i)
    at -= 1
    cols += 1
    data[at], indices[at] = vals, cols  # (i, i + 1)
    del vals, cols
    at = ends[nonzero]
    at -= 1
    at -= up[nonzero]
    data[at], indices[at] = diag[nonzero], rows[nonzero]  # (i, i)
    return sp.csr_matrix((data, indices, indptr), shape=(M, M))


def _volume_weight(N, j, r, h):
    """Volume weights (measure included) at Gauss point j, radii r, of
    elements of sizes h of a radial mesh."""
    gw = gauss_rule(MASS_GAUSS_ORDER)[1]
    return (0.5 * h * gw[j]) * sphere_area(N) * r ** (N - 1)


def _positive_part(spec, mesh, r):
    """g^+ at radii r, one per element."""
    gi, gd, _ = _split(spec, mesh, r)
    return gi + gd


def _at_gauss_points(mesh, value):
    """value(j, r, h) at the mass rule's points of a radial mesh (as in
    _hat_form), raveled element by element: an (M, G) array filled
    ELEMENT_BLOCK elements and one Gauss point at a time."""
    out = np.empty((mesh.num_elements, MASS_GAUSS_ORDER))
    for start in range(0, mesh.num_elements, ELEMENT_BLOCK):
        block = slice(start, start + ELEMENT_BLOCK)
        for j, (r, h, _, _) in enumerate(_gauss_points(mesh, block)):
            out[block, j] = value(j, r, h)
    return out.ravel()


def _mass(spec, build):
    """The mass matrix that build() returns, refused with an AssemblyError
    naming the weight when one of its entries overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        B = build()
    if not np.isfinite(B.data).all():
        raise AssemblyError(f"weight '{spec.name}' overflows the mass matrix B: "
                            "an entry is not finite")
    return B


def _radial_hardy(mesh, N, alpha):
    """H of assemble_radial: the hat form of the kernel r^(alpha - 2)."""
    return _hat_form(mesh, lambda j, r, h: _volume_weight(N, j, r, h) * r ** (alpha - 2.0))


def assemble_radial(mesh, N, alpha, spec):
    """P1 assembly of A and B on a radial mesh, reduced over radial functions
    (H and the volume quadrature follow on first read, DiscreteOperatorPair).

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
    nodes, h = mesh.nodes, mesh.element_sizes

    # stiffness: exact monomial integrals (of r^(p-1) per element); dofs are
    # nodes 0 .. M - 1
    p = alpha + N
    moment = sphere_area(N) * (nodes[1:] ** p - nodes[:-1] ** p) / p
    s = moment / h**2
    # element i couples node i to node i + 1, which is a dof unless i = M - 1,
    # so A is tridiagonal and exactly symmetric as built; s underflows to 0
    # near r = 0 on steeply graded meshes, and such entries are not stored
    A = _tridiagonal(s + np.r_[0.0, s[:-1]], -s, s != 0.0)
    del h, moment, s

    gplus_vanishes = True

    def mass_weight(j, r, h):  # w_q g, with g = g^+ - g^-, one temporary at a time
        nonlocal gplus_vanishes
        gi, gd, gm = _split(spec, mesh, r)
        g = gi + gd
        del gi, gd
        gplus_vanishes = gplus_vanishes and not np.any(g > 0.0)
        g -= gm
        del gm
        g *= _volume_weight(N, j, r, h)
        return g

    B = _mass(spec, lambda: _hat_form(mesh, mass_weight))
    pair = DiscreteOperatorPair(A, B, mesh, N, alpha, "radial", nodes[:-1], spec)
    pair.gplus_vanishes = gplus_vanishes
    return pair


def _sorted_sum(terms):
    """The elementwise sum of the equal-shape arrays in terms, added in
    ascending order of value, so invariant under any permutation of them.
    One SORTING_NETWORKS pass orders each element's values with no
    per-element sort, and the sum runs as numpy sums a short last axis, so it
    equals np.sort(np.stack(terms, axis=-1), axis=-1).sum(axis=-1) bit for
    bit."""
    terms = list(terms)
    for i, j in SORTING_NETWORKS[len(terms)]:
        terms[i], terms[j] = np.minimum(terms[i], terms[j]), np.maximum(terms[i], terms[j])
    total = terms[0] + terms[1]
    for term in terms[2:]:
        total += term
    return total


def _sym_norm(points):
    """Euclidean norms computed invariantly under coordinate permutations
    (squares summed in sorted order, _sorted_sum), so symmetric grids
    assemble to exactly symmetric matrices."""
    return np.sqrt(_sorted_sum(points[..., i] ** 2 for i in range(points.shape[-1])))


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
    diag = _sorted_sum(lower + upper)
    # each row's seven slots in column order: -x0, -x1, -x2, the dof, +x2, +x1, +x0;
    # a neighbour on the boundary is no dof
    vals = np.stack([-lower[0], -lower[1], -lower[2], diag,
                     -upper[2], -upper[1], -upper[0]], axis=-1).reshape(-1, 7)
    del lower, upper, diag
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
    the origin's Hardy weight is the exact cell integral of the kernel. H is
    built on first read (_grid_hardy); the quadrature comes with B.
    """
    if not 0.0 < alpha < 2.0:
        raise AssemblyError("alpha must lie in (0, 2)")
    A = _grid_stiffness(grid, alpha)

    hs = grid.hs
    pts = grid.interior_points()
    cell = hs**3
    try:
        gi, gd, gm = weight_split(spec, _sym_norm(pts))
    except WeightDomainError as exc:
        raise AssemblyError(f"weight evaluation failed on the grid: {exc}") from exc
    gplus_nodes = gi + gd
    B = _mass(spec, lambda: sp.diags(cell * (gplus_nodes - gm), format="csr"))

    pair = DiscreteOperatorPair(A, B, grid, 3, alpha, "grid3d", pts, spec)
    pair.quad_weights, pair.gplus_quad = np.full(grid.num_interior, cell), gplus_nodes
    return pair


def _grid_hardy(grid, alpha, pts):
    """H of assemble_grid3d: lumped, the kernel |x|^(alpha - 2) times the cell
    volume at each dof, and its exact cell integral at the origin."""
    radii = _sym_norm(pts)
    hardy = np.zeros_like(radii)
    nz = radii > 0.0
    hardy[nz] = radii[nz] ** (alpha - 2.0) * grid.hs**3
    hardy[~nz] = origin_cell_kernel_integral(grid.hs, alpha)
    return sp.diags(hardy, format="csr")


def export_coo(mat, path):
    """Write a sparse matrix as sorted 0-based 'i j value' triples."""
    coo = sp.csr_matrix(mat).tocoo()
    order = np.lexsort((coo.col, coo.row))
    np.savetxt(path, np.column_stack((coo.row, coo.col, coo.data))[order], fmt="%d %d %.17g")
