"""Truncated computational domains approximating R^N.

Two geometries: a geometrically graded radial mesh on [0, R] for arbitrary
N >= 3 (the workhorse), and a uniform tensor grid on a cube for the full 3-d
solver. Both impose a homogeneous Dirichlet condition on the outer boundary;
the truncation size is a convergence-study parameter.
"""

import numpy as np


class MeshError(ValueError):
    """Invalid mesh parameters."""


class RadialMesh:
    """Nodes 0 = r_0 < r_1 < ... < r_M = R with geometric element grading.

    Element sizes grow by the factor q away from the origin, so the degenerate
    coefficient r^alpha is resolved where it vanishes. q = 1 is uniform.
    """

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.size < 9:
            raise MeshError("radial mesh needs at least 8 elements")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise MeshError("radial nodes must start at 0 and increase strictly")
        self.nodes = nodes

    @property
    def R(self):
        return float(self.nodes[-1])

    @property
    def num_elements(self):
        return self.nodes.size - 1

    @property
    def element_sizes(self):
        return np.diff(self.nodes)


def build_radial_mesh(R, M, q=1.0):
    """Graded partition of [0, R] into M elements with size ratio q >= 1.

    For q > 1 the first element has size R (q - 1) / (q^M - 1); for q = 1 the
    mesh is uniform.
    """
    if R <= 0.0:
        raise MeshError("truncation radius R must be positive")
    if M < 8:
        raise MeshError("radial mesh needs M >= 8 elements")
    if q < 1.0:
        raise MeshError("grading factor q must be >= 1")
    if q == 1.0:
        nodes = np.linspace(0.0, R, M + 1)
    else:
        # nodes r_i = h1 (q^i - 1)/(q - 1) with h1 = R (q-1)/(q^M - 1)
        powers = np.power(q, np.arange(M + 1, dtype=float))
        nodes = R * (powers - 1.0) / (powers[-1] - 1.0)
        nodes[-1] = R
    return RadialMesh(nodes)


def grading_for_span(M, span):
    """Grading factor q with element dynamic range h_max / h_1 = span."""
    if span < 1.0:
        raise MeshError("grading span must be >= 1")
    if M < 2 or span == 1.0:
        return 1.0
    return float(span ** (1.0 / (M - 1)))


class Grid3D:
    """Uniform tensor grid on [-L, L]^3 with odd node count per axis.

    Oddness puts the origin exactly on a node, so the singular cell of the
    coefficient is centered, and the nodes are placed exactly symmetrically
    about it, so the assembled pencil commutes with the axis mirrors. Boundary nodes carry the Dirichlet condition;
    the interior index set excludes them.
    """

    def __init__(self, L, n):
        if L <= 0.0:
            raise MeshError("half-width L must be positive")
        n = int(n)
        if n < 9 or n % 2 == 0:
            raise MeshError("grid needs an odd node count n >= 9 (origin must be a node)")
        self.L = float(L)
        self.n = n
        self.hs = 2.0 * L / (n - 1)
        # hs (i - c) for the center index c: the origin is exactly a node and
        # the axis exactly antisymmetric, so mirrored nodes carry mirrored
        # coordinates bit for bit
        self.axis = self.hs * (np.arange(n) - (n - 1) // 2)

    @property
    def num_interior(self):
        return (self.n - 2) ** 3

    def interior_points(self):
        """Coordinates of interior nodes, ordered by (ix, iy, iz) raveling."""
        ax = self.axis[1:-1]
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])


def build_grid3d(L, n):
    """Uniform grid on [-L, L]^3; n must be odd and >= 9."""
    return Grid3D(L, n)
