import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from degeig.assembly import (
    AssemblyError,
    DiscreteOperatorPair,
    assemble_grid3d,
    assemble_radial,
    energy_inner,
    export_coo,
    hardy_inner,
    lp_norm,
    mass_plus_inner,
    origin_cell_kernel_integral,
    sphere_area,
    volume_integral,
)
from degeig.inequalities import hardy_constant, smooth_bump
from degeig.mesh import build_grid3d, build_radial_mesh
from degeig.quadrature import radial_integral
from degeig.weights import gaussian_bump, indicator_ball, sign_changing_ring, tabulated

OMEGA3 = 4.0 * np.pi


def ball_volume(N, R):
    return sphere_area(N) * R**N / N


def uniform_pair(M=64, R=2.0, alpha=1.0, spec=None):
    mesh = build_radial_mesh(R, M, 1.0)
    return assemble_radial(mesh, 3, alpha, spec or indicator_ball(2.0 * R))


class TestRadialStiffness:
    def test_single_element_hand_integral(self):
        # off-diagonal on the first element: -omega * h^(alpha+N-2)/(alpha+N)
        M, R, alpha, N = 16, 1.0, 0.7, 3
        mesh = build_radial_mesh(R, M, 1.0)
        pair = assemble_radial(mesh, N, alpha, indicator_ball(2.0))
        h = R / M
        expected = -OMEGA3 * h ** (alpha + N - 2.0) / (alpha + N)
        assert_allclose(pair.A[0, 1], expected, rtol=1e-14)

    def test_entries_match_symbolic_integration(self):
        # property over random elements: closed form vs adaptive quadrature
        rng = np.random.default_rng(7)
        mesh = build_radial_mesh(3.0, 32, 1.08)
        N, alpha = 4, 1.3
        pair = assemble_radial(mesh, N, alpha, indicator_ball(6.0))
        omega = sphere_area(N)
        for i in rng.integers(0, 31, size=8):
            a, b = mesh.nodes[i], mesh.nodes[i + 1]
            h = b - a
            val, _ = quad(lambda r: r ** (alpha + N - 1.0) / h**2, a, b, epsrel=1e-13)
            s = omega * val
            diag = pair.A[i, i] - (
                omega
                * quad(lambda r: r ** (alpha + N - 1.0) / (a - mesh.nodes[i - 1]) ** 2,
                       mesh.nodes[i - 1], a, epsrel=1e-13)[0]
                if i > 0 else 0.0
            )
            assert_allclose(diag, s, rtol=1e-12)
            if i + 1 < 32:
                assert_allclose(pair.A[i, i + 1], -s, rtol=1e-12)

    def test_vanishing_alpha_recovers_classical_radial_matrices(self):
        # alpha -> 0: stiffness/mass of -(r^2 u')' = lambda r^2 u
        M, R = 16, 1.0
        mesh = build_radial_mesh(R, M, 1.0)
        pair = assemble_radial(mesh, 3, 1e-12, indicator_ball(2.0))
        h = R / M
        nodes = mesh.nodes
        s_classic = OMEGA3 * (nodes[1:] ** 3 - nodes[:-1] ** 3) / (3.0 * h**2)
        for i in range(M - 1):
            assert_allclose(pair.A[i, i + 1], -s_classic[i], rtol=1e-9)
        # consistent mass against exact integral of r^2 phi_i phi_{i+1}
        i = 5
        a, b = nodes[i], nodes[i + 1]
        exact = OMEGA3 * quad(
            lambda r: r**2 * (b - r) * (r - a) / h**2, a, b, epsrel=1e-13
        )[0]
        assert_allclose(pair.B[i, i + 1], exact, rtol=1e-9)

    def test_structural_symmetry_and_definiteness(self, gaussian_pair_512, rng):
        pair = gaussian_pair_512
        for mat in (pair.A, pair.B, pair.H):
            assert (mat != mat.T).nnz == 0
        assert np.all(pair.A.diagonal() > 0.0)
        for _ in range(10):
            u = rng.standard_normal(pair.order)
            assert energy_inner(pair, u) > 0.0

    def test_energy_zero_only_for_zero_vector(self, gaussian_pair_512):
        assert energy_inner(gaussian_pair_512, np.zeros(gaussian_pair_512.order)) == 0.0


class TestMassAndHardy:
    def test_ring_mass_has_negative_diagonal(self):
        mesh = build_radial_mesh(6.0, 128, 1.0)
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring(1.0, 2.0, 1.0, -0.5))
        radii = pair.dof_positions
        inside_shell = (radii > 2.05) & (radii < 2.95)
        assert np.any(pair.B.diagonal()[inside_shell] < 0.0)

    def test_mass_bilinearity(self, gaussian_pair_512, rng):
        pair = gaussian_pair_512
        u, v, w = (rng.standard_normal(pair.order) for _ in range(3))
        lhs = u @ (pair.B @ (v + w))
        rhs = u @ (pair.B @ v) + u @ (pair.B @ w)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_boundary_hat_mass_positive(self):
        # hat concentrated near R with g = 1 there: direct quadrature oracle
        M, R = 64, 2.0
        pair = uniform_pair(M, R)
        mesh = pair.geometry
        u = np.zeros(pair.order)
        u[-1] = 1.0  # hat at the last interior node
        a, b, c = mesh.nodes[-3], mesh.nodes[-2], mesh.nodes[-1]
        left = quad(lambda r: r**2 * ((r - a) / (b - a)) ** 2, a, b, epsrel=1e-12)[0]
        right = quad(lambda r: r**2 * ((c - r) / (c - b)) ** 2, b, c, epsrel=1e-12)[0]
        expected = OMEGA3 * (left + right)
        got = u @ (pair.B @ u)
        assert got > 0.0
        assert_allclose(got, expected, rtol=1e-9)

    def test_mass_plus_dominates_mass(self, rng):
        mesh = build_radial_mesh(6.0, 128, 1.0)
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring())
        for _ in range(5):
            u = rng.standard_normal(pair.order)
            assert mass_plus_inner(pair, u) >= u @ (pair.B @ u) - 1e-14

    def test_discrete_hardy_inequality_random_vectors(self, rng):
        pair = uniform_pair(128, 2.0, alpha=0.8)
        const = hardy_constant(3, 0.8)
        for _ in range(30):
            u = rng.standard_normal(pair.order)
            assert hardy_inner(pair, u) <= const * energy_inner(pair, u) * (1.0 + 1e-3)


class TestVolumeQuadrature:
    def test_lp1_constant_vector_gives_ball_volume(self):
        pair = uniform_pair(M=512, R=2.0)
        ones = np.ones(pair.order)
        vol = lp_norm(pair, ones, 1.0)
        assert_allclose(vol, ball_volume(3, 2.0), rtol=1e-2)
        # exact oracle: the represented function ramps to 0 over the last element
        a, b = pair.geometry.nodes[-2], pair.geometry.nodes[-1]
        ramp = quad(lambda r: r**2 * (b - r) / (b - a), a, b, epsrel=1e-13)[0]
        exact = ball_volume(3, a) + OMEGA3 * ramp
        assert_allclose(vol, exact, rtol=1e-9)

    def test_lp2_matches_mass_inner_for_unit_weight(self, rng):
        pair = uniform_pair(M=64, R=2.0)  # weight is 1 on the whole mesh
        for _ in range(5):
            u = rng.standard_normal(pair.order)
            mass = u @ (pair.B @ u)
            assert abs(lp_norm(pair, u, 2.0) ** 2 - mass) <= 1e-10 * mass

    def test_homogeneity(self, gaussian_pair_512, rng):
        u = rng.standard_normal(gaussian_pair_512.order)
        n1 = lp_norm(gaussian_pair_512, u, 2.5)
        n2 = lp_norm(gaussian_pair_512, -3.0 * u, 2.5)
        assert_allclose(n2, 3.0 * n1, rtol=1e-14)
        with pytest.raises(ValueError):
            lp_norm(gaussian_pair_512, u, 0.5)

    def test_energy_consistency_order(self):
        # interpolant energy converges to the continuum integral at order ~2
        prof = smooth_bump(1.0)
        N, alpha = 3, 1.0
        ref = OMEGA3 * radial_integral(
            lambda r: prof.deriv(r) ** 2 * r ** (alpha + N - 1.0), 1e-12, 1.0,
            order=30, panels_per_decade=12,
        )
        errs = []
        for M in (32, 64, 128):
            pair = uniform_pair(M, 2.0, alpha=alpha)
            u = prof.value(pair.dof_positions)
            errs.append(abs(energy_inner(pair, u) - ref))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.8)


class TestGrid3D:
    def test_vanishing_alpha_recovers_seven_point_laplacian(self):
        grid = build_grid3d(1.0, 9)
        pair = assemble_grid3d(grid, 1e-12, indicator_ball(10.0))
        hs = grid.hs
        n_int = grid.num_interior
        # interior-interior couplings all equal -hs; full interior diagonal 6 hs
        vals = pair.A.tocoo()
        mask = vals.row != vals.col
        assert_allclose(vals.data[mask], -hs, rtol=1e-9)
        center = (np.abs(pair.dof_positions) < 1e-12).all(axis=1).nonzero()[0][0]
        assert_allclose(pair.A[center, center], 6.0 * hs, rtol=1e-9)
        assert pair.order == n_int

    def test_origin_hardy_weight_finite_and_matches_brute_force(self):
        hs, alpha = 0.5, 1.0
        val = origin_cell_kernel_integral(hs, alpha)
        assert np.isfinite(val) and val > 0.0
        # independent oracle: midpoint sum outside a small ball + exact ball part
        K = 160
        a = hs / 2.0
        xs = (np.arange(K) + 0.5) * hs / K - a
        X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
        r = np.sqrt(X**2 + Y**2 + Z**2)
        rb = 0.3 * a
        cell = (hs / K) ** 3
        outer = np.sum(np.where(r > rb, r ** (alpha - 2.0), 0.0)) * cell
        inner = 4.0 * np.pi * rb ** (alpha + 1.0) / (alpha + 1.0)
        assert_allclose(val, outer + inner, rtol=3e-2)

    def test_origin_kernel_limit_is_cell_volume(self):
        # alpha -> 2 turns the kernel into 1
        assert_allclose(origin_cell_kernel_integral(0.4, 1.999999), 0.4**3, rtol=1e-4)

    def test_octahedral_symmetry_commutes(self):
        grid = build_grid3d(1.5, 11)
        pair = assemble_grid3d(grid, 0.7, gaussian_bump())
        m = grid.n - 2
        idx = np.arange(m**3).reshape(m, m, m)
        perm = idx.transpose(1, 0, 2).ravel()  # swap x and y
        P = np.zeros((m**3, m**3))
        P[np.arange(m**3), perm] = 1.0
        A = pair.A.toarray()
        assert np.array_equal(P @ A @ P.T, A)

    @pytest.mark.parametrize("L, n, alpha", [(1.0, 9, 0.3), (6.0, 15, 1.0), (3.7, 21, 1.7)])
    @pytest.mark.parametrize("weight", [gaussian_bump, sign_changing_ring])
    def test_pencil_invariant_under_cube_symmetries(self, L, n, alpha, weight):
        # the axis is hs (i - c), exactly antisymmetric, so every reflection
        # x_a -> -x_a and every swap of two axes maps A and B onto themselves
        # bit for bit: P A P^T == A and P B P^T == B
        pair = assemble_grid3d(build_grid3d(L, n), alpha, weight())
        idx = np.arange(pair.order).reshape((n - 2,) * 3)
        for perm in (idx[::-1], idx[:, ::-1], idx[:, :, ::-1],
                     idx.transpose(1, 0, 2), idx.transpose(2, 1, 0), idx.transpose(0, 2, 1)):
            p = perm.ravel()
            for M in (pair.A, pair.B):
                assert (M[p][:, p] != M).nnz == 0

    def test_lumped_mass_and_quadrature_agree(self, rng):
        grid = build_grid3d(1.0, 9)
        unit = assemble_grid3d(grid, 1.0, indicator_ball(10.0))
        u = rng.standard_normal(unit.order)
        assert_allclose(lp_norm(unit, u, 2.0) ** 2, u @ (unit.B @ u), rtol=1e-12)


class TestErrorsAndExport:
    def test_tabulated_out_of_range_names_element(self):
        spec = tabulated([0.0, 1.0], [1.0, 1.0])
        mesh = build_radial_mesh(2.0, 16, 1.0)
        with pytest.raises(AssemblyError, match="element"):
            assemble_radial(mesh, 3, 1.0, spec)

    def test_alpha_validation(self):
        mesh = build_radial_mesh(1.0, 8, 1.0)
        with pytest.raises(AssemblyError):
            assemble_radial(mesh, 3, 2.0, gaussian_bump())
        with pytest.raises(AssemblyError):
            assemble_radial(mesh, 2, 1.0, gaussian_bump())

    def test_dimension_mismatch(self, gaussian_pair_512):
        with pytest.raises(ValueError):
            energy_inner(gaussian_pair_512, np.ones(3))

    def test_export_coo_sorted_triples(self, tmp_path):
        pair = DiscreteOperatorPair.from_matrices(
            np.array([[2.0, -1.0], [-1.0, 2.0]]), np.eye(2)
        )
        path = tmp_path / "A.txt"
        export_coo(pair.A, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].split() == ["0", "0", "2"]
        assert len(lines) == 4

    def test_from_matrices_plumbing(self):
        pair = DiscreteOperatorPair.from_matrices(np.eye(3), np.diag([1.0, 2.0, 3.0]))
        assert pair.order == 3
        assert volume_integral(pair, np.ones(3)) == 3.0
        with pytest.raises(AssemblyError):
            mass_plus_inner(pair, np.ones(3))


def _csr_bytes(mat):
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def _radial_pair_bytes(pair):
    """Bytes held by what radial assembly builds: A, B and the dof positions
    (H and the quadrature are built on first read)."""
    return pair.dof_positions.nbytes + _csr_bytes(pair.A) + _csr_bytes(pair.B)


def _assemble(kind, n):
    if kind == "grid":
        return assemble_grid3d(build_grid3d(6.0, n), 1.0, gaussian_bump())
    if kind == "tiny-grid":  # hs^(1 + alpha) subnormal: some faces underflow to 0
        return assemble_grid3d(build_grid3d(1e-129, n), 1.5, gaussian_bump())
    spec = sign_changing_ring() if kind == "ring" else gaussian_bump()
    return assemble_radial(build_radial_mesh(6.0, n, 1.0), 3, 1.0, spec)


def _hat_interpolation(mesh):
    """The (M, G) radii and element-scaled Gauss weights (h / 2 w_j, no
    measure) of the mass quadrature, and the
    interpolation E from dofs to those points (row q: point q, raveled), staged
    through COO triples the way assembly once built it."""
    import scipy.sparse as sp

    from degeig.assembly import MASS_GAUSS_ORDER
    from degeig.quadrature import gauss_rule

    nodes, h = mesh.nodes, mesh.element_sizes
    gx, gw = gauss_rule(MASS_GAUSS_ORDER)
    M, G = h.size, gx.size
    qr = 0.5 * (nodes[1:] + nodes[:-1])[:, None] + (0.5 * h)[:, None] * gx[None, :]
    q = np.arange(M * G)
    inner = q // G < M - 1  # the last element's right node is the boundary, no dof
    E = sp.coo_matrix((np.concatenate([((nodes[1:, None] - qr) / h[:, None]).ravel(),
                                       ((qr - nodes[:-1, None]) / h[:, None]).ravel()[inner]]),
                       (np.concatenate([q, q[inner]]),
                        np.concatenate([q // G, q[inner] // G + 1]))), shape=(M * G, M))
    return qr, (0.5 * h)[:, None] * gw[None, :], E.tocsr()


def _coo_reference(pair):
    """A staged through COO triples and symmetrized, the way assembly built
    it before it wrote CSR directly."""
    import scipy.sparse as sp

    from degeig.assembly import _sym_norm, _symmetrized

    if pair.mode == "radial":
        nodes, h = pair.geometry.nodes, pair.geometry.element_sizes
        M, p = h.size, pair.alpha + pair.N
        s = sphere_area(pair.N) * (nodes[1:] ** p - nodes[:-1] ** p) / p / h**2
        i = np.arange(M - 1)
        A = sp.coo_matrix((np.concatenate([s, s[:-1], -s[:-1], -s[:-1]]),
                           (np.concatenate([np.arange(M), i + 1, i, i + 1]),
                            np.concatenate([np.arange(M), i + 1, i + 1, i]))), shape=(M, M))
        return _symmetrized(A)
    grid, alpha = pair.geometry, pair.alpha
    n, hs = grid.n, grid.hs
    dof = -np.ones((n, n, n), dtype=np.int64)
    dof[1:-1, 1:-1, 1:-1] = np.arange(pair.order).reshape((n - 2,) * 3)
    dof = dof.ravel()
    X, Y, Z = np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij")
    coords = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    origin = ((n - 1) // 2 * n + (n - 1) // 2) * n + (n - 1) // 2
    rows, cols, vals = [], [], []
    face = np.zeros((pair.order, 6))
    for axis, stride in enumerate((n * n, n, 1)):
        cut = [slice(None)] * 3
        cut[axis] = slice(0, n - 1)
        a = np.arange(n**3).reshape((n, n, n))[tuple(cut)].ravel()
        b = a + stride
        c = hs * _sym_norm(0.5 * (coords[a] + coords[b])) ** alpha
        c[(a == origin) | (b == origin)] = hs * hs**alpha / (alpha + 1.0)
        da, db = dof[a], dof[b]
        both = (da >= 0) & (db >= 0)
        face[da[da >= 0], 2 * axis] = c[da >= 0]
        face[db[db >= 0], 2 * axis + 1] = c[db >= 0]
        rows += [da[both], db[both]]
        cols += [db[both], da[both]]
        vals += [-c[both], -c[both]]
    rows.append(np.arange(pair.order))
    cols.append(np.arange(pair.order))
    vals.append(np.sort(face, axis=1).sum(axis=1))
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(pair.order, pair.order))
    return _symmetrized(A)


def _same_csr(X, Y):
    return all(np.array_equal(getattr(X, f), getattr(Y, f)) for f in ("data", "indices", "indptr"))


def _same_bits(X, Y):
    """The CSR arrays of X and Y hold the same bytes in the same dtypes."""
    return all(getattr(X, f).dtype == getattr(Y, f).dtype
               and getattr(X, f).tobytes() == getattr(Y, f).tobytes()
               for f in ("data", "indices", "indptr"))


class TestDirectAssembly:
    def test_radial_dof_positions_view_the_mesh_nodes(self, gaussian_pair_512):
        # every node but the Dirichlet one at R, read in place, not copied
        pair = gaussian_pair_512
        assert np.shares_memory(pair.dof_positions, pair.geometry.nodes)
        assert np.array_equal(pair.dof_positions, pair.geometry.nodes[:-1])

    @pytest.mark.parametrize("kind, n", [("grid", 15), ("ring", 512), ("gaussian", 512),
                                         ("tiny-grid", 11)])
    def test_stiffness_symmetric_as_built(self, monkeypatch, kind, n):
        # A, B and H are exactly symmetric without the (A + A^T) / 2 pass,
        # and A equals, bit for bit, its COO-staged and symmetrized reference.
        # On the tiny grid (L = 1e-129, alpha = 1.5, found by a scan of L)
        # some faces and diagonal entries underflow to 0 and others do not
        import degeig.assembly as assembly

        symmetrized = []
        real = assembly._symmetrized
        monkeypatch.setattr(assembly, "_symmetrized",
                            lambda mat: symmetrized.append(real(mat)) or symmetrized[-1])
        pair = _assemble(kind, n)
        for mat in (pair.A, pair.B, pair.H):
            assert (mat - mat.T).nnz == 0
        assert not symmetrized
        monkeypatch.undo()
        assert _same_csr(pair.A, _coo_reference(pair))
        if kind == "tiny-grid":
            assert 0 < pair.A.nnz < _assemble("grid", n).A.nnz
            assert np.count_nonzero(pair.A.diagonal()) < pair.order

    @pytest.mark.parametrize("kind, n, bound", [("grid", 31, 2.0), ("ring", 8192, 1.95)])
    def test_assembly_peak_near_live_size(self, kind, n, bound):
        # No COO staging and no symmetrizing copy of A. The grid's peak is
        # A's writing (_symmetric_csr), before B exists, so it is measured
        # against A's bytes: 1.89x at 31^3 (3.94 MB). Staging seven slots per
        # row as (m^3, 7) arrays and masks took 2.39x; against everything the
        # pair held it was 4.3x with COO staging. The radial peak (M = 8192)
        # is 1.80x what assembly builds, with B's Gauss-point temporaries held
        # for ELEMENT_BLOCK elements at a time; held for every element it was
        # 2.65x, and staged tridiagonals, an eager H and an eager quadrature
        # made it 5.0x
        import tracemalloc

        _assemble(kind, n)  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            pair = _assemble(kind, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        live = _csr_bytes(pair.A) if kind == "grid" else _radial_pair_bytes(pair)
        assert peak <= bound * live

    def test_symmetric_csr_equals_the_symmetrized_coo_reference(self, rng):
        # _symmetric_csr against the same matrix staged through COO triples
        # and (X + X^T) / 2, X holding each upper sum t once: sums of either
        # sign across scales, zeros, and the smallest subnormal, whose half
        # underflows to a stored 0; stored masks that leave out nonzero sums;
        # entries past the matrix; zero diagonal entries; an order-1 matrix,
        # one with no slot, and one with nothing stored
        import scipy.sparse as sp

        from degeig.assembly import _symmetric_csr, _symmetrized

        def case(n, offsets):
            diag = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
            diag[rng.random(n) < 0.3] = 0.0
            slots = []
            for offset in offsets:
                t = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
                t[rng.random(n) < 0.2] = 0.0
                t[rng.random(n) < 0.1] = rng.choice([-5e-324, 5e-324])
                slots.append((offset, t, (t != 0.0) & (rng.random(n) < 0.8)))
            return diag, slots

        cases = [case(60, [1, 2, 7, 59, 60]), case(60, [3, 11]), case(1, [1]), case(25, []),
                 (np.zeros(40), [(1, np.ones(40), np.zeros(40, dtype=bool)),
                                 (5, np.ones(40), np.zeros(40, dtype=bool))])]
        for diag, slots in cases:
            n = diag.size
            S = _symmetric_csr(diag, [(offset, 0.5 * t, stored) for offset, t, stored in slots])
            rows, cols, vals = [np.arange(n)], [np.arange(n)], [diag]
            for offset, t, stored in slots:
                i = np.flatnonzero(stored[:n - offset])
                rows.append(i)
                cols.append(i + offset)
                vals.append(t[i])
            X = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                              shape=(n, n))
            assert _same_bits(S, _symmetrized(X))
            assert _same_bits(S, S.T.tocsr())
            assert S.indices.dtype == S.indptr.dtype == np.int32
        assert S.nnz == 0  # the last case stores nothing
        # the first holds zero diagonal entries and stored zeros
        assert np.count_nonzero(cases[0][0]) < 60 and any(
            np.any(stored & (0.5 * t == 0.0)) for _, t, stored in cases[0][1])

    @pytest.mark.parametrize("block", [7, 2048])
    def test_element_blocks_keep_the_bits(self, monkeypatch, block):
        # B, H and the radial quadrature summed ELEMENT_BLOCK elements at a
        # time equal, bit for bit, the sums over all 3000 elements at once:
        # 7 cuts the mesh into 429 blocks, 2048 into a full and a partial one
        import degeig.assembly as assembly

        def build():
            pair = assemble_radial(build_radial_mesh(6.0, 3000, 1.001), 3, 1.3,
                                   sign_changing_ring())
            return pair, pair.H, pair.quad_weights, pair.gplus_quad

        monkeypatch.setattr(assembly, "ELEMENT_BLOCK", 3000)
        (whole, H, w, gplus) = build()
        monkeypatch.setattr(assembly, "ELEMENT_BLOCK", block)
        (pair, H_b, w_b, gplus_b) = build()
        assert _same_csr(pair.B, whole.B) and _same_csr(H_b, H)
        assert np.array_equal(w_b, w) and np.array_equal(gplus_b, gplus)

    def test_sorting_networks_equal_the_sorted_sums(self, rng):
        # _sym_norm's 3-input network and the stiffness diagonal's 6-input one
        # give, bit for bit, the sort-based sums they replaced, on values with
        # ties (c and -c square alike) and zeros; the data tells the orders
        # apart, as the same sums taken in descending order differ
        import itertools

        from degeig.assembly import SORTING_NETWORKS, _sorted_sum, _sym_norm

        for n, network in SORTING_NETWORKS.items():  # 0-1 principle: each sorts
            for bits in itertools.product([0, 1], repeat=n):
                values = list(bits)
                for i, j in network:
                    values[i], values[j] = min(values[i], values[j]), max(values[i], values[j])
                assert values == sorted(bits)
        pool = np.r_[0.0, rng.random(40) * 10.0 ** rng.integers(-6, 6, 40)]
        points = rng.choice(pool, (20000, 3)) * rng.choice([-1.0, 1.0], (20000, 3))
        squares = np.sort(points**2, axis=-1)
        assert np.array_equal(_sym_norm(points), np.sqrt(squares.sum(axis=-1)))
        assert not np.array_equal(squares.sum(axis=-1), squares[:, ::-1].sum(axis=-1))
        faces = rng.choice(pool, (17, 19, 23, 6))
        faces[rng.random(faces.shape) < 0.5] *= 3.0  # ties and near-ties across scales
        ordered = np.sort(faces, axis=-1)
        assert np.array_equal(_sorted_sum(faces[..., i] for i in range(6)),
                              ordered.sum(axis=-1))
        assert not np.array_equal(ordered.sum(axis=-1), ordered[..., ::-1].sum(axis=-1))

    def test_underflowed_stiffness_entry_not_stored(self):
        # N = 5 on a graded mesh: r^(alpha + N) underflows near r = 0; those
        # entries are left out, as the symmetrizing sum of the reference does
        pair = assemble_radial(build_radial_mesh(6.0, 513, 1.3), 5, 1.2, gaussian_bump())
        assert pair.A.nnz < 3 * pair.order - 2
        assert np.all(pair.A.data != 0.0)
        assert _same_csr(pair.A, _coo_reference(pair))

    @pytest.mark.parametrize("spec, N, alpha, M, q", [
        (sign_changing_ring(), 3, 1.0, 512, 1.0),
        (gaussian_bump(), 3, 1.5, 2000, 1.004),
        (indicator_ball(2.0), 4, 0.7, 300, 1.0),
        (gaussian_bump(), 5, 1.2, 513, 1.3),  # r^(N-1) w underflows near r = 0
        (gaussian_bump(), 3, 1.0, 13, None),  # the cube grid 13^3
    ])
    def test_mass_hardy_and_point_values_equal_interpolated_reference(self, spec, N, alpha, M,
                                                                      q, rng):
        # B and H are E^T diag(w) E, symmetrized, with E the hat interpolation
        # to the Gauss points (the identity on the grid, whose origin takes
        # the kernel's exact cell integral), and point values are E u: all
        # equal, bit for bit, to that reference, stored zeros and index arrays
        # included. H, and a radial mesh's quadrature, are built on first
        # read, in either order
        import scipy.sparse as sp

        from degeig.assembly import _sym_norm, _symmetrized
        from degeig.weights import weight_split, weight_value

        if q is None:
            grid = build_grid3d(6.0, M)
            pairs = [assemble_grid3d(grid, alpha, spec) for _ in range(2)]
            r = _sym_norm(grid.interior_points())
            # one scalar cell volume; the dof positions are built on first read
            w, E = np.float64(grid.hs**3), sp.identity(r.size, format="csr")
            kernel = np.full(r.size, origin_cell_kernel_integral(grid.hs, alpha))
            kernel[r > 0.0] = w * r[r > 0.0] ** (alpha - 2.0)
            lazy = {"H", "dof_positions"}
        else:
            mesh = build_radial_mesh(6.0, M, q)
            pairs = [assemble_radial(mesh, N, alpha, spec) for _ in range(2)]
            qr, half_gw, E = _hat_interpolation(mesh)
            w = (half_gw * sphere_area(N) * qr ** (N - 1)).ravel()
            r = qr.ravel()
            kernel = w * r ** (alpha - 2.0)
            lazy = {"H", "quad_weights", "gplus_quad"}
        gi, gd, _ = weight_split(spec, r)
        for pair, fields in zip(pairs, [("quad_weights", "gplus_quad", "H"),
                                        ("H", "gplus_quad", "quad_weights")]):
            assert lazy.isdisjoint(vars(pair))
            for field in fields:
                getattr(pair, field)
            assert np.array_equal(pair.quad_weights, w)
            assert np.array_equal(pair.gplus_quad, gi + gd)
            H = _symmetrized(E.T @ sp.diags(kernel) @ E)
            assert _same_csr(pair.H, H)
        pair = pairs[0]
        if q is None:
            assert np.array_equal(pair.dof_positions, grid.interior_points())
        assert _same_csr(pair.B, _symmetrized(E.T @ sp.diags(w * weight_value(spec, r)) @ E))
        for _ in range(3):
            u = rng.standard_normal(pair.order)
            pu = E @ u
            assert mass_plus_inner(pair, u) == float(np.sum(w * pair.gplus_quad * pu * pu))
            assert volume_integral(pair, u) == float(np.sum(w * pu))
            assert lp_norm(pair, u, 2.5) == float(np.sum(w * np.abs(pu) ** 2.5) ** (1.0 / 2.5))
