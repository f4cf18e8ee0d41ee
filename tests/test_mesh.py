import numpy as np
import pytest
from numpy.testing import assert_allclose

from degeig.assembly import assemble_radial
from degeig.mesh import (
    MeshError,
    build_grid3d,
    build_radial_mesh,
    grading_for_span,
)
from degeig.weights import gaussian_bump


class TestRadialMesh:
    def test_uniform_partition(self):
        mesh = build_radial_mesh(1.0, 10, 1.0)
        assert_allclose(mesh.nodes, np.arange(11) / 10.0, atol=1e-16)

    def test_geometric_first_element(self):
        # q = 2, M = 10: h1 = R (q-1)/(q^M - 1) = 1/1023
        mesh = build_radial_mesh(1.0, 10, 2.0)
        assert_allclose(mesh.element_sizes[0], 1.0 / 1023.0, rtol=1e-14)
        assert mesh.nodes[-1] == 1.0

    def test_grading_ratio_recurrence(self):
        mesh = build_radial_mesh(10.0, 256, 1.05)
        h = mesh.element_sizes
        ratios = h[1:] / h[:-1]
        assert np.max(np.abs(ratios - 1.05)) < 1e-12
        assert np.argmin(h) == 0

    def test_element_sum_matches_radius(self):
        for q in (1.0, 1.03, 2.0):
            mesh = build_radial_mesh(7.5, 64, q)
            assert abs(mesh.element_sizes.sum() - 7.5) <= 1e-12 * 7.5

    def test_invalid_parameters(self):
        with pytest.raises(MeshError):
            build_radial_mesh(-1.0, 10, 1.0)
        with pytest.raises(MeshError):
            build_radial_mesh(1.0, 4, 1.0)
        with pytest.raises(MeshError):
            build_radial_mesh(1.0, 10, 0.9)

    def test_dof_count_excludes_boundary(self):
        mesh = build_radial_mesh(1.0, 32, 1.0)
        assert assemble_radial(mesh, 3, 1.0, gaussian_bump()).order == 32
        assert mesh.num_elements == 32

    def test_grading_for_span(self):
        q = grading_for_span(512, 1e4)
        assert_allclose(q ** 511, 1e4, rtol=1e-10)
        assert grading_for_span(100, 1.0) == 1.0


class TestGrid3D:
    def test_spacing(self):
        grid = build_grid3d(1.0, 9)
        assert grid.hs == 0.25

    def test_counts(self):
        grid = build_grid3d(5.0, 41)
        assert grid.num_interior == 39**3

    def test_even_n_rejected(self):
        with pytest.raises(MeshError):
            build_grid3d(1.0, 8)
        with pytest.raises(MeshError):
            build_grid3d(1.0, 7)
        with pytest.raises(MeshError):
            build_grid3d(0.0, 9)

    def test_origin_is_a_node(self):
        grid = build_grid3d(3.0, 13)
        assert grid.axis[(grid.n - 1) // 2] == 0.0
        pts = grid.interior_points()
        assert np.any(np.all(pts == 0.0, axis=1))

    @pytest.mark.parametrize("L, n", [(3.0, 13), (6.0, 31), (6.0, 41), (0.7, 61)])
    def test_axis_mirror_exact(self, L, n):
        # node i sits at hs (i - c): exactly antisymmetric about the center
        grid = build_grid3d(L, n)
        assert np.array_equal(grid.axis, -grid.axis[::-1])
        assert_allclose(grid.axis[[0, -1]], [-L, L], rtol=1e-15)

    def test_interior_nodes_have_six_axis_neighbors(self):
        grid = build_grid3d(1.0, 9)
        ax = grid.axis
        interior = ax[1:-1]
        # every interior coordinate +- hs stays within the grid node set
        for c in interior:
            assert np.isclose(ax, c + grid.hs, atol=1e-15).any()
            assert np.isclose(ax, c - grid.hs, atol=1e-15).any()
