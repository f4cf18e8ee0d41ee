import numpy as np
import pytest
from numpy.testing import assert_allclose

from degeig.assembly import DiscreteOperatorPair, assemble_radial, mass_inner
from degeig.eigensolve import (
    SolverError,
    SolverSettings,
    growth_diagnostics,
    residual,
    solve_dense,
    solve_successive,
)
from degeig.mesh import build_radial_mesh, grading_for_span
from degeig.weights import gaussian_bump, sign_changing_ring


def toy_pair(A, B):
    return DiscreteOperatorPair.from_matrices(np.asarray(A, float), np.asarray(B, float))


def sign_changes(u, rel=1e-6):
    """Number of sign alternations among significantly nonzero entries."""
    u = np.asarray(u, dtype=float)
    top = np.max(np.abs(u))
    if top == 0.0:
        return 0
    signs = np.sign(u[np.abs(u) > rel * top])
    return int(np.count_nonzero(np.diff(signs) != 0))


class TestDense:
    def test_negative_mass_direction_excluded(self):
        # A = I, B = diag(2, -1): the only positive pencil eigenvalue is 1/2
        pair = toy_pair(np.eye(2), np.diag([2.0, -1.0]))
        seq = solve_dense(pair, 2)
        assert seq.count == 1
        assert_allclose(seq.lambdas, [0.5], rtol=1e-14)
        assert seq.exhausted
        assert seq.warnings

    def test_diagonal_pencil(self):
        pair = toy_pair(np.diag([1.0, 4.0]), np.eye(2))
        seq = solve_dense(pair, 2)
        assert_allclose(seq.lambdas, [1.0, 4.0], rtol=1e-14)
        # eigenvectors along the axes, B-normalized
        for j in range(2):
            v = np.abs(seq.vectors[:, j])
            assert_allclose(np.sort(v), [0.0, 1.0], atol=1e-14)

    def test_b_normalization_and_energy_identity(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 12))
        A = X @ X.T + 12 * np.eye(12)
        B = rng.standard_normal((12, 12))
        B = 0.5 * (B + B.T)
        pair = toy_pair(A, B)
        seq = solve_dense(pair, 4)
        for j in range(seq.count):
            e = seq.vectors[:, j]
            assert_allclose(e @ (pair.B @ e), 1.0, atol=1e-12)
            assert_allclose(e @ (pair.A @ e), seq.lambdas[j], rtol=1e-12)

    def test_order_threshold(self):
        pair = toy_pair(np.eye(3), np.eye(3))
        with pytest.raises(SolverError):
            solve_dense(pair, 1, dense_threshold=2)

    def test_not_spd_rejected(self):
        pair = toy_pair(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(SolverError):
            solve_dense(pair, 1)

    def test_top_k_between_positive_count_and_order(self):
        # ring M=64 has 12 positive pairs: k=40 asks for more than exist but
        # fewer than the order, so the top-40 call must still find all 12
        mesh = build_radial_mesh(6.0, 64, 1.0)
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring())
        full = solve_dense(pair, pair.order)
        seq = solve_dense(pair, 40)
        assert full.count == 12
        assert seq.count == full.count
        assert seq.exhausted and full.exhausted
        assert_allclose(seq.lambdas, full.lambdas, rtol=1e-12)

    def test_one_eigh_call(self, monkeypatch):
        import degeig.eigensolve as es

        calls = []
        real = es.sla.eigh
        monkeypatch.setattr(es.sla, "eigh", lambda *a, **kw: calls.append(kw) or real(*a, **kw))
        pair = assemble_radial(build_radial_mesh(6.0, 96, 1.09), 3, 1.0, gaussian_bump())
        assert solve_dense(pair, 5).count == 5
        assert len(calls) == 1
        assert calls[0]["subset_by_index"] == [pair.order - 5, pair.order - 1]

    @pytest.mark.parametrize("kind, bandwidth", [("ring", 1), ("grid", 81), ("toy", 11)])
    def test_banded_congruence_matches_generalized_eigh(self, kind, bandwidth):
        # one code path for every bandwidth: radial, cube grid 11^3, dense toy;
        # the reference is a generalized eigh of the densified pencil
        import scipy.linalg as sla
        from degeig.eigensolve import _bandwidth

        if kind == "ring":
            pair = assemble_radial(build_radial_mesh(6.0, 256, 1.0), 3, 1.0, sign_changing_ring())
        elif kind == "grid":
            pair = _grid_pair(11)
        else:
            rng = np.random.default_rng(8)
            X = rng.standard_normal((12, 12))
            B = rng.standard_normal((12, 12))
            pair = toy_pair(X @ X.T + 12 * np.eye(12), 0.5 * (B + B.T))
        assert _bandwidth(pair.A) == bandwidth
        k = 4 if kind == "toy" else 6
        mu = sla.eigh(pair.B.toarray(), pair.A.toarray(), eigvals_only=True)
        ref = np.sort(1.0 / mu[mu > 0])[:k]
        seq = solve_dense(pair, k)
        assert seq.count == ref.size
        assert_allclose(seq.lambdas, ref, rtol=1e-12)
        assert np.all(seq.residuals <= 1e-10)

    def test_peak_memory_two_dense_arrays(self):
        # a copy of B and the congruence C: no dense A, no copies inside eigh
        import tracemalloc

        pair = assemble_radial(build_radial_mesh(6.0, 1000, 1.0), 3, 1.0, gaussian_bump())
        n = pair.order
        tracemalloc.start()
        try:
            seq = solve_dense(pair, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.count == 6
        assert peak <= 2.5 * n * n * 8

    def test_failed_triangular_solve_is_solver_error(self, monkeypatch):
        import degeig.eigensolve as es

        monkeypatch.setattr(es.sla.lapack, "dtbtrs", lambda U, X, **kw: (X, 2))
        with pytest.raises(SolverError, match="triangular solve failed"):
            solve_dense(toy_pair(np.diag([1.0, 4.0]), np.eye(2)), 1)

    def test_cluster_detection(self):
        pair = toy_pair(np.eye(3), np.diag([1.0, 1.0, 0.5]))
        seq = solve_dense(pair, 3)
        assert_allclose(seq.lambdas, [1.0, 1.0, 2.0], rtol=1e-14)
        assert [0, 1] in seq.clusters


class TestResidual:
    def test_exact_pair_tiny(self):
        pair = toy_pair(np.diag([1.0, 4.0]), np.eye(2))
        assert residual(pair, 1.0, np.array([1.0, 0.0])) <= 1e-10

    def test_perturbed_vector_detected(self, gaussian_pair_512, gaussian_seq_512, rng):
        seq = gaussian_seq_512
        pair = gaussian_pair_512
        e = seq.vectors[:, 0]
        d = rng.standard_normal(pair.order)
        d -= e * (e @ (pair.A @ d)) / seq.lambdas[0]  # energy-orthogonal direction
        d *= np.linalg.norm(e) / np.linalg.norm(d)
        assert residual(pair, seq.lambdas[0], e + 0.1 * d) > 1e-3

    def test_lambda_perturbation_scaling(self):
        # residual of (lambda (1 + delta), e) is delta * ||B e|| / ||A e||
        pair = toy_pair(np.diag([2.0, 5.0]), np.diag([1.0, 0.5]))
        seq = solve_dense(pair, 1)
        lam, e = seq.lambdas[0], seq.vectors[:, 0]
        delta = 1e-3
        expected = delta * lam * np.linalg.norm(pair.B @ e) / np.linalg.norm(pair.A @ e)
        assert_allclose(residual(pair, lam * (1 + delta), e), expected, rtol=1e-10)


class TestSuccessive:
    def test_matches_dense_small(self):
        mesh = build_radial_mesh(6.0, 96, 1.09)
        pair = assemble_radial(mesh, 3, 1.0, gaussian_bump())
        it = solve_successive(pair, 5)
        de = solve_dense(pair, 5)
        assert_allclose(it.lambdas, de.lambdas, rtol=1e-6)
        assert np.all(it.residuals <= 1e-8)

    def test_indefinite_matches_dense(self):
        mesh = build_radial_mesh(6.0, 96, 1.09)
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring())
        it = solve_successive(pair, 5)
        de = solve_dense(pair, 5)
        assert_allclose(it.lambdas, de.lambdas, rtol=1e-6)

    def test_ground_mode_nonnegative_for_positive_weight(self, solved_512):
        for alpha in (0.5, 1.0, 1.5):
            seq = solved_512[("gaussian", alpha)]
            e1 = seq.vectors[:, 0]
            assert e1.min() >= -1e-8 * e1.max()

    def test_sign_change_counts_are_sequential(self, gaussian_seq_512):
        counts = [sign_changes(gaussian_seq_512.vectors[:, j]) for j in range(6)]
        assert counts == [0, 1, 2, 3, 4, 5]

    def test_deflation_orthogonality(self, gaussian_seq_512):
        seq = gaussian_seq_512
        assert seq.max_cross_energy() <= 1e-8 * seq.lambdas.max()
        assert np.max(np.abs(seq.cross_mass - np.eye(seq.count))) <= 1e-8

    def test_exhaustion_reports_partial_sequence(self):
        # tiny mesh: the ring weight supports few positive directions
        mesh = build_radial_mesh(6.0, 16, 1.0)
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring())
        de = solve_dense(pair, 16)
        n_pos = de.count
        assert n_pos < 16
        seq = solve_successive(pair, n_pos + 3)
        assert seq.exhausted
        assert seq.count == n_pos
        assert any("no further positive eigenvalue" in w for w in seq.warnings)
        assert_allclose(seq.lambdas, de.lambdas[: seq.count], rtol=1e-6)

    def test_iteration_cap_flags_pair(self, monkeypatch):
        # the cap bites on the CG route; ARPACK converges within one restart here
        import degeig.eigensolve as es

        mesh = build_radial_mesh(6.0, 64, 1.0)
        pair = assemble_radial(mesh, 3, 1.0, gaussian_bump())
        monkeypatch.setattr(es, "FACTOR_THRESHOLD", 16)
        seq = es.solve_successive(pair, 1, SolverSettings(k=1, tol=1e-9, max_iter=2))
        assert not seq.converged[0]
        assert any("iteration cap" in w for w in seq.warnings)

    def test_early_lobpcg_stop_named(self, monkeypatch):
        # with seed 1 LOBPCG meets its own tolerance after 79 of 400
        # iterations, leaving pairs 4 and 5 near 1.8e-9: no cap was hit
        import degeig.eigensolve as es

        pair = _grid_pair(21)
        monkeypatch.setattr(es, "FACTOR_THRESHOLD", 16)
        seq = es.solve_successive(pair, 6, SolverSettings(k=6, tol=1e-9, max_iter=400, seed=1))
        stalled = [i for i in range(6) if not seq.converged[i]]
        assert stalled, "expected a pair above tol 1e-9 on this grid"
        assert len(seq.warnings) == len(stalled)
        for i, w in zip(stalled, seq.warnings):
            assert w.startswith(f"pair {i + 1} met LOBPCG's tolerance after ")
            assert "of 400 iterations" in w
        assert not any("iteration cap" in w for w in seq.warnings)

    def test_arpack_no_convergence_names_pair(self, monkeypatch):
        # ARPACK returns no unconverged vector, so the step fails outright
        import degeig.eigensolve as es

        def no_convergence(*args, **kwargs):
            raise es.spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        mesh = build_radial_mesh(6.0, 64, 1.0)
        pair = assemble_radial(mesh, 3, 1.0, gaussian_bump())
        monkeypatch.setattr(es.spla, "eigsh", no_convergence)
        with pytest.raises(SolverError, match="pair 1"):
            es.solve_successive(pair, 2)

    def test_real_arpack_no_convergence_is_solver_error(self):
        # one restart is too few for 24 ring pairs on M=512
        mesh = build_radial_mesh(6.0, 512, grading_for_span(512, 1e4))
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring())
        with pytest.raises(SolverError, match="did not converge within 1 restarts"):
            solve_successive(pair, 24, SolverSettings(k=24, max_iter=1))

    @pytest.mark.parametrize("factor_threshold", [None, 16])
    def test_one_eigensolver_call_for_all_pairs(self, monkeypatch, factor_threshold):
        import degeig.eigensolve as es

        name = "eigsh" if factor_threshold is None else "lobpcg"
        if factor_threshold is not None:
            monkeypatch.setattr(es, "FACTOR_THRESHOLD", factor_threshold)
        calls = []
        real = getattr(es.spla, name)
        monkeypatch.setattr(es.spla, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
        pair = assemble_radial(build_radial_mesh(6.0, 128, 1.0), 3, 1.0, gaussian_bump())
        seq = es.solve_successive(pair, 4, SolverSettings(k=4, tol=1e-8, max_iter=2000))
        assert seq.count == 4 and all(seq.converged)
        assert len(calls) == 1
        assert len(set(seq.iterations)) == 1 and seq.iterations[0] > 0

    def test_k_at_least_order_warns_of_cap(self):
        # ARPACK needs fewer pairs than the order; every pair is positive here,
        # so the missing one cannot be told apart from exhaustion and is named
        pair = toy_pair(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), np.eye(5))
        seq = solve_successive(pair, 7)
        assert_allclose(seq.lambdas, [1.0, 2.0, 3.0, 4.0], rtol=1e-12)
        assert not seq.exhausted
        assert any("capped at order - 1 = 4" in w for w in seq.warnings)

    def test_route_chosen_by_fill(self):
        from degeig.assembly import assemble_grid3d
        from degeig.eigensolve import _factorizes
        from degeig.mesh import build_grid3d

        mesh = build_radial_mesh(6.0, 32768, 1.0)
        assert _factorizes(assemble_radial(mesh, 3, 1.0, gaussian_bump()).A)
        assert _factorizes(assemble_grid3d(build_grid3d(6.0, 29), 1.0, gaussian_bump()).A)
        assert not _factorizes(assemble_grid3d(build_grid3d(6.0, 31), 1.0, gaussian_bump()).A)

    def test_large_radial_order_factorized(self):
        mesh = build_radial_mesh(6.0, 32768, grading_for_span(32768, 1e4))
        pair = assemble_radial(mesh, 3, 1.0, gaussian_bump())
        seq = solve_successive(pair, 2)
        assert seq.count == 2
        assert np.all(seq.residuals <= 1e-8)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(k=0).validate()
        with pytest.raises(ValueError):
            SolverSettings(tol=-1.0).validate()

    def test_large_operator_branch_indefinite(self, monkeypatch):
        # force the iterative-solve path meant for grids too big to factorize
        # (LOBPCG preconditioned by inexact CG) on an indefinite pencil
        import degeig.eigensolve as es

        mesh = build_radial_mesh(6.0, 128, 1.0)
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring())
        ref = solve_dense(pair, 3).lambdas
        monkeypatch.setattr(es, "FACTOR_THRESHOLD", 16)
        seq = es.solve_successive(pair, 3, SolverSettings(k=3, tol=1e-8, max_iter=30000))
        assert np.all(seq.residuals <= 1e-8)
        assert_allclose(seq.lambdas, ref, rtol=1e-6)

    def test_lu_route_converges_on_ring_grid(self):
        # the double eigenvalue 6.0936 of the ring on grid 19^3: a per-pair
        # ARPACK loop left its first member at residual 2.0e-9
        from degeig.assembly import assemble_grid3d
        from degeig.mesh import build_grid3d

        pair = assemble_grid3d(build_grid3d(6.0, 19), 1.0, sign_changing_ring())
        seq = solve_successive(pair, 4, SolverSettings(k=4, tol=1e-9, max_iter=400))
        assert seq.count == 4
        assert all(seq.converged)
        assert not seq.warnings
        assert np.all(seq.residuals <= 1e-9)

    def test_lobpcg_route_converges_on_ring_grid(self, monkeypatch):
        # the sign-changing ring on a cube grid, with its double eigenvalue:
        # every pair converges within the cap on the CG route and agrees
        # with the LU route
        import degeig.eigensolve as es
        from degeig.assembly import assemble_grid3d
        from degeig.mesh import build_grid3d

        pair = assemble_grid3d(build_grid3d(6.0, 19), 1.0, sign_changing_ring())
        settings = SolverSettings(k=4, tol=1e-9, max_iter=400)
        ref = es.solve_successive(pair, 4, settings).lambdas
        monkeypatch.setattr(es, "FACTOR_THRESHOLD", 16)
        seq = es.solve_successive(pair, 4, settings)
        assert all(seq.converged)
        assert not seq.warnings
        assert np.all(seq.residuals <= 1e-9)
        assert_allclose(seq.lambdas, ref, rtol=1e-8)

    def test_stall_at_rounding_floor_named(self):
        # on the graded M=32768 mesh ARPACK pairs stop above tol at their
        # rounding floor eps ||(|A| + lambda |B|) |e||| / ||A e||; the
        # warning says so, and the pair still counts as unconverged
        mesh = build_radial_mesh(6.0, 32768, grading_for_span(32768, 1e4))
        pair = assemble_radial(mesh, 3, 1.0, gaussian_bump())
        seq = solve_successive(pair, 2)
        assert seq.residual_floors.shape == (2,)
        stalled = [i for i in range(2) if not seq.converged[i]]
        assert stalled, "expected a pair above tol 1e-9 on this mesh"
        for i in stalled:
            assert seq.residuals[i] <= 10.0 * seq.residual_floors[i]
            assert any(w.startswith(f"pair {i + 1} is at its rounding floor") for w in seq.warnings)
        assert not any("stalled after ARPACK" in w for w in seq.warnings)


def _grid_pair(n):
    from degeig.assembly import assemble_grid3d
    from degeig.mesh import build_grid3d

    return assemble_grid3d(build_grid3d(6.0, n), 1.0, gaussian_bump())


class TestMultigrid:
    @pytest.mark.parametrize("kind", ["grid", "radial"])
    def test_vcycle_symmetric_positive(self, monkeypatch, kind):
        # a coarse cutoff of 8 gives several levels on both dof shapes
        import degeig.eigensolve as es

        monkeypatch.setattr(es, "COARSEST_ORDER", 8)
        if kind == "grid":
            pair, shape = _grid_pair(15), (13, 13, 13)
        else:
            mesh = build_radial_mesh(6.0, 64, 1.0)
            pair, shape = assemble_radial(mesh, 3, 1.0, gaussian_bump()), (64,)
        M = es._vcycle(pair.A.tocsr(), shape)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((pair.order, 8))
        X[:, 0] = (-1.0) ** np.arange(pair.order)  # highest frequency the smoother sees
        MX = np.column_stack([M.matvec(x) for x in X.T])
        G = X.T @ MX
        assert np.max(np.abs(G - G.T)) <= 1e-12 * np.max(np.abs(G))
        assert np.all(np.diag(G) > 0.0)
        if kind == "radial":
            dense = np.column_stack([M.matvec(e) for e in np.eye(pair.order)])
            assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
            assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0

    @pytest.mark.parametrize("n, k", [(21, 6), (31, 2), (41, 1)])
    def test_cg_iterations_per_inner_solve_flat(self, monkeypatch, n, k):
        # one V-cycle preconditioner brings inner CG to relative residual 0.1
        # in at most two iterations at every grid size (Jacobi: 9 to 21)
        import degeig.eigensolve as es

        pair = _grid_pair(n)
        settings = SolverSettings(k=k, tol=1e-9, max_iter=400)
        ref = es.solve_successive(pair, k, settings).lambdas if n == 21 else None
        if n == 21:
            monkeypatch.setattr(es, "FACTOR_THRESHOLD", 16)
        calls, iters = [], []
        real = es.spla.cg

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, callback=lambda x: iters.append(1), **kwargs)

        monkeypatch.setattr(es.spla, "cg", counted)
        seq = es.solve_successive(pair, k, settings)
        assert calls and len(iters) / len(calls) <= 2.0
        if ref is not None:
            assert_allclose(seq.lambdas, ref, rtol=1e-8)


class TestVariationalStructure:
    def test_quotient_scale_invariance(self, gaussian_pair_512, rng):
        pair = gaussian_pair_512
        u = rng.standard_normal(pair.order)
        q0 = (u @ (pair.A @ u)) / mass_inner(pair, u)
        for c in (1e-3, 7.0, -250.0):
            v = c * u
            q = (v @ (pair.A @ v)) / mass_inner(pair, v)
            assert abs(q - q0) <= 1e-12 * abs(q0)

    def test_ground_value_is_variational_minimum(self, rng):
        # no random g-normalized vector beats lambda_1 (discrete infimum)
        mesh = build_radial_mesh(6.0, 128, 1.06)
        pair = assemble_radial(mesh, 3, 1.0, gaussian_bump())
        lam1 = solve_dense(pair, 1).lambdas[0]
        U = rng.standard_normal((pair.order, 10000))
        AU = pair.A @ U
        BU = pair.B @ U
        num = np.einsum("ij,ij->j", U, AU)
        den = np.einsum("ij,ij->j", U, BU)
        quotients = num[den > 0] / den[den > 0]
        assert quotients.min() >= lam1 - 1e-9

    def test_pencil_bilinear_symmetry(self, gaussian_pair_512, rng):
        pair = gaussian_pair_512
        u, v = rng.standard_normal((2, pair.order))
        for mat in (pair.A, pair.B):
            assert (mat != mat.T).nnz == 0
            lhs = (mat @ u) @ v
            rhs = u @ (mat @ v)
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)


class TestGrowthDiagnostics:
    def test_identities(self, gaussian_pair_512, gaussian_seq_512):
        rep = growth_diagnostics(gaussian_seq_512, gaussian_pair_512)
        assert np.max(np.abs(rep.unit_energy - 1.0)) <= 1e-10
        assert np.max(rep.identity_gaps) <= 1e-10
        assert np.min(rep.bound_margins) >= -1e-12
        assert rep.strictly_increasing
        assert rep.ratios[0] == 1.0

    def test_plus_bound_with_sign_changing_weight(self, pairs_512, solved_512):
        pair = pairs_512[("ring", 1.0)]
        rep = growth_diagnostics(solved_512[("ring", 1.0)], pair)
        # integral of g^+ f^2 strictly exceeds 1/lambda when g^- is active
        assert np.all(rep.bound_margins >= -1e-12)
        assert rep.to_dict()["strictly_increasing"]

    def test_strictly_increasing_judged_across_clusters(self):
        # a rounding-level dip inside the octahedral triple is no decrease;
        # equal values in separate clusters are
        from dataclasses import replace

        pair = _grid_pair(11)
        seq = solve_successive(pair, 5)
        assert seq.clusters == [[0], [1], [2, 3, 4]]
        lam = seq.lambdas.copy()
        lam[3] = np.nextafter(lam[2], 0.0)
        assert growth_diagnostics(replace(seq, lambdas=lam), pair).strictly_increasing
        apart = replace(seq, lambdas=lam, clusters=[[0], [1], [2], [3], [4]])
        assert not growth_diagnostics(apart, pair).strictly_increasing

    def test_empty_sequence_rejected(self, gaussian_pair_512):
        from degeig.eigensolve import EigenSequence

        empty = EigenSequence(
            lambdas=np.zeros(0), vectors=np.zeros((gaussian_pair_512.order, 0)),
            residuals=np.zeros(0),
            cross_energy=np.zeros((0, 0)), cross_mass=np.zeros((0, 0)),
            iterations=[], converged=[], requested=1, exhausted=True,
            method="successive",
        )
        with pytest.raises(ValueError):
            growth_diagnostics(empty, gaussian_pair_512)
