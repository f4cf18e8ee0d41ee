import numpy as np
import pytest
import scipy.sparse as sp
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
        import scipy.sparse as sp

        pair = DiscreteOperatorPair.from_matrices(sp.identity(2001), sp.identity(2001))
        with pytest.raises(SolverError, match="refused at order 2001 > 2000"):
            solve_dense(pair, 1)

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

    @pytest.mark.parametrize("kind", ["radial", "grid"])
    def test_peak_memory_one_dense_array(self, kind):
        # B's dense copy becomes C in place: no dense A, no transposed copy
        # of U^{-T} B, no copy inside eigh; the band of A adds (w + 1) n
        import tracemalloc

        if kind == "radial":
            pair = assemble_radial(build_radial_mesh(6.0, 1000, 1.0), 3, 1.0, gaussian_bump())
        else:
            pair = _grid_pair(11)  # order 729, bandwidth 81
        n = pair.order
        tracemalloc.start()
        try:
            seq = solve_dense(pair, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.count == 6
        assert peak <= 1.25 * n * n * 8

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 255, 256, 257, 1000])
    def test_transpose_in_place(self, n):
        # block edges of the default block (128) and of 256 are both crossed
        from degeig.eigensolve import _transpose_in_place

        X = np.asfortranarray(np.random.default_rng(n).standard_normal((n, n)))
        ref = X.T.copy()
        out = _transpose_in_place(X)
        assert out is X and X.flags.f_contiguous
        assert np.array_equal(X, ref)

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


    @pytest.mark.parametrize("grid", [False, True])
    def test_sequence_residuals_and_floors_bitwise(self, grid, gaussian_pair_512):
        # _finalize measures each pair from the block products it forms once;
        # the residuals and rounding floors keep the bits of residual() and of
        # eps ||(|A| + lambda |B|) |e||| / ||A e|| with abs() copies of A and B
        pair = _grid_pair(11) if grid else gaussian_pair_512
        seq = solve_successive(pair, SolverSettings(k=4))
        for i in range(seq.count):
            assert seq.residuals[i] == residual(pair, seq.lambdas[i], seq.vectors[:, i])
        absV = np.abs(seq.vectors)
        F = abs(pair.A) @ absV + (abs(pair.B) @ absV) * seq.lambdas
        floors = (np.finfo(float).eps * np.linalg.norm(F, axis=0)
                  / np.linalg.norm(pair.A @ seq.vectors, axis=0))
        assert np.array_equal(seq.residual_floors, floors)

    def test_floors_copy_no_index_array(self):
        # |A| and |B| share A's and B's index arrays: at grid 41^3 the peak is
        # A's values plus a few vectors (abs() copies made it 6.1 MB, not 4.2)
        import tracemalloc

        from degeig.eigensolve import _residual_floors

        pair = _grid_pair(41)
        V = np.random.default_rng(0).standard_normal((pair.order, 1))
        AV = pair.A @ V
        tracemalloc.start()
        try:
            _residual_floors(pair, np.array([5.0]), V, AV)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= pair.A.data.nbytes + 4 * V.nbytes


class TestSuccessive:
    def test_matches_dense_small(self):
        mesh = build_radial_mesh(6.0, 96, 1.09)
        pair = assemble_radial(mesh, 3, 1.0, gaussian_bump())
        it = solve_successive(pair, SolverSettings(k=5))
        de = solve_dense(pair, 5)
        assert_allclose(it.lambdas, de.lambdas, rtol=1e-6)
        assert np.all(it.residuals <= 1e-8)

    def test_indefinite_matches_dense(self):
        mesh = build_radial_mesh(6.0, 96, 1.09)
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring())
        it = solve_successive(pair, SolverSettings(k=5))
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
        seq = solve_successive(pair, SolverSettings(k=n_pos + 3))
        assert seq.exhausted
        assert seq.count == n_pos
        assert any("no further positive eigenvalue" in w for w in seq.warnings)
        assert_allclose(seq.lambdas, de.lambdas[: seq.count], rtol=1e-6)

    def test_iteration_cap_flags_pair(self):
        # the cap applies to each sector's LOBPCG call: two iterations leave
        # the pairs of grid 11^3 above tol in every sector that was solved
        seq = solve_successive(_grid_pair(11), SolverSettings(k=5, tol=1e-9, max_iter=2))
        assert set(seq.sectors) == {"eee", "oee", "eoe", "eeo"}
        stalled = [i for i in range(seq.count) if not seq.converged[i]]
        assert {seq.sectors[i] for i in stalled} == set(seq.sectors)
        assert len(seq.warnings) == len(stalled)
        for i, w in zip(stalled, seq.warnings):
            assert w.startswith(f"pair {i + 1} hit the iteration cap at residual ")

    def test_early_lobpcg_stop_named(self, monkeypatch):
        # a sector call that meets LOBPCG's own (absolute) tolerance stops
        # before the cap, and a pair it leaves above the relative tol is named
        # by that stop, not by the cap. At the default tolerance no seed of
        # 1-8 stops so on grids 11^3-27^3 (k <= 10), so the calls here run at
        # a tolerance 1000 times looser
        import degeig.eigensolve as es

        real = es.spla.lobpcg
        monkeypatch.setattr(es.spla, "lobpcg",
                            lambda *a, tol, **kw: real(*a, tol=1e3 * tol, **kw))
        seq = es.solve_successive(_grid_pair(15), SolverSettings(k=6, tol=1e-9, max_iter=400))
        stalled = [i for i in range(6) if not seq.converged[i]]
        assert stalled, "expected a pair above tol 1e-9 on this grid"
        assert len(seq.warnings) == len(stalled)
        for i, w in zip(stalled, seq.warnings):
            head = f"pair {i + 1} met LOBPCG's tolerance after "
            assert w.startswith(head)
            assert int(w[len(head):].split()[0]) < 400 and "of 400 iterations" in w
        assert not any("iteration cap" in w for w in seq.warnings)

    @pytest.mark.parametrize("seed", [2, 4])
    def test_lobpcg_breakdown_named(self, monkeypatch, seed):
        # without the dense fallback, the ring's eee sector on grid 9^3 (7
        # nonzero B entries of 64, a block of 3) makes LOBPCG fail to
        # B-orthonormalize its preconditioned residuals and break off with
        # its best iterate; the stalled pairs name that breakdown, not an
        # early stop at LOBPCG's tolerance
        import degeig.eigensolve as es

        monkeypatch.setattr(es, "DENSE_THRESHOLD", 0)
        seq = es.solve_successive(_grid_pair(9, sign_changing_ring()), SolverSettings(k=6),
                                  seed=seed)
        stalled = [i for i in range(seq.count) if not seq.converged[i]]
        assert stalled, "expected LOBPCG to break down on this sector"
        assert {seq.sectors[i] for i in stalled} == {"eee"}
        assert len(seq.warnings) == len(stalled)
        for i, w in zip(stalled, seq.warnings):
            head = f"pair {i + 1} broke down in iteration "
            assert w.startswith(head)
            assert int(w[len(head):].split()[0]) < 400
            assert ("of 400 (LOBPCG could not B-orthonormalize its preconditioned "
                    "residuals) and stopped at residual ") in w
        assert not any("met LOBPCG's tolerance" in w for w in seq.warnings)

    def test_arpack_no_convergence_names_pair(self, monkeypatch):
        # ARPACK returns no unconverged vector, so the step fails outright
        import degeig.eigensolve as es

        def no_convergence(*args, **kwargs):
            raise es.spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        mesh = build_radial_mesh(6.0, 64, 1.0)
        pair = assemble_radial(mesh, 3, 1.0, gaussian_bump())
        monkeypatch.setattr(es.spla, "eigsh", no_convergence)
        with pytest.raises(SolverError, match="pair 1"):
            es.solve_successive(pair, SolverSettings(k=2))

    def test_real_arpack_no_convergence_is_solver_error(self):
        # one restart is too few for 24 ring pairs on M=512
        mesh = build_radial_mesh(6.0, 512, grading_for_span(512, 1e4))
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring())
        with pytest.raises(SolverError, match="did not converge within 1 restarts"):
            solve_successive(pair, SolverSettings(k=24, max_iter=1))

    @pytest.mark.parametrize("kind", ["radial", "grid"])
    def test_one_eigensolver_call_for_all_pairs(self, monkeypatch, kind):
        # radial: one ARPACK call returns every pair. Grid: one LOBPCG call
        # per parity sector returns every pair of that sector and of the
        # sectors its axis permutations reach; each pair reports the B
        # applications of the call that produced it
        import degeig.eigensolve as es

        name = "eigsh" if kind == "radial" else "lobpcg"
        calls = []  # the order of each call's operator
        real = getattr(es.spla, name)
        monkeypatch.setattr(es.spla, name,
                            lambda op, *a, **kw: calls.append(op.shape[0]) or real(op, *a, **kw))
        if kind == "radial":
            pair = assemble_radial(build_radial_mesh(6.0, 128, 1.0), 3, 1.0, gaussian_bump())
        else:
            pair = _grid_pair(11)
        seq = es.solve_successive(pair, SolverSettings(k=4, tol=1e-8))
        assert seq.count == 4 and all(seq.converged)
        if kind == "radial":
            assert len(calls) == 1
            assert len(set(seq.iterations)) == 1 and seq.iterations[0] > 0
            return
        # k = 4 asks eee for 4 pairs, each other sector for ceil(3 / members),
        # each on its own dofs: (c + 1) per even axis, c per odd, c = 4
        assert calls == [125, 100, 80, 64]
        assert seq.sectors[0] == "eee"
        by_sector = {}
        for sector, count in zip(seq.sectors, seq.iterations):
            by_sector.setdefault(_orbit(sector), set()).add(count)
        assert all(len(counts) == 1 and min(counts) > 0 for counts in by_sector.values())

    def test_equal_mu_keep_the_call_order(self, monkeypatch):
        # pairs of equal mu are walked in the order the call returned them,
        # each with its own applications; nothing re-sorts them
        import degeig.eigensolve as es

        pair = toy_pair(np.diag([1.0, 1.0, 3.0]), np.eye(3))
        vecs = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])  # e_2, then e_1
        monkeypatch.setattr(es, "_maximize_quotient", lambda *a: (
            [1.0, 1.0], vecs, [7, 9], ["stopped at a", "stopped at b"], None))
        seq = es.solve_successive(pair, SolverSettings(k=2))
        assert seq.clusters == [[0, 1]]
        assert np.array_equal(seq.vectors, vecs)
        assert seq.iterations == [7, 9]

    @pytest.mark.parametrize("grid", [False, True])
    def test_returned_mu_are_rayleigh_quotients(self, grid, gaussian_pair_512):
        # the mu each call returns (ARPACK's eigenvalues, LOBPCG's final
        # Rayleigh-Ritz values) are the quotients of the vectors it returns
        import degeig.eigensolve as es

        pair = _grid_pair(11) if grid else gaussian_pair_512
        mus, vecs, *_ = es._maximize_quotient(pair, 5, SolverSettings(k=5), 42)
        quotients = (np.einsum("ij,ij->j", vecs, pair.B @ vecs)
                     / np.einsum("ij,ij->j", vecs, pair.A @ vecs))
        assert_allclose(mus, quotients, rtol=1e-12)

    def test_k_at_least_order_warns_of_cap(self):
        # ARPACK needs fewer pairs than the order; every pair is positive here,
        # so the missing one cannot be told apart from exhaustion and is named
        pair = toy_pair(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), np.eye(5))
        seq = solve_successive(pair, SolverSettings(k=7))
        assert_allclose(seq.lambdas, [1.0, 2.0, 3.0, 4.0], rtol=1e-12)
        assert not seq.exhausted
        assert any("capped at order - 1 = 4" in w for w in seq.warnings)

    def test_route_chosen_by_geometry(self, monkeypatch):
        # radial and explicit pencils: one LU and one ARPACK call, whatever
        # the order; cube grids: one LOBPCG call per parity sector (k = 2
        # asks each of the four for a pair) and no factorization
        import degeig.eigensolve as es

        calls = []
        for name in ("splu", "eigsh", "lobpcg"):
            real = getattr(es.spla, name)
            monkeypatch.setattr(es.spla, name, lambda *a, _name=name, _real=real, **kw:
                                calls.append(_name) or _real(*a, **kw))
        radial = assemble_radial(build_radial_mesh(6.0, 32768, 1.0), 3, 1.0, gaussian_bump())
        toy = toy_pair(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), np.eye(5))
        for pair, expected in ((radial, ["splu", "eigsh"]), (toy, ["splu", "eigsh"]),
                               (_grid_pair(11), ["lobpcg"] * 4)):
            calls.clear()
            assert es.solve_successive(pair, SolverSettings(k=2)).count == 2
            assert calls == expected

    def test_large_radial_order_factorized(self):
        mesh = build_radial_mesh(6.0, 32768, grading_for_span(32768, 1e4))
        pair = assemble_radial(mesh, 3, 1.0, gaussian_bump())
        seq = solve_successive(pair, SolverSettings(k=2))
        assert seq.count == 2
        assert np.all(seq.residuals <= 1e-8)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(k=0).validate()
        with pytest.raises(ValueError):
            SolverSettings(tol=-1.0).validate()

    def test_large_operator_branch_indefinite(self):
        # the grid route (LOBPCG preconditioned by inexact CG) on the
        # indefinite ring pencil, against the dense reference
        pair = _grid_pair(11, sign_changing_ring())
        ref = solve_dense(pair, 3).lambdas
        seq = solve_successive(pair, SolverSettings(k=3, tol=1e-8))
        assert np.all(seq.residuals <= 1e-8)
        assert_allclose(seq.lambdas, ref, rtol=1e-6)

    def test_lobpcg_route_converges_on_ring_grid(self):
        # the ring on grid 19^3, with its double eigenvalue 6.0936 (a per-pair
        # ARPACK loop left its first member at residual 2.0e-9): every pair
        # converges within the cap and agrees with ARPACK on an LU of A
        pair = _grid_pair(19, sign_changing_ring())
        seq = solve_successive(pair, SolverSettings(k=4, tol=1e-9))
        assert seq.count == 4
        assert all(seq.converged)
        assert not seq.warnings
        assert np.all(seq.residuals <= 1e-9)
        assert_allclose(seq.lambdas, _lu_lambdas(pair, 4), rtol=1e-8)

    def test_lu_route_converges_on_ring_grid(self):
        # the same ring 19^3 matrices wrapped as an explicit pencil take the
        # LU route (one ARPACK call with an LU of A): its double eigenvalue
        # 6.0936 converges whole and agrees with the grid route
        pair = _grid_pair(19, sign_changing_ring())
        explicit = DiscreteOperatorPair.from_matrices(pair.A, pair.B)
        settings = SolverSettings(k=4, tol=1e-9)
        seq = solve_successive(explicit, settings)
        assert seq.count == 4
        assert all(seq.converged)
        assert not seq.warnings
        assert np.all(seq.residuals <= 1e-9)
        assert_allclose(seq.lambdas[2], seq.lambdas[3], rtol=1e-9)
        assert_allclose(seq.lambdas, solve_successive(pair, settings).lambdas, rtol=1e-8)

    @pytest.mark.parametrize("seed", [1, 42])
    def test_grid_multiplicity_kept_whole(self, seed):
        # lambda_3..lambda_5 of grid 9^3 are the octahedral triple; single-
        # vector Lanczos returned two of its members and lambda_6 as lambda_5.
        # The sector route returns it whole: one member from each of the
        # sectors oee, eoe and eeo
        pair = _grid_pair(9)
        ref = solve_dense(pair, 5)
        seq = solve_successive(pair, SolverSettings(k=5), seed=seed)
        assert ref.clusters == [[0], [1], [2, 3, 4]]
        assert seq.clusters == ref.clusters
        assert_allclose(seq.lambdas, ref.lambdas, rtol=1e-8)
        assert sorted(seq.sectors[2:]) == ["eeo", "eoe", "oee"]
        assert seq.sectors[:2] == ["eee", "eee"]

    def test_block_above_a_fifth_of_smallest_grid(self):
        # grid 9^3 is the smallest (order 343): k = 70 asks each parity
        # sector for a block above a third of its order (eee 64 of 64, oee
        # and ooe 23 of 48 and 36, ooo 27 of 27), so every sector is solved
        # densely, counted as one application of B per sector dof
        pair = _grid_pair(9)
        ref = solve_dense(pair, 70)
        seq = solve_successive(pair, SolverSettings(k=70))
        orders = {"eee": 64, "oee": 48, "ooe": 36, "ooo": 27}
        assert seq.iterations == [orders[_orbit(s)] for s in seq.sectors]
        assert set(map(_orbit, seq.sectors)) == set(orders)
        assert all(seq.converged)
        assert_allclose(seq.lambdas, ref.lambdas, rtol=1e-8)
        assert seq.clusters == ref.clusters

    def test_stall_at_rounding_floor_named(self):
        # on the graded M=32768 mesh ARPACK pairs stop above tol at their
        # rounding floor eps ||(|A| + lambda |B|) |e||| / ||A e||; the
        # warning says so, and the pair still counts as unconverged
        mesh = build_radial_mesh(6.0, 32768, grading_for_span(32768, 1e4))
        pair = assemble_radial(mesh, 3, 1.0, gaussian_bump())
        seq = solve_successive(pair, SolverSettings(k=2))
        assert seq.residual_floors.shape == (2,)
        stalled = [i for i in range(2) if not seq.converged[i]]
        assert stalled, "expected a pair above tol 1e-9 on this mesh"
        for i in stalled:
            assert seq.residuals[i] <= 10.0 * seq.residual_floors[i]
            assert any(w.startswith(f"pair {i + 1} is at its rounding floor") for w in seq.warnings)
        assert not any("stalled after ARPACK" in w for w in seq.warnings)


class TestParitySectors:
    @pytest.mark.parametrize("n", [9, 11, 13])
    @pytest.mark.parametrize("weight", [gaussian_bump, sign_changing_ring])
    def test_matches_full_grid_dense(self, n, weight):
        # the sector route against the full-grid dense reference: the same
        # lambda, the same clusters, the same exhaustion
        pair = _grid_pair(n, weight())
        for k in (1, 5, 6, 20):
            ref = solve_dense(pair, k)
            seq = solve_successive(pair, SolverSettings(k=k))
            assert seq.count == ref.count and seq.exhausted == ref.exhausted
            assert_allclose(seq.lambdas, ref.lambdas, rtol=1e-8)
            assert seq.clusters == ref.clusters
            assert all(seq.converged)

    def test_sector_asks_at_most_its_positive_count(self, monkeypatch):
        # by Sylvester's law of inertia a sector has as many positive mu as
        # positive B entries. The ring on grid 11^3 has 18 positive
        # eigenvalues, so k = 30 exhausts every sector: none is asked for
        # more than it has, and the shortfall is reported as exhaustion
        import degeig.eigensolve as es

        asked = []
        real = es._lobpcg

        def recording(A, B, shape, mirrored, m, *args):
            asked.append((m, np.count_nonzero(B.diagonal() > 0.0)))
            return real(A, B, shape, mirrored, m, *args)

        monkeypatch.setattr(es, "_lobpcg", recording)
        seq = es.solve_successive(_grid_pair(11, sign_changing_ring()), SolverSettings(k=30))
        assert seq.exhausted and seq.count == 18 and all(seq.converged)
        assert asked and all(m == positive for m, positive in asked)
        assert any("found 18 of 30" in w for w in seq.warnings)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_low_rank_sector_solved_densely(self, seed):
        # the ring on grid 9^3 leaves eee 7 nonzero B entries of 64, and a
        # block of 3 pairs there made LOBPCG break down after 2 iterations
        # on seeds 2, 4, 5 and 6 (pair 1 stopped at residual 6e-3 to 2e-2);
        # such a sector is solved densely
        pair = _grid_pair(9, sign_changing_ring())
        seq = solve_successive(pair, SolverSettings(k=6), seed=seed)
        assert all(seq.converged) and not seq.warnings
        assert_allclose(seq.lambdas, solve_dense(pair, 6).lambdas, rtol=1e-8)

    @pytest.mark.parametrize("weight", [gaussian_bump, sign_changing_ring])
    def test_ground_vector_positive_and_even(self, weight):
        # Perron-Frobenius: A - lambda_1 B is a singular irreducible M-matrix,
        # so lambda_1 is simple with a positive, hence mirror-even, vector
        pair = _grid_pair(15, weight())
        seq = solve_successive(pair, SolverSettings(k=3))
        assert seq.sectors[0] == "eee"
        e1 = seq.vectors[:, 0]
        assert e1.min() > 0.0
        u = e1.reshape((13,) * 3)
        for mirrored in (u[::-1], u[:, ::-1], u[:, :, ::-1]):
            assert np.array_equal(mirrored, u)

    def test_triple_members_are_axis_permutations(self):
        # the triple's three members are one computed sector vector carried
        # to oee, eoe and eeo by axis permutations: bit for bit as the
        # maximizers come out, and up to the sign and rounding of the
        # unit-mass normalization in the solved sequence
        from itertools import combinations, permutations

        import degeig.eigensolve as es

        def carried(u, v, equal):
            return any(equal(v, u.transpose(axes)) for axes in permutations(range(3)))

        def rounding(u, v):
            sign = np.sign(np.sum(u * v))
            return np.allclose(u, sign * v, rtol=4 * np.finfo(float).eps, atol=0.0)

        pair = _grid_pair(11)
        _, vecs, _, _, sectors = es._maximize_quotient(pair, 5, SolverSettings(k=5), 42)
        members = [vecs[:, j].reshape((9,) * 3) for j, s in enumerate(sectors) if s != "eee"]
        assert sorted(s for s in sectors if s != "eee") == ["eeo", "eoe", "oee"]
        assert all(carried(u, v, np.array_equal) for u, v in combinations(members, 2))
        seq = solve_successive(pair, SolverSettings(k=5))
        assert seq.clusters[2] == [2, 3, 4]
        members = [seq.vectors[:, j].reshape((9,) * 3) for j in (2, 3, 4)]
        assert all(carried(u, v, rounding) for u, v in combinations(members, 2))

    @pytest.mark.parametrize("n, weight, k", [(11, gaussian_bump, 5), (13, sign_changing_ring, 6)])
    def test_triples_ordered_by_axis(self, n, weight, k):
        # each triple is reported as its members come from the sector call,
        # odd in x, in y, then in z, and each pair's vector has the parities
        # its sector label names, bit for bit
        seq = solve_successive(_grid_pair(n, weight()), SolverSettings(k=k))
        triples = [c for c in seq.clusters if len(c) == 3]
        assert triples
        for c in triples:
            assert [seq.sectors[i] for i in c] == ["oee", "eoe", "eeo"]
        for u, sector in zip(seq.vectors.T, seq.sectors):
            u = u.reshape((n - 2,) * 3)
            for axis, parity in enumerate(sector):
                assert np.array_equal(np.flip(u, axis), u if parity == "e" else -u)

    def test_sector_vcycle_symmetric_positive(self, monkeypatch):
        # on a parity sector's own dof array (grid 17^3, oee: 7 x 8 x 8
        # dofs) with mirrored interpolation, the V-cycle is still a fixed
        # SPD operator
        import degeig.eigensolve as es

        monkeypatch.setattr(es, "COARSEST_ORDER", 8)
        pair = _grid_pair(17)
        bases = [es._mirror_basis(7, p) for p in "oee"]
        S = sp.kron(sp.kron(bases[0], bases[1]), bases[2], format="csr")
        M = es._vcycle((S.T @ pair.A @ S).tocsr(), (7, 8, 8), (False, True, True))
        dense = np.column_stack([M.matvec(e) for e in np.eye(S.shape[1])])
        assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
        assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0

    def test_mirror_basis_orthonormal_and_complete(self):
        # the even and odd bases of one axis are orthonormal and together
        # span every vector on its 2c + 1 nodes
        from degeig.eigensolve import _mirror_basis

        for c in (3, 4, 7):
            Q = sp.hstack([_mirror_basis(c, "e"), _mirror_basis(c, "o")]).toarray()
            assert_allclose(Q.T @ Q, np.eye(2 * c + 1), atol=1e-15)


def _orbit(sector):
    """The parity sector of SECTORS that an axis permutation carries sector to."""
    return "".join(sorted(sector, reverse=True))


def _grid_pair(n, weight=None):
    from degeig.assembly import assemble_grid3d
    from degeig.mesh import build_grid3d

    return assemble_grid3d(build_grid3d(6.0, n), 1.0, weight or gaussian_bump())


def _lu_lambdas(pair, k):
    """The k smallest positive lambda from one ARPACK call with an LU of A."""
    import scipy.sparse.linalg as spla

    lu = spla.splu(pair.A.tocsc())
    Minv = spla.LinearOperator(pair.A.shape, matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(pair.order)
    mu = spla.eigsh(pair.B, k, M=pair.A, Minv=Minv, which="LA", v0=v0,
                    return_eigenvectors=False)
    return np.sort(1.0 / mu)


class TestMultigrid:
    def test_vcycle_symmetric_positive(self, monkeypatch):
        # a coarse cutoff of 8 gives four levels on the 13^3 dof array; the
        # whole operator is formed, one column per unit vector
        import degeig.eigensolve as es

        monkeypatch.setattr(es, "COARSEST_ORDER", 8)
        pair = _grid_pair(15)
        M = es._vcycle(pair.A.tocsr(), (13, 13, 13), (False,) * 3)
        dense = np.column_stack([M.matvec(e) for e in np.eye(pair.order)])
        assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
        assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0

    @pytest.mark.parametrize("coarsest", [200, 8])
    def test_vcycle_applies_to_blocks(self, monkeypatch, coarsest):
        # grid 11^3 has 9^3 dofs: two levels at the default cutoff, three at 8
        import degeig.eigensolve as es

        monkeypatch.setattr(es, "COARSEST_ORDER", coarsest)
        pair = _grid_pair(11)
        M = es._vcycle(pair.A.tocsr(), (9, 9, 9), (False,) * 3)
        X = np.random.default_rng(3).standard_normal((pair.order, 3))
        columns = np.column_stack([M @ x for x in X.T])
        assert_allclose(M @ X, columns, rtol=1e-13, atol=1e-13 * np.abs(columns).max())
        assert_allclose(M.matvec(X[:, :1]), columns[:, :1], rtol=1e-13,
                        atol=1e-13 * np.abs(columns).max())

    @pytest.mark.parametrize("n, k", [(21, 6), (31, 2), (41, 1)])
    def test_cg_iterations_per_inner_solve_flat(self, monkeypatch, n, k):
        # one V-cycle preconditioner brings inner CG to relative residual 0.1
        # in at most two iterations at every grid size (Jacobi: 9 to 21)
        import degeig.eigensolve as es

        pair = _grid_pair(n)
        settings = SolverSettings(k=k, tol=1e-9, max_iter=400)
        ref = _lu_lambdas(pair, k) if n == 21 else None
        calls, iters = [], []
        real = es.spla.cg

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, callback=lambda x: iters.append(1), **kwargs)

        monkeypatch.setattr(es.spla, "cg", counted)
        seq = es.solve_successive(pair, settings)
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
        assert rep.strictly_increasing

    def test_strictly_increasing_judged_across_clusters(self):
        # a rounding-level dip inside the octahedral triple is no decrease;
        # equal values in separate clusters are
        from dataclasses import replace

        pair = _grid_pair(11)
        seq = solve_successive(pair, SolverSettings(k=5))
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
