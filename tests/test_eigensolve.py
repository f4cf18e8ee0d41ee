import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from degeig.assembly import DiscreteOperatorPair, assemble_radial
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
        # radial: the Rayleigh-Ritz step on the k inverse-iteration vectors;
        # grid 11^3: one subset eigh per parity sector, each for its own top k
        import degeig.eigensolve as es

        calls = []
        real = es.sla.eigh
        monkeypatch.setattr(es.sla, "eigh",
                            lambda *a, **kw: calls.append((a[0].shape, kw)) or real(*a, **kw))
        radial = assemble_radial(build_radial_mesh(6.0, 96, 1.09), 3, 1.0, gaussian_bump())
        assert solve_dense(radial, 5).count == 5
        assert len(calls) == 1
        shape, kw = calls.pop()
        assert shape == (5, 5) and "subset_by_index" not in kw
        assert solve_dense(_grid_pair(11), 5).count == 5
        orders = [125, 100, 80, 64]  # (c + 1) per even axis, c per odd, c = 4
        assert [shape for shape, _ in calls] == [(n, n) for n in orders]
        assert [kw["subset_by_index"] for _, kw in calls] == [[n - 5, n - 1] for n in orders]

    @pytest.mark.parametrize("kind, bandwidth", [("ring", 1), ("grid", 81), ("toy", 11)])
    def test_banded_congruence_matches_generalized_eigh(self, kind, bandwidth):
        # the radial pencil takes the tridiagonal route, cube grid 11^3 one
        # generalized eigh per sector and the dense toy one on the whole
        # pencil; the reference is a generalized eigh of the densified pencil
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

    @pytest.mark.parametrize("case", ["gaussian-n5-M2000", "ring-a1.5", "ring-M16-q1"])
    def test_tridiagonal_route_matches_congruence(self, monkeypatch, case):
        # every radial pencil is tridiagonal and takes dsbgvx plus inverse
        # iteration; a generalized eigh (LAPACK's Cholesky congruence) of the
        # same pencil densified is the reference. N = 5 spreads diag(A) over
        # 29 decades, the ring's B is indefinite, and at M16 (q = 1) the
        # ring's positive pairs run out before k = 14
        import scipy.linalg as sla

        import degeig.eigensolve as es
        from conftest import preset_mesh, preset_pair

        if case == "gaussian-n5-M2000":
            pair, k = assemble_radial(preset_mesh(2000), 5, 1.0, gaussian_bump()), 6
        elif case == "ring-a1.5":
            pair, k = preset_pair("ring", 1.5, 512), 6
        else:
            mesh = build_radial_mesh(6.0, 16, 1.0)
            pair, k = assemble_radial(mesh, 3, 1.0, sign_changing_ring()), 14
        assert es._bandwidth(pair.A) == es._bandwidth(pair.B) == 1
        n = pair.order
        mus, vecs = sla.eigh(pair.B.toarray(), pair.A.toarray(), subset_by_index=[n - k, n - 1])
        whole = es.Block(None, [(None, None)], pair.A, pair.B, scale=np.ones(n))
        ref = es._finalize(pair, [(whole, mus, vecs, None, None)], requested=k, asked=k,
                           method="dense")
        real = sla.eigh

        def small_only(a, *args, **kwargs):
            assert a.shape[0] < n, "a tridiagonal pencil took the dense eigh"
            return real(a, *args, **kwargs)

        monkeypatch.setattr(es.sla, "eigh", small_only)
        seq = solve_dense(pair, k)
        assert seq.count == ref.count
        assert_allclose(seq.lambdas, ref.lambdas, rtol=1e-12)
        assert seq.exhausted == ref.exhausted == (case == "ring-M16-q1")
        assert seq.warnings == ref.warnings
        assert np.all(seq.residuals <= 1e-10)
        assert seq.max_cross_energy() <= 1e-10 * seq.lambdas.max()

    def test_tridiagonal_not_spd_rejected(self):
        # a positive diagonal, but the leading minor of order 2 is 1 - 4 < 0
        A = np.eye(3) + 2.0 * (np.eye(3, k=1) + np.eye(3, k=-1))
        with pytest.raises(SolverError, match="not positive definite"):
            solve_dense(toy_pair(A, np.eye(3)), 1)

    def test_wider_b_takes_the_congruence(self, monkeypatch):
        # the route is chosen by the wider of the two bandwidths: B of
        # bandwidth 2 takes the generalized eigh (LAPACK's Cholesky
        # congruence) of the densified pencil, and no dsbgvx call
        import scipy.linalg as sla
        import degeig.eigensolve as es

        calls = []
        real = es.sla.eigh
        monkeypatch.setattr(es.sla, "eigh",
                            lambda *a, **kw: calls.append(a[0].shape) or real(*a, **kw))
        monkeypatch.setattr(es, "_tridiagonal_eigh", None)
        A = 4.0 * np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)
        B = np.diag([1.0, 2.0, -1.0, 3.0])
        B[0, 2] = B[2, 0] = 0.5
        pair = toy_pair(A, B)
        assert es._bandwidth(pair.A) == 1 and es._bandwidth(pair.B) == 2
        seq = solve_dense(pair, 2)
        assert calls == [(4, 4)]
        mu = sla.eigh(B, A, eigvals_only=True)
        assert_allclose(seq.lambdas, np.sort(1.0 / mu[mu > 0])[:2], rtol=1e-12)

    @pytest.mark.parametrize("kind", ["radial", "grid", "sector"])
    def test_peak_memory_one_dense_array(self, kind):
        # radial: the tridiagonal route holds no array of order^2, only
        # bands, its k vectors and _finalize's n x k arrays. grid 11^3: dense
        # arrays of one parity sector at a time (at most 125^2), eigh
        # overwriting them: 0.14 n^2 doubles, where one congruence of the
        # whole pencil held 1.17. The sector is the ring's eee on grid 21^3
        # (order 1000, r = 83 nonzero B entries): 28 asked pairs are more
        # than a fifth of B's rank, so _block_pairs solves it on that rank in
        # 2.0 n r doubles, where the congruence of the sector held 14.1
        import tracemalloc
        from functools import partial

        import degeig.eigensolve as es

        if kind == "sector":
            A, B, S = _eee_sector(21)
            r = np.count_nonzero(B.diagonal())
            assert r == 83
            block = es.Block("eee", [((0, 1, 2), "eee")], A, B, S, (19,) * 3)
            solve = partial(es._block_pairs, block, 28, SolverSettings(), 42, 0)
        else:
            if kind == "radial":
                pair = assemble_radial(build_radial_mesh(6.0, 1000, 1.0), 3, 1.0, gaussian_bump())
            else:
                pair = _grid_pair(11)  # order 729, bandwidth 81
            A, solve = pair.A, partial(solve_dense, pair, 6)
        n = A.shape[0]
        tracemalloc.start()
        try:
            result = solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if kind == "sector":
            assert result[2:] == (n, "was solved densely") and np.all(result[0] > 0.0)
        else:
            assert result.count == 6
        if kind == "radial":
            assert peak <= 100 * n * 8
        elif kind == "grid":
            assert peak <= 0.2 * n * n * 8
        else:
            assert peak <= 2.5 * n * r * 8

    def test_wide_not_spd_rejected(self):
        # a positive diagonal and bandwidth 2, so the dense eigh runs: its
        # Cholesky factorization of A (eigenvalues -1, 1, 3) fails
        A = np.eye(3)
        A[0, 2] = A[2, 0] = 2.0
        message = r"dense eigh failed \(its B is the energy matrix\): .* not positive definite"
        with pytest.raises(SolverError, match=message):
            solve_dense(toy_pair(A, np.eye(3)), 1)

    @pytest.mark.parametrize("weight", [gaussian_bump, sign_changing_ring])
    def test_block_reference_matches_whole_pencil(self, weight):
        # the reference solves each parity sector by its own eigh and carries
        # its pairs to the sector's members; with their multiplicities they
        # are the top of the whole grid 13^3 pencil densified, so sharing the
        # sector bases with the successive route hides no eigenvalue
        import scipy.linalg as sla

        from degeig.eigensolve import cluster_gaps

        pair = _grid_pair(13, weight())
        n, k = pair.order, 30
        mu = sla.eigh(pair.B.toarray(), pair.A.toarray(), eigvals_only=True,
                      subset_by_index=[n - k, n - 1])
        # the ring has 26 positive mu; the zero mu of B's kernel come out at
        # rounding size, below the cut EXHAUSTION_RTOL * mu_1
        ref = np.sort(1.0 / mu[mu > 1e-12 * mu.max()])
        seq = solve_dense(pair, k)
        assert seq.count == ref.size == (26 if weight is sign_changing_ring else k)
        assert_allclose(seq.lambdas, ref, rtol=1e-12)
        clusters = cluster_gaps(ref)[1]
        assert seq.clusters == clusters
        assert {2, 3} <= {len(c) for c in clusters}

    @pytest.mark.parametrize("n, m", [(15, 12), (21, 28)])
    def test_low_rank_route_matches_densified_sector(self, n, m):
        # the rank-r solve of the ring's eee sector against a generalized
        # eigh of the same sector densified: its top m mu (what k = 12 on
        # 15^3 and the 28 pairs on 21^3 ask for, E_g doubles among them) and
        # all r nonzero mu, those of the negative shell's B entries included;
        # the vectors are A-orthonormal
        import scipy.linalg as sla

        import degeig.eigensolve as es

        A, B, _ = _eee_sector(n)
        b = B.diagonal()
        r = np.count_nonzero(b)
        assert np.any(b < 0.0) and 5 * m > r
        ref = sla.eigh(B.toarray(), A.toarray(), eigvals_only=True)
        ref = np.sort(ref[np.argsort(np.abs(ref))[-r:]])  # the n - r zero mu dropped
        assert np.count_nonzero(ref < 0.0) > 0
        for ask in (m, r):
            mu, V = es._low_rank_eigh(A, B, ask)
            assert_allclose(mu, ref[-ask:], rtol=1e-12)
            assert np.max(np.abs(V.T @ (A @ V) - np.eye(ask))) <= 1e-12
            assert all(np.linalg.norm(B @ v - u * (A @ v)) <= 1e-12 * np.linalg.norm(A @ v)
                       for u, v in zip(mu, V.T))
        top = ref[-m:]
        assert np.any(np.diff(top) <= 1e-9 * top[1:])  # both members of a double

    def test_cluster_detection(self):
        pair = toy_pair(np.eye(3), np.diag([1.0, 1.0, 0.5]))
        seq = solve_dense(pair, 3)
        assert_allclose(seq.lambdas, [1.0, 1.0, 2.0], rtol=1e-14)
        assert [0, 1] in seq.clusters
        # the double's two vectors are orthogonal, not two copies of one
        assert_allclose(seq.cross_mass, np.eye(3), atol=1e-14)


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

    @pytest.mark.parametrize("weight, k, ncv", [
        ("gaussian", 1, 3), ("gaussian", 6, 13), ("gaussian", 12, 25), ("ring", 6, 20),
        ("ring", 24, 72), (None, 3, 4),
    ])
    def test_arpack_basis_rule(self, monkeypatch, weight, k, ncv):
        # a definite pencil gets 2 m + 1 vectors and an indefinite one
        # NCV_PER_PAIR m, at least 20; at most the order either way (a toy
        # pencil of order 4 asked for 3 pairs)
        import degeig.eigensolve as es
        from conftest import preset_pair

        seen, real = [], es.spla.eigsh

        def spy(*args, ncv=None, **kwargs):
            seen.append(ncv)
            return real(*args, ncv=ncv, **kwargs)

        monkeypatch.setattr(es.spla, "eigsh", spy)
        pair = (preset_pair(weight, 1.0, 512) if weight else
                toy_pair(np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([4.0, 3.0, 2.0, 1.0])))
        solve_successive(pair, SolverSettings(k=k))
        assert seen == [ncv]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_smallest_bases_converge(self, gaussian_pair_512, k):
        # the 3-, 5- and 7-vector bases meet tol and agree with the reference
        seq = solve_successive(gaussian_pair_512, SolverSettings(k=k))
        assert seq.count == k and all(seq.converged)
        assert_allclose(seq.lambdas, solve_dense(gaussian_pair_512, k).lambdas, rtol=1e-10)

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

    def test_routes_share_the_positivity_cut(self):
        # mu = 1e-9 lies above EXHAUSTION_RTOL * mu_1 but below 1e-12 of the
        # largest |mu| (1e5) among the dense call's top three: both routes
        # keep it, and both report the missing third pair alike
        pair = toy_pair(np.eye(5), np.diag([1.0, 1e-9, -1e5, -2e5, -3e5]))
        de = solve_dense(pair, 3)
        it = solve_successive(pair, SolverSettings(k=3))
        assert de.count == it.count == 2
        assert de.exhausted and it.exhausted
        assert_allclose(de.lambdas, [1.0, 1e9], rtol=1e-12)
        assert_allclose(it.lambdas, de.lambdas, rtol=1e-12)
        exhaustion = "no further positive eigenvalue found (found 2 of 3)"
        assert de.warnings[-1] == it.warnings[-1] == exhaustion

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
        # k = 6 also cuts the double that pair 6 belongs to, warned about last
        *named, cut = seq.warnings
        assert cut == ("k = 6 cuts a cluster: 1 computed member(s) after pairs [6] "
                       "(lambda 13.92261) not reported")
        assert len(named) == len(stalled)
        for i, w in zip(stalled, named):
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
        # one restart is too few for 12 ring pairs on M=512 (24 pairs converge
        # in the first pass of the 72-vector basis an indefinite B gets)
        mesh = build_radial_mesh(6.0, 512, grading_for_span(512, 1e4))
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring())
        with pytest.raises(SolverError, match="did not converge within 1 restarts"):
            solve_successive(pair, SolverSettings(k=12, max_iter=1))

    def test_arpack_short_of_the_ask_names_next_pair(self, monkeypatch):
        # ARPACK stopped at its restart cap holding 1 of the 2 asked pairs:
        # the solve fails, naming the pair it did not converge
        import degeig.eigensolve as es

        pair = assemble_radial(build_radial_mesh(6.0, 64, 1.0), 3, 1.0, gaussian_bump())

        def one_converged(*args, **kwargs):
            raise es.spla.ArpackNoConvergence("no convergence", np.ones(1),
                                              np.ones((pair.order, 1)))

        monkeypatch.setattr(es.spla, "eigsh", one_converged)
        with pytest.raises(SolverError, match=r"^pair 2: ARPACK did not converge within 400 "
                                              r"restarts \(1 of 2 pairs converged\)$"):
            es.solve_successive(pair, SolverSettings(k=2))

    def test_arpack_route_maps_its_own_failures(self, monkeypatch):
        # the ARPACK route turns each ARPACK exception into a SolverError
        # itself, so none leaves the block calls of _maximize_quotient
        import degeig.eigensolve as es

        pair = assemble_radial(build_radial_mesh(6.0, 64, 1.0), 3, 1.0, gaussian_bump())
        failures = [
            (es.spla.ArpackNoConvergence("no convergence", np.ones(1), np.ones((pair.order, 1))),
             "pair 2: ARPACK did not converge within 400 restarts (1 of 2 pairs converged)"),
            (es.spla.ArpackError(-9999), "ARPACK failed: ARPACK error -9999: Unknown error"),
        ]
        for failure, message in failures:
            def failing(*args, **kwargs):
                raise failure

            monkeypatch.setattr(es.spla, "eigsh", failing)
            with pytest.raises(SolverError) as raised:
                es._maximize_quotient(pair, 2, SolverSettings(k=2), 42)
            assert str(raised.value) == message and raised.value.__cause__ is failure

    @pytest.mark.parametrize("M", [1024, 2000])
    def test_arpack_cap_on_the_converging_pass_keeps_the_pairs(self, M):
        # one restart ends on the very pass that converges all 24 ring pairs:
        # ARPACK raises at its cap holding every asked pair, and the solve
        # returns them, the same pairs as without the cap, with its call's
        # stop naming the cap
        mesh = build_radial_mesh(6.0, M, grading_for_span(M, 1e4))
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring())
        capped = solve_successive(pair, SolverSettings(k=24, max_iter=1))
        free = solve_successive(pair, SolverSettings(k=24))
        assert capped.count == 24 and all(capped.converged) and not capped.warnings
        assert_allclose(capped.lambdas, free.lambdas, rtol=1e-12)
        assert capped.calls == [{"pairs": list(range(1, 25)), "applications": 99,
                                 "stop": "met ARPACK's tolerance, absolute in mu, at its cap "
                                         "of 1 restarts and stopped"}]

    @pytest.mark.parametrize("kind", ["radial", "grid"])
    def test_one_eigensolver_call_for_all_pairs(self, monkeypatch, kind):
        # radial: one ARPACK call returns every pair. Grid: one LOBPCG call
        # per parity sector returns every pair of that sector and of the
        # sectors its axis permutations reach; each call is one record of the
        # pairs it produced and its applications of B
        import degeig.eigensolve as es

        name = "eigsh" if kind == "radial" else "lobpcg"
        calls = []  # the order of each call's operator
        asks = []  # the pairs each ARPACK call asks for
        real = getattr(es.spla, name)

        def recording(op, *a, **kw):
            calls.append(op.shape[0])
            if kind == "radial":
                asks.append(a[0])
            return real(op, *a, **kw)

        monkeypatch.setattr(es.spla, name, recording)
        if kind == "radial":
            pair = assemble_radial(build_radial_mesh(6.0, 128, 1.0), 3, 1.0, gaussian_bump())
        else:
            pair = _grid_pair(11)
        seq = es.solve_successive(pair, SolverSettings(k=4, tol=1e-8))
        assert seq.count == 4 and all(seq.converged)
        if kind == "radial":
            # the whole pencil is the one block: one call asking for min(k, order - 1)
            assert calls == [pair.order] and asks == [4]
            assert len(seq.calls) == 1 and seq.calls[0]["pairs"] == [1, 2, 3, 4]
            assert "block" not in seq.calls[0] and seq.iterations[0] > 0
            small = assemble_radial(build_radial_mesh(6.0, 8, 1.0), 3, 1.0, gaussian_bump())
            calls.clear()
            asks.clear()
            es.solve_successive(small, SolverSettings(k=20))
            assert calls == [small.order] and asks == [small.order - 1]
            return
        # k = 4 asks eee for 4 pairs, oee for floor(6 / 4) = 1 and ooe for
        # floor(6 / 7) = 0, which ends the calls; each sector is solved on its
        # own dofs: (c + 1) per even axis, c per odd, c = 4
        assert calls == [125, 100]
        assert seq.sectors[0] == "eee"
        assert [c["block"] for c in seq.calls] == ["eee", "oee"]
        assert sorted(n for c in seq.calls for n in c["pairs"]) == [1, 2, 3, 4]
        assert all(count > 0 for count in seq.iterations)

    @pytest.mark.parametrize("case", ["radial", "grid13-k6", "ring-grid15-k12"])
    def test_call_records_are_the_work(self, monkeypatch, case):
        # seq.iterations is each call's work, in call order: the final count
        # of the operator _counted wraps for it, or one application per dof
        # for a sector solved densely (the ring's eee on 15^3, 343 dofs).
        # Each record's pairs are exactly the reported pairs whose sector is
        # a member of its block; a call may produce none
        import degeig.eigensolve as es

        work = []  # per call: its counted operator, or its order if dense
        counted, low_rank = es._counted, es._low_rank_eigh

        def recording_counted(B):
            work.append(counted(B))
            return work[-1]

        def recording_low_rank(A, B, m):
            work.append(A.shape[0])
            return low_rank(A, B, m)

        monkeypatch.setattr(es, "_counted", recording_counted)
        monkeypatch.setattr(es, "_low_rank_eigh", recording_low_rank)
        pair, k = {
            "radial": lambda: (assemble_radial(build_radial_mesh(6.0, 512, 1.0), 3, 1.0,
                                               sign_changing_ring()), 6),
            "grid13-k6": lambda: (_grid_pair(13), 6),
            "ring-grid15-k12": lambda: (_grid_pair(15, sign_changing_ring()), 12),
        }[case]()
        seq = es.solve_successive(pair, SolverSettings(k=k))
        assert seq.iterations == [w if isinstance(w, int) else w.applications for w in work]
        assert all(count > 0 for count in seq.iterations)
        assert (343 in work) == (case == "ring-grid15-k12")
        orbits = [None if s is None else _orbit(s) for s in seq.sectors]
        for call in seq.calls:
            assert call["pairs"] == [n for n, o in enumerate(orbits, 1) if o == call.get("block")]
        assert sorted(n for call in seq.calls for n in call["pairs"]) == list(range(1, k + 1))

    def test_equal_mu_keep_the_call_order(self, monkeypatch):
        # pairs of equal mu are walked in the order their calls returned them,
        # each with its own call; nothing re-sorts them, and each call's
        # record names the pair it produced, whatever the order of the calls
        # (the first call here holds the smallest mu)
        import degeig.eigensolve as es

        pair = toy_pair(np.diag([1.0, 1.0, 2.0, 4.0]), np.eye(4))
        whole = es.Block(None, [((0,), None)], None, None, sp.identity(4, format="csr"), (4,))
        e = np.eye(4)
        vecs = e[:, [1, 0, 2]]  # e_2, then e_1 and e_3
        monkeypatch.setattr(es, "_maximize_quotient", lambda *a: [
            (whole, [0.5], e[:, [2]], 3, "stopped at c"),
            (whole, [1.0], e[:, [1]], 7, "stopped at a"),
            (whole, [1.0], e[:, [0]], 9, "stopped at b")])
        seq = es.solve_successive(pair, SolverSettings(k=3))
        assert seq.clusters == [[0, 1], [2]]
        assert np.array_equal(seq.vectors, vecs)
        assert seq.iterations == [3, 7, 9]
        assert seq.calls == [{"pairs": [3], "applications": 3, "stop": "stopped at c"},
                             {"pairs": [1], "applications": 7, "stop": "stopped at a"},
                             {"pairs": [2], "applications": 9, "stop": "stopped at b"}]

    @pytest.mark.parametrize("beyond, cut", [([0.5, 0.5 * (1 - 1e-10), 0.4, 0.0, -1.0], 2),
                                             ([0.5 * (1 - 1e-8)], 0), ([0.0, -1.0], 0)])
    def test_cut_counts_the_computed_run(self, monkeypatch, beyond, cut):
        # the mu computed past the k-th that the cluster rule joins to it are
        # counted, up to the first relative gap above CLUSTER_RTOL; a mu <= 0
        # joins none and divides by nothing
        import degeig.eigensolve as es

        pair = toy_pair(np.diag([1.0, 2.0, 4.0]), np.eye(3))
        whole = es.Block(None, [(None, None)], None, None, scale=np.ones(3))
        # the columns past the second stand for the vectors of beyond
        vecs = np.column_stack([np.eye(3)[:, :2], np.zeros((3, len(beyond)))])
        monkeypatch.setattr(es, "_maximize_quotient", lambda *a: [
            (whole, [1.0, 0.5, *beyond], vecs, 2, "stopped")])
        seq = es.solve_successive(pair, SolverSettings(k=2))
        assert seq.clusters == [[0], [1]]
        assert seq.warnings == [f"k = 2 cuts a cluster: {cut} computed member(s) after pairs [2] "
                                "(lambda 2) not reported"] * (cut > 0)

    @pytest.mark.parametrize("grid", [False, True])
    def test_one_call_for_m_pairs_never_cuts(self, grid, gaussian_pair_512):
        # a radial solve, and a grid solve at k = 1, make one call for exactly
        # the m pairs reported, so no computed member is left over to warn of
        import degeig.eigensolve as es

        pair, settings = (_grid_pair(11), SolverSettings(k=1)) if grid else (
            gaussian_pair_512, SolverSettings(k=6))
        calls = es._maximize_quotient(pair, settings.k, settings, 42)
        assert sum(len(mu) * len(block.members) for block, mu, *_ in calls) == settings.k
        assert not any("cuts a cluster" in w for w in solve_successive(pair, settings).warnings)

    @pytest.mark.parametrize("grid", [False, True])
    def test_returned_mu_are_rayleigh_quotients(self, grid, gaussian_pair_512):
        # the mu each call returns (ARPACK's eigenvalues, LOBPCG's final
        # Rayleigh-Ritz values) are the quotients of the vectors it returns.
        # Both geometries return one shape: one record (block, mu, vectors,
        # applications, stop) per call, merged (_merged) with mu
        # non-increasing, equal mu (the grid's triple, one sector vector
        # carried to three members) in the call's order, per column the index
        # of its call and one member label, None off the grid, and the mu
        # computed past the fifth, none off the grid
        import degeig.eigensolve as es

        pair = _grid_pair(11) if grid else gaussian_pair_512
        calls = es._maximize_quotient(pair, 5, SolverSettings(k=5), 42)
        mus, vecs, sources = es._merged(pair, calls, 5)
        mus, beyond = mus[:5], mus[5:]
        labels = [label for _, label in sources]
        quotients = (np.einsum("ij,ij->j", vecs, pair.B @ vecs)
                     / np.einsum("ij,ij->j", vecs, pair.A @ vecs))
        assert_allclose(mus, quotients, rtol=1e-12)
        assert vecs.shape == (pair.order, 5)
        assert all(a >= b for a, b in zip(mus + beyond, (mus + beyond)[1:]))
        assert len(sources) == 5
        assert all(isinstance(a, int) and a > 0 and isinstance(stop, str)
                   for *_, a, stop in calls)
        if grid:
            assert [block.label for block, *_ in calls] == ["eee", "oee", "ooe"]
            assert [c for c, _ in sources] == [0, 0, 1, 1, 1]
            assert labels == ["eee", "eee", "oee", "eoe", "eeo"]
            assert mus[2] == mus[3] == mus[4]
            # eee asked for 5, each triple sector for 1 (3 members), ooo for none
            assert len(beyond) == 5 + 3 + 3 - 5
        else:
            assert [block.label for block, *_ in calls] == [None]
            assert sources == [(0, None)] * 5
            assert len(set(mus)) == 5
            assert beyond == []

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
        # the order; cube grids: one LOBPCG call per parity sector asked for
        # a pair (k = 2 asks eee for two, oee for one and ooe for none) and
        # no factorization
        import degeig.eigensolve as es

        calls = []
        for name in ("splu", "eigsh", "lobpcg"):
            real = getattr(es.spla, name)
            monkeypatch.setattr(es.spla, name, lambda *a, _name=name, _real=real, **kw:
                                calls.append(_name) or _real(*a, **kw))
        radial = assemble_radial(build_radial_mesh(6.0, 32768, 1.0), 3, 1.0, gaussian_bump())
        toy = toy_pair(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), np.eye(5))
        for pair, expected in ((radial, ["splu", "eigsh"]), (toy, ["splu", "eigsh"]),
                               (_grid_pair(11), ["lobpcg"] * 2)):
            calls.clear()
            assert es.solve_successive(pair, SolverSettings(k=2)).count == 2
            assert calls == expected

    def test_large_radial_order_factorized(self):
        mesh = build_radial_mesh(6.0, 32768, grading_for_span(32768, 1e4))
        pair = assemble_radial(mesh, 3, 1.0, gaussian_bump())
        seq = solve_successive(pair, SolverSettings(k=2))
        assert seq.count == 2
        assert np.all(seq.residuals <= 1e-8)

    def test_high_dimension_pencil_equilibrated(self):
        # at N = 9, alpha = 1.9 diag(A) spans 1e-44 to 1e10: ARPACK on the
        # unscaled pencil returned pairs at residual 1.0 that its test in mu
        # accepted. On the equilibrated pencil they match the dense reference
        mesh = build_radial_mesh(6.0, 128, grading_for_span(128, 1e4))
        pair = assemble_radial(mesh, 9, 1.9, gaussian_bump())
        seq = solve_successive(pair, SolverSettings(k=3), seed=1)
        assert seq.count == 3 and np.max(seq.residuals) <= 1e-11
        assert_allclose(seq.lambdas, solve_dense(pair, 3).lambdas, rtol=1e-12)

    def test_nonpositive_energy_diagonal_rejected(self):
        A = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(SolverError, match="diagonal entry 1 is 0"):
            solve_successive(toy_pair(A, np.eye(3)), SolverSettings(k=1))

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
        # grid 9^3 is the smallest (order 343), and the gaussian's B has full
        # rank. k = 70 asks eee, oee, ooe and ooo for 64, 18, 10 and 8 pairs,
        # each above a fifth of its 64, 48, 36 or 27 dofs, so all four are
        # solved on that rank, counted as one application of B per sector dof
        pair = _grid_pair(9)
        ref = solve_dense(pair, 70)
        seq = solve_successive(pair, SolverSettings(k=70))
        sectors = {"eee": 64, "oee": 48, "ooe": 36, "ooo": 27}
        assert [c["block"] for c in seq.calls] == list(sectors)
        for call, order in zip(seq.calls, sectors.values()):
            assert call["stop"] == "was solved densely"
            assert call["applications"] == order
        assert set(map(_orbit, seq.sectors)) == set(sectors)
        assert all(seq.converged)
        assert_allclose(seq.lambdas, ref.lambdas, rtol=1e-8)
        assert seq.clusters == ref.clusters

    @pytest.mark.parametrize("n", [9, 11, 15, 21])
    @pytest.mark.parametrize("weight", [gaussian_bump, sign_changing_ring])
    def test_lobpcg_runs_only_where_it_iterates(self, monkeypatch, n, weight):
        # scipy's lobpcg solves an order under 5 times its block by one dense
        # eigh and reports no iteration; a sector whose B has rank under 5
        # asks is solved on that rank instead. So every LOBPCG call of the
        # sweep has an order and a B rank of at least 5 blocks, no call stops
        # "after 0 of" its iterations, and where the dense reference runs
        # (n <= 13) each k agrees with it in lambda and clusters
        import degeig.eigensolve as es

        ranks, calls = [], []  # B's rank per counted operator; (order, block, rank) per call
        counted, lobpcg = es._counted, es.spla.lobpcg

        def recording_counted(B):
            ranks.append(np.count_nonzero(B.diagonal()))
            return counted(B)

        def recording_lobpcg(op, X, *a, **kw):
            calls.append((op.shape[0], X.shape[1], ranks[-1]))
            return lobpcg(op, X, *a, **kw)

        monkeypatch.setattr(es, "_counted", recording_counted)
        monkeypatch.setattr(es.spla, "lobpcg", recording_lobpcg)
        pair = _grid_pair(n, weight())
        for k in (1, 3, 6, 8, 24, 40, 70):
            seq = es.solve_successive(pair, SolverSettings(k=k))
            assert not any("after 0 of" in c["stop"] for c in seq.calls)
            if pair.order <= es.DENSE_THRESHOLD:
                ref = solve_dense(pair, k)
                assert seq.count == ref.count
                assert_allclose(seq.lambdas, ref.lambdas, rtol=1e-8)
                assert seq.clusters == ref.clusters
        assert calls and all(order >= 5 * block and rank >= 5 * block
                             for order, block, rank in calls)

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
        assert not any("met ARPACK's tolerance" in w for w in seq.warnings)

    def test_small_mu_arpack_pair_names_its_ratio(self):
        # mu_2 is 1e-9 of mu_1: ARPACK's accuracy in mu is absolute, so that
        # pair keeps a relative residual far above its rounding floor, and its
        # warning gives its call's stop and mu_n / mu_1 as the cause
        from degeig.eigensolve import FLOOR_MARGIN

        pair = toy_pair(np.eye(5), np.diag([1.0, 1e-9, -1e5, -2e5, -3e5]))
        seq = solve_successive(pair, SolverSettings(k=3))
        assert seq.count == 2 and seq.converged == [True, False]
        assert seq.residuals[1] > FLOOR_MARGIN * seq.residual_floors[1]
        assert seq.warnings == [
            f"pair 2 met ARPACK's tolerance, absolute in mu, and stopped at residual "
            f"{seq.residuals[1]:.3e} (tol 1e-09, mu_n / mu_1 = 1.0e-09)",
            "no further positive eigenvalue found (found 2 of 3)",
        ]


class TestParitySectors:
    @pytest.mark.parametrize("n", [9, 11, 13])
    @pytest.mark.parametrize("weight", [gaussian_bump, sign_changing_ring])
    def test_matches_full_grid_dense(self, n, weight):
        # the sector route against the full-grid dense reference, which asks
        # every sector for min(k, order) mu where the successive solve asks by
        # interlacing: the same lambda, the same clusters, the same exhaustion
        pair = _grid_pair(n, weight())
        for k in (1, 2, 5, 6, 8, 20, 24):
            ref = solve_dense(pair, k)
            seq = solve_successive(pair, SolverSettings(k=k))
            assert seq.count == ref.count and seq.exhausted == ref.exhausted
            assert_allclose(seq.lambdas, ref.lambdas, rtol=1e-8)
            assert seq.clusters == ref.clusters
            assert all(seq.converged)

    @pytest.mark.parametrize("n", [13, 31])
    @pytest.mark.parametrize("weight", [gaussian_bump, sign_changing_ring])
    def test_odd_sectors_sliced_from_eee_keep_the_bits(self, n, weight):
        # each odd sector's pencil is sliced from its predecessor's, which is
        # eee's on the coordinates j >= 1 of its odd axes: the same data,
        # indices and index pointers as projecting the whole pencil on it
        import degeig.eigensolve as es

        pair = _grid_pair(n, weight())
        blocks = [block for block, _ in es._blocks(pair, lambda w, W: 1)]
        assert [b.label for b in blocks] == list(es.SECTORS)
        for block in blocks[1:]:
            ST = TestPeakMemory._sector_basis(pair, block.label).T.tocsr()
            for got, M in ((block.A, pair.A), (block.B, pair.B)):
                want = es._project(M, ST)
                for f in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, f), getattr(want, f))

    @pytest.mark.parametrize("weight", [gaussian_bump, sign_changing_ring])
    def test_sector_mu_interlace(self, weight):
        # each sector's pencil is its predecessor's restricted to a subspace,
        # d dofs fewer, so by Cauchy interlacing its j-th largest mu lies
        # between the predecessor's j-th and (j + d)-th
        import scipy.linalg as sla

        import degeig.eigensolve as es

        mus = [sla.eigh(b.B.toarray(), b.A.toarray(), eigvals_only=True)[::-1]
               for b, _ in es._blocks(_grid_pair(13, weight()), lambda w, W: 1)]
        assert [mu.size for mu in mus] == [216, 180, 150, 125]
        for parent, child in zip(mus, mus[1:]):
            slack = 1e-12 * parent[0]
            d = parent.size - child.size
            assert np.all(child <= parent[:child.size] + slack)
            assert np.all(child >= parent[d:] - slack)

    @pytest.mark.parametrize("weight", [gaussian_bump, sign_changing_ring])
    def test_asks_follow_the_interlacing_rule(self, monkeypatch, weight):
        # a sector of w members, W in it and the sectors before it, asks for
        # floor((m - 1 + w) / W) pairs, at most its positive count (its
        # positive B entries, read here from its own projection), and the
        # first that asks for none ends the calls; a sector past the last
        # nonzero rule ask is never formed
        import degeig.eigensolve as es

        pair = _grid_pair(11, weight())
        positive = {label: np.count_nonzero(es._project(
            pair.B, TestPeakMemory._sector_basis(pair, label).T.tocsr()).diagonal() > 0.0)
            for label in es.SECTORS}
        asked, formed = [], []
        block_type = es.Block

        def recording_block(label, *args, **kwargs):
            formed.append(label)
            return block_type(label, *args, **kwargs)

        def recording_pairs(block, ask, *args):
            asked.append((block.label, ask))
            return np.zeros(ask), np.zeros((block.A.shape[0], ask)), 0, "recorded"

        monkeypatch.setattr(es, "Block", recording_block)
        monkeypatch.setattr(es, "_block_pairs", recording_pairs)
        for m in (1, 2, 4, 6, 8, 24, 70):
            asked.clear()
            formed.clear()
            es._maximize_quotient(pair, m, SolverSettings(k=m), 42)
            want, rule, total = [], [], 0
            for label, w in zip(es.SECTORS, (1, 3, 3, 1)):
                total += w
                rule.append((m - 1 + w) // total)
                if min(rule[-1], positive[label]) == 0:
                    break
                want.append((label, min(rule[-1], positive[label])))
            assert asked == want
            assert formed == list(es.SECTORS[:len(rule) - (rule[-1] == 0)])
            if weight is gaussian_bump and m in (6, 24):
                assert [a for _, a in asked] == {6: [6, 2, 1], 24: [24, 6, 3, 3]}[m]

    def test_blocks_own_the_chain(self, monkeypatch):
        # _blocks reads each block's width before forming it and asks the
        # rule for (w, W), W counting the members of the blocks so far; then
        # it forms the block and caps the ask by its positive count. The first
        # zero ask, of the rule or of the cap, ends the chain, and no block
        # after it is projected, sliced or equilibrated
        import degeig.eigensolve as es

        seen, formed, projected, equilibrated = [], [], [], []
        block_type, project, equilibration = es.Block, es._project, es._equilibration
        monkeypatch.setattr(es, "Block", lambda label, *a, **kw: (
            formed.append(label) or block_type(label, *a, **kw)))
        monkeypatch.setattr(es, "_project", lambda M, ST: projected.append(M) or project(M, ST))
        monkeypatch.setattr(es, "_equilibration", lambda A: (
            equilibrated.append(A) or equilibration(A)))

        def chain(pair, rule):
            for records in (seen, formed, projected, equilibrated):
                records.clear()
            return [(block.label, ask) for block, ask in
                    es._blocks(pair, lambda w, W: seen.append((w, W)) or rule(w, W))]

        grid = _grid_pair(11)
        assert chain(grid, lambda w, W: 2) == [(label, 2) for label in es.SECTORS]
        assert seen == [(1, 1), (3, 4), (3, 7), (1, 8)]
        assert formed == list(es.SECTORS) and len(projected) == 2  # eee's A and B
        assert chain(grid, lambda w, W: int(W == 1)) == [("eee", 1)]
        assert seen == [(1, 1), (3, 4)] and formed == ["eee"] and len(projected) == 2
        assert chain(grid, lambda w, W: 0) == []
        assert seen == [(1, 1)] and formed == projected == []

        radial = assemble_radial(build_radial_mesh(6.0, 64, 1.0), 3, 1.0, gaussian_bump())
        assert chain(radial, lambda w, W: 2) == [(None, 2)]
        assert seen == [(1, 1)] and len(equilibrated) == 1
        assert chain(radial, lambda w, W: radial.order + 5) == [(None, radial.order)]
        assert chain(radial, lambda w, W: 0) == []
        assert formed == equilibrated == []

        # ring 9^3 has 3, 1, 0 and 0 positive B entries in eee, oee, ooe and
        # ooo: ooe is formed to read its count, which ends the chain, and ooo
        # is never formed
        ring = _grid_pair(9, sign_changing_ring())
        assert chain(ring, lambda w, W: 5) == [("eee", 3), ("oee", 1)]
        assert formed == ["eee", "oee", "ooe"]

        # the dense reference asks every block for k under the same cap and
        # stop, so it solves eee and oee alone, with the lambda and clusters
        # it found when it also solved ooe and ooo for their top k mu
        seq = solve_dense(ring, 6)
        assert [call["block"] for call in seq.calls] == ["eee", "oee"]
        assert_allclose(seq.lambdas, [2.9656825989023403, 3.796462093199152, 3.796462093199153,
                                      3.7964620931991533, 4.004791593835777, 4.004791593835777],
                        rtol=1e-14)
        assert seq.clusters == [[0], [1, 2, 3], [4, 5]]
        assert seq.sectors == ["eee", "oee", "eoe", "eeo", "eee", "eee"]

    def test_sector_asks_at_most_its_positive_count(self, monkeypatch):
        # by Sylvester's law of inertia a sector has as many positive mu as
        # positive B entries. The ring on grid 11^3 has 18 positive
        # eigenvalues, so k = 30 exhausts every sector: none is asked for
        # more than it has, and the shortfall is reported as exhaustion
        import degeig.eigensolve as es

        asked = []  # (pairs asked, positive B entries) per sector call, on either route
        lobpcg, low_rank = es._lobpcg, es._low_rank_eigh

        def recording_lobpcg(A, B, shape, mirrored, m, *args):
            asked.append((m, np.count_nonzero(B.diagonal() > 0.0)))
            return lobpcg(A, B, shape, mirrored, m, *args)

        def recording_low_rank(A, B, m):
            asked.append((m, np.count_nonzero(B.diagonal() > 0.0)))
            return low_rank(A, B, m)

        monkeypatch.setattr(es, "_lobpcg", recording_lobpcg)
        monkeypatch.setattr(es, "_low_rank_eigh", recording_low_rank)
        seq = es.solve_successive(_grid_pair(11, sign_changing_ring()), SolverSettings(k=30))
        assert seq.exhausted and seq.count == 18 and all(seq.converged)
        # eee, oee and ooe ask for all they hold (18 = 6 + 3 x 3 + 3 x 1); ooo
        # has no positive B entry and is skipped
        assert asked == [(6, 6), (3, 3), (1, 1)]
        assert [c["block"] for c in seq.calls] == ["eee", "oee", "ooe"]
        assert any("found 18 of 30" in w for w in seq.warnings)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_low_rank_sector_solved_densely(self, seed):
        # the ring on grid 9^3 leaves eee 7 nonzero B entries of 64, and a
        # block of 3 pairs there made LOBPCG break down after 2 iterations
        # on seeds 2, 4, 5 and 6 (pair 1 stopped at residual 6e-3 to 2e-2);
        # oee's B has rank 4 for 1 pair. Both ranks are under 5 asks, so both
        # sectors are solved on B's rank and no LOBPCG call runs
        pair = _grid_pair(9, sign_changing_ring())
        seq = solve_successive(pair, SolverSettings(k=6), seed=seed)
        assert all(seq.converged) and not seq.warnings
        assert [(c["block"], c["stop"]) for c in seq.calls] == [
            ("eee", "was solved densely"), ("oee", "was solved densely")]
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
        _, vecs, sources = es._merged(pair, es._maximize_quotient(pair, 5, SolverSettings(k=5),
                                                                  42), 5)
        sectors = [label for _, label in sources]
        members = [vecs[:, j].reshape((9,) * 3) for j, s in enumerate(sectors) if s != "eee"]
        assert sorted(s for s in sectors if s != "eee") == ["eeo", "eoe", "oee"]
        assert all(carried(u, v, np.array_equal) for u, v in combinations(members, 2))
        seq = solve_successive(pair, SolverSettings(k=5))
        assert seq.clusters[2] == [2, 3, 4]
        members = [seq.vectors[:, j].reshape((9,) * 3) for j in (2, 3, 4)]
        assert all(carried(u, v, rounding) for u, v in combinations(members, 2))

    def test_cut_triple_warned(self):
        # k = 4 on grid 11^3 reports two members of the octahedral triple; the
        # triple's sector call also carried its third member, which is not
        # reported, and the warning names the two that are
        seq = solve_successive(_grid_pair(11), SolverSettings(k=4))
        assert seq.clusters == [[0], [1], [2, 3]]
        assert seq.warnings == ["k = 4 cuts a cluster: 1 computed member(s) after pairs [3, 4] "
                                "(lambda 18.43487) not reported"]

    @pytest.mark.parametrize("n", [11, 13])
    def test_dense_reference_judged_as_successive(self, n):
        # k = 4 cuts the octahedral triple after pairs 3 and 4. The dense
        # reference's calls are finished by the same step as the successive
        # solve's: the same clusters, the same cut warning, word for word, and
        # the same sector per pair
        pair = _grid_pair(n)
        ref = solve_dense(pair, 4)
        seq = solve_successive(pair, SolverSettings(k=4))
        assert ref.clusters == seq.clusters == [[0], [1], [2, 3]]
        assert len(seq.warnings) == 1 and "k = 4 cuts a cluster: 1 computed" in seq.warnings[0]
        assert ref.warnings == seq.warnings
        assert ref.sectors == seq.sectors == ["eee", "eee", "oee", "eoe"]

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


class TestPeakMemory:
    def test_finalize_holds_vectors_and_two_products(self):
        # past its input, _finalize holds the kept vectors, A V, B V and
        # temporaries of one vector's length: 3.3 times the input on ring
        # M8192 k=24, where whole-block |A| |V| products and norms took 7.0
        import tracemalloc

        from degeig.eigensolve import _finalize, _maximize_quotient

        mesh = build_radial_mesh(6.0, 8192, grading_for_span(8192, 1e4))
        pair = assemble_radial(mesh, 3, 1.0, sign_changing_ring())

        def finalize(calls):
            return _finalize(pair, calls, 24, 24, "successive", tol=1e-9)

        finalize(_maximize_quotient(pair, 24, SolverSettings(k=24), 42))  # first-call caches
        # _finalize reorders and scales the call's vectors in place, so it is
        # measured on calls of its own
        calls = _maximize_quotient(pair, 24, SolverSettings(k=24), 42)
        vecs = calls[0][2]
        tracemalloc.start()
        try:
            finalize(calls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * vecs.nbytes

    def test_tridiagonal_written_at_final_size(self):
        # _symmetric_csr writes its CSR arrays at their final size: on a
        # tridiagonal of order M = 8192 it peaks at 1.64x the bytes of the
        # matrix it returns, where staging each row's three slots as (M, 3)
        # arrays and their masked copies took 2.36x
        import tracemalloc

        from degeig.assembly import _symmetric_csr

        rng = np.random.default_rng(3)
        diag, upper = rng.standard_normal(8192), rng.standard_normal(8192)
        stored = np.ones(8192, dtype=bool)
        _symmetric_csr(diag, [(1, upper, stored)])  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            T = _symmetric_csr(diag, [(1, upper, stored)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T.nnz == 3 * 8192 - 2
        assert peak <= 1.85 * (T.data.nbytes + T.indices.nbytes + T.indptr.nbytes)

    def test_grid_k1_forms_the_first_block_alone(self):
        # k = 1 asks every block after the first for no pair, so eee alone is
        # formed: the solve of gaussian 41^3 peaks at 4.93 MiB, where forming
        # each sector's pencil before skipping those that ask for none took
        # 8.25 MiB
        import tracemalloc

        from degeig.eigensolve import _maximize_quotient, _merged

        pair = _grid_pair(41)
        _maximize_quotient(pair, 1, SolverSettings(k=1), 42)  # first-call caches stay out
        tracemalloc.start()
        try:
            _, vecs, _ = _merged(pair, _maximize_quotient(pair, 1, SolverSettings(k=1), 42), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vecs.shape == (pair.order, 1)
        assert peak <= 5.5 * 2**20

    @staticmethod
    def _sector_basis(pair, label):
        from degeig.eigensolve import _mirror_basis

        bases = [_mirror_basis((pair.geometry.n - 3) // 2, parity) for parity in label]
        return sp.kron(sp.kron(bases[0], bases[1]), bases[2], format="csr")

    def test_solve_keeps_no_sector_pencil(self, monkeypatch):
        # with the cyclic collector off, the eee block's A and B are freed by
        # the time solve_successive returns: _finalize cuts the call records to
        # what the sequence reads, and neither the V-cycle hierarchy nor the
        # counted B operator is in a reference cycle
        import gc
        import weakref

        import degeig.eigensolve as es

        refs, real = [], es._block_pairs

        def spy(block, *args):
            refs.extend(weakref.ref(mat) for mat in (block.A, block.B))
            return real(block, *args)

        monkeypatch.setattr(es, "_block_pairs", spy)
        pair = _grid_pair(21)
        gc.disable()
        try:
            seq = solve_successive(pair, SolverSettings(k=1))
            assert len(refs) == 2 and all(ref() is None for ref in refs)
        finally:
            gc.enable()
        assert [call["block"] for call in seq.calls] == ["eee"]

    def test_sector_projection_copies_no_operator(self):
        # S^T A S formed PROJECTION_ROWS rows at a time peaks at 0.6 of A's
        # bytes on the eee sector of 41^3; the whole product, which copies A
        # to CSC, peaked at 2.0
        import tracemalloc

        from degeig.eigensolve import _project

        pair = _grid_pair(41)
        ST = self._sector_basis(pair, "eee").T.tocsr()
        _project(pair.A, ST)
        tracemalloc.start()
        try:
            _project(pair.A, ST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * (pair.A.data.nbytes + pair.A.indices.nbytes + pair.A.indptr.nbytes)

    @pytest.mark.parametrize("rows", [7, 2048])
    def test_sector_projection_equals_whole_product(self, monkeypatch, rows):
        # in blocks of any size, the sector pencil keeps the bits and the
        # sorted indices of (S.T @ M @ S).tocsr()
        import degeig.eigensolve as eigensolve

        monkeypatch.setattr(eigensolve, "PROJECTION_ROWS", rows)
        pair = _grid_pair(13, sign_changing_ring())
        for label in eigensolve.SECTORS:
            S = self._sector_basis(pair, label)
            for M in (pair.A, pair.B):
                want, got = (S.T @ M @ S).tocsr(), eigensolve._project(M, S.T.tocsr())
                assert got.has_sorted_indices
                for f in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, f), getattr(want, f))


def _orbit(sector):
    """The parity sector of SECTORS that an axis permutation carries sector to."""
    return "".join(sorted(sector, reverse=True))


def _eee_sector(n):
    """The ring's eee sector pencil on grid n^3, S^T A S and S^T B S, and S."""
    import degeig.eigensolve as es

    pair = _grid_pair(n, sign_changing_ring())
    e = es._mirror_basis((n - 3) // 2, "e")
    S = sp.kron(sp.kron(e, e), e, format="csr")
    return (S.T @ pair.A @ S).tocsr(), (S.T @ pair.B @ S).tocsr(), S


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

    def test_hierarchy_freed_when_lobpcg_returns(self, monkeypatch):
        # the V-cycle recurses through a module function, so its levels are in
        # no reference cycle: with the cyclic collector off, every level's
        # interpolation (19^3: two levels) is freed when _lobpcg returns
        import gc
        import weakref

        import degeig.eigensolve as es

        refs, real = [], es._interpolation

        def spy(*args):
            P, shape = real(*args)
            refs.append(weakref.ref(P))
            return P, shape

        monkeypatch.setattr(es, "_interpolation", spy)
        pair = _grid_pair(21)
        gc.disable()
        try:
            es._lobpcg(pair.A, pair.B, (19,) * 3, (False,) * 3, 1, SolverSettings(k=1), 42, 0)
            assert len(refs) == 2 and all(ref() is None for ref in refs)
        finally:
            gc.enable()

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
        q0 = (u @ (pair.A @ u)) / (u @ (pair.B @ u))
        for c in (1e-3, 7.0, -250.0):
            v = c * u
            q = (v @ (pair.A @ v)) / (v @ (pair.B @ v))
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
        assert rep.ratios[0] == 1.0

    def test_plus_bound_with_sign_changing_weight(self, pairs_512, solved_512):
        pair = pairs_512[("ring", 1.0)]
        rep = growth_diagnostics(solved_512[("ring", 1.0)], pair)
        # integral of g^+ f^2 strictly exceeds 1/lambda when g^- is active
        assert np.all(rep.bound_margins >= -1e-12)

    def test_empty_sequence_rejected(self, gaussian_pair_512):
        from degeig.eigensolve import EigenSequence

        empty = EigenSequence(
            lambdas=np.zeros(0), vectors=np.zeros((gaussian_pair_512.order, 0)),
            residuals=np.zeros(0),
            cross_energy=np.zeros((0, 0)), cross_mass=np.zeros((0, 0)),
            converged=[], requested=1, exhausted=True,
            method="successive",
        )
        with pytest.raises(ValueError):
            growth_diagnostics(empty, gaussian_pair_512)


def test_readme_library_use_runs(capsys):
    # the fenced python block under the README's "Library use" runs as written
    import os
    import re

    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = open(readme).read()
    block = re.search(r"```python\n(.*?)```", text[text.index("## Library use"):], re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    lambdas, ratios = capsys.readouterr().out.split("\n", 1)
    assert lambdas.startswith("[ 4.78376115 13.51427178 ")
    assert ratios.startswith("[ 1. ")
