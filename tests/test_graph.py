import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from mixedvol import bodies as B
from mixedvol import graph as G
from mixedvol import lowerdim as LD
from mixedvol import measures as MS
from mixedvol.bodies import SupportEvaluator
from mixedvol.errors import (BadMesh, BadParam, DegenerateInput,
                             InsufficientSpectrum, NumericalFailure)

from conftest import (BODIES, body, mode3_eigenvalues, reference_elements,
                      reference_mass_factor, reference_matrices, rel_err)


def test_cube_graph_combinatorics(unit_cube):
    g = G.build_graph(unit_cube)
    assert len(g.normals) == 6
    assert len(g.edges) == 12
    for length, weight in zip(g.arcs.lengths, g.weights):
        assert length == pytest.approx(np.pi / 2)
        assert weight == pytest.approx(1.0)


def test_simplex_graph_lengths(std_simplex):
    g = G.build_graph(std_simplex)
    assert len(g.normals) == 4
    assert len(g.edges) == 6
    # normals of the three axis facets are mutually orthogonal; the slanted
    # facet makes angle arccos(-1/sqrt(3)) with each of them
    lengths = sorted(g.arcs.lengths)
    assert np.allclose(lengths[:3], np.pi / 2)
    assert np.allclose(lengths[3:], np.arccos(-1 / np.sqrt(3)))


def test_build_graph_rejects_lower_dim(unit_square):
    with pytest.raises(DegenerateInput):
        G.build_graph(unit_square)


def test_sbm_and_mu_masses_cube(unit_cube):
    g = G.build_graph(unit_cube)
    assert g.sbm_mass() == pytest.approx(3 * np.pi, rel=1e-12)
    assert sum(g.mu_masses().tolist()) == pytest.approx(2 * g.sbm_mass(),
                                                        rel=1e-14)


def test_mass_identities_random():
    for seed in range(10):
        m = B.random_hull(10, seed)
        g = G.build_graph(m)
        vbbm = MS.vbbm_conewise(m)
        assert rel_err(g.sbm_mass(), 3 * vbbm) < 1e-9
        assert rel_err(sum(g.mu_masses().tolist()), 2 * g.sbm_mass()) < 1e-13


def test_vertex_balance():
    for seed in range(10):
        g = G.build_graph(B.random_hull(10, seed + 30))
        res = g.vertex_balance_residuals()
        assert res.max() < 1e-9 * g.total_weight()


def test_vertex_balance_matches_edge_loop():
    # reference: per vertex, scan every edge and add w_e times the outgoing
    # tangent, in edge order
    g = G.build_graph(B.approximate_ball(2))
    expected = np.zeros(len(g.normals))
    for f in range(len(g.normals)):
        s = np.zeros(3)
        for e, (i, j) in enumerate(g.edges):
            if i == f:
                s += g.weights[e] * g.arcs.tangents[e]
            elif j == f:
                l = g.arcs.lengths[e]
                t = -np.sin(l) * g.arcs.starts[e] + np.cos(l) * g.arcs.tangents[e]
                s += g.weights[e] * -t
        expected[f] = np.linalg.norm(s)
    assert np.array_equal(g.vertex_balance_residuals(), expected)


def test_structural_checks_random():
    for seed in range(10):
        m = B.random_hull(10, seed + 60)
        g = G.build_graph(m)
        r, big_r = B.enclosing_radii(m)
        rep = G.structural_checks(g, r, big_r)
        assert not rep.violations


def test_form_value_recovers_mixed_volume(unit_cube, std_simplex):
    g = G.build_graph(unit_cube)
    h_c = SupportEvaluator.of(unit_cube)
    h_s = SupportEvaluator.of(std_simplex)
    assert G.form_value(g, h_c, h_c) == pytest.approx(1.0, abs=1e-13)
    v = MS.mixed_volume(std_simplex, std_simplex, unit_cube)
    assert G.form_value(g, h_s, h_s) == pytest.approx(v, rel=1e-10)


def test_form_value_random_triples():
    for seed in range(5):
        k = B.random_hull(10, seed)
        l = B.random_hull(10, seed + 7)
        m = B.random_hull(10, seed + 13)
        g = G.build_graph(m)
        v1 = MS.mixed_volume(k, l, m)
        v2 = G.form_value(g, SupportEvaluator.of(k), SupportEvaluator.of(l))
        assert rel_err(v1, v2) < 1e-9


def test_constant_function_identity(unit_cube):
    # E(1, 1) = (1/3) * mass(S_{B,M}) = V(B, B, M): the constant 1 lies in
    # the P1 space, so the assembled form holds the identity exactly
    g = G.build_graph(unit_cube)
    form = G.assemble(g, np.pi / 30)
    ones = np.ones(form.size)
    e_val = ones @ form.e_matrix @ ones
    assert e_val == pytest.approx(g.sbm_mass() / 3.0, rel=1e-13)


def test_assemble_guards(unit_cube):
    g = G.build_graph(unit_cube)
    with pytest.raises(BadMesh):
        G.assemble(g, -0.1)
    # an edge no longer than h gets 2 elements: one interior DOF per edge
    assert G.assemble(g, 10.0).size == 6 + 12


def test_assemble_dof_count(unit_cube):
    g = G.build_graph(unit_cube)
    h = np.pi / 100
    form = G.assemble(g, h)
    ne = int(np.ceil((np.pi / 2) / h))
    assert form.size == 6 + 12 * (ne - 1)
    # matrices symmetric, mass positive definite
    assert np.abs(form.mass - form.mass.T).max() == 0.0
    assert np.linalg.eigvalsh(form.mass.toarray()).min() > 0


@pytest.mark.parametrize("make, h, dofs", [
    # 2 poles and 4 half circles of 61 elements
    (lambda: LD.lowerdim_setup(B.hull(SQUARE), W), np.pi / 61, 2 + 4 * 60),
    # 6 vertices and 12 quarter circles of 61 elements
    (lambda: G.build_graph(B.cube()), np.pi / 122, 6 + 12 * 60),
    # 22 vertices, 20 side arcs of 6 elements, 40 cap arcs of 30
    (lambda: G.build_graph(_prism(20)), np.pi / 60, 22 + 20 * 5 + 40 * 29),
], ids=["square", "cube", "prism-20"])
def test_element_counts_as_requested(make, h, dofs):
    # l/h rounds to just above a whole number d on these arcs; each still
    # gets d elements, not d + 1, so the longest element is h to rounding
    form = G.assemble(make(), h)
    assert form.size == dofs
    assert form.max_element == pytest.approx(h, rel=1e-14)


def test_galerkin_constant_exact(unit_cube):
    # the constant vector is represented exactly: E 1 = (1/3) M 1
    g = G.build_graph(unit_cube)
    form = G.assemble(g, np.pi / 30)
    ones = np.ones(form.size)
    assert np.abs(form.e_matrix @ ones - form.mass @ ones / 3.0).max() < 1e-13


def test_cube_spectrum(unit_cube):
    h = np.pi / 100
    form = G.assemble(G.build_graph(unit_cube), h)
    spec = G.spectrum(form, 8)
    vals = spec.eigenvalues
    # top eigenvalue exactly 1/3 (constants are in the trial space), simple
    assert abs(vals[0] - 1.0 / 3.0) < 1e-10
    assert vals[1] < 1.0 / 3.0 - 0.1
    # next three eigenvalues form the kernel cluster
    assert np.abs(vals[1:4]).max() < 10 * h * h
    # spectral gap below the kernel
    assert vals[4] < -0.05
    # eigen-residuals small
    assert spec.residuals.max() < 1e-8


def test_kernel_analysis_cube(unit_cube):
    h = np.pi / 100
    form = G.assemble(G.build_graph(unit_cube), h)
    spec = G.spectrum(form, 8)
    rep = G.kernel_analysis(spec, 10 * h * h)
    assert rep.dimension == 3
    assert rep.principal_angle_residual < 1e-3


# (body, mesh size) for the principal-angle oracle
ANGLE_CASES = {
    "cube": (B.cube, np.pi / 60),
    "simplex": (B.simplex, np.pi / 60),
    "ball@1": (lambda: B.approximate_ball(1), 0.05),
    "random-hull": (lambda: B.random_hull(10, 77), np.pi / 60),
}


@pytest.mark.parametrize("name", list(ANGLE_CASES))
def test_kernel_principal_angle_matches_subspace_angles(name):
    make, h = ANGLE_CASES[name]
    form = G.assemble(G.build_graph(make()), h)
    spec = G.spectrum(form, 8)
    tau = 10 * h * h
    rep = G.kernel_analysis(spec, tau)
    # principal angles in the mass inner product: with M = L L^T they are
    # the Euclidean angles between the images under L^T
    lt = np.linalg.cholesky(form.mass.toarray()).T
    window = spec.vectors[:, np.abs(spec.eigenvalues) < tau]
    angles = scipy.linalg.subspace_angles(lt @ form.node_points,
                                          lt @ window)
    expected = float(np.sin(angles.max()))
    assert (abs(rep.principal_angle_residual - expected)
            <= max(1e-6 * expected, 1e-13))
    if name == "cube":
        assert rep.principal_angle_residual < 1e-12


def test_discrete_form_hyperbolic(unit_cube, std_simplex):
    # exactly one positive eigenvalue for the assembled form
    for m in (unit_cube, std_simplex, B.random_hull(10, 77)):
        form = G.assemble(G.build_graph(m), np.pi / 40)
        spec = G.spectrum(form, 2)
        assert spec.eigenvalues[0] > 0
        assert spec.eigenvalues[1] <= 1e-12


def test_spectrum_mesh_convergence(unit_cube):
    # kernel eigenvalues converge to 0 at order h^2
    g = G.build_graph(unit_cube)
    errs = []
    for h in (np.pi / 25, np.pi / 50):
        spec = G.spectrum(G.assemble(g, h), 4)
        errs.append(abs(spec.eigenvalues[1]))
    assert errs[0] / errs[1] > 3.5


def _ngon(n: int) -> B.Polytope:
    ang = np.arange(n) * 2 * np.pi / n
    return B.hull(np.column_stack([np.cos(ang), np.sin(ang), np.zeros(n)]))


def _prism(n: int) -> B.Polytope:
    """The regular n-gon and its translate by e3: n side arcs of length
    2 pi / n, and 2n arcs of length pi / 2 from the caps, of degree n."""
    ring = _ngon(n).vertices
    return B.hull(np.concatenate([ring, ring + [0.0, 0.0, 1.0]]))


W = np.array([0.0, 0.0, 1.0])
SQUARE = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)

# (body, mesh size, k); bouquets ask for k = 1 + m * kmax, so their
# clusters of exact multiplicity m are resolved in full
ORACLE_CASES = {
    "cube": (B.cube, np.pi / 40, 8),
    "simplex": (B.simplex, np.pi / 40, 8),
    "random-hull": (lambda: B.random_hull(10, 77), np.pi / 40, 8),
    "square": (lambda: B.hull(SQUARE), np.pi / 100, 1 + 4 * 3),
    "segment": (lambda: B.segment([0, 0, 0], [1, 0, 0]), np.pi / 100, 1 + 2 * 3),
    "hexagon": (lambda: _ngon(6), np.pi / 100, 1 + 6 * 2),
    "12-gon": (lambda: _ngon(12), np.pi / 60, 1 + 12 * 2),
}


def _oracle_form(name):
    make, h, k = ORACLE_CASES[name]
    m = make()
    if m.dim == 3:
        return G.assemble(G.build_graph(m), h), k
    return LD.assemble_lowerdim(LD.lowerdim_setup(m, W), h), k


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_spectrum_matches_dense_oracle(name):
    form, k = _oracle_form(name)
    e_dense, m_dense = form.e_matrix.toarray(), form.mass.toarray()
    dense = scipy.linalg.eigh(e_dense, m_dense, eigvals_only=True)[::-1][:k]
    spec = G.spectrum(form, k)
    assert np.abs(spec.eigenvalues - dense).max() < 1e-10
    v = spec.vectors
    assert np.abs(v.T @ m_dense @ v - np.eye(k)).max() < 1e-12
    assert np.array_equal(G.spectrum(form, k).eigenvalues, spec.eigenvalues)


# the CLI's kmax range on four bodies (trunc:0.1 is the unit cube with vertex
# 0 cut at depth 0.1) at h = pi/n: 40 cases, one dense eigh per mesh
SWEEP_NS = (20, 32, 48, 72, 100)


@pytest.mark.parametrize("name", ["cube", "simplex", "ball@1", "trunc:0.1"])
def test_spectrum_sweep_matches_dense_oracle(name):
    g = G.build_graph(body(name))
    for n in SWEEP_NS:
        form = G.assemble(g, np.pi / n)
        dense = scipy.linalg.eigh(form.e_matrix.toarray(), form.mass.toarray(),
                                  eigvals_only=True)[::-1]
        for k in (4, 8):
            err = np.abs(G.spectrum(form, k).eigenvalues - dense[:k]).max()
            assert err <= 1e-9, (n, k, err)


@pytest.mark.xfail(reason="ROADMAP item 5: ARPACK returns too few copies "
                   "of a multiple eigenvalue, and spectrum does not count "
                   "the window")
def test_spectrum_window_is_complete_on_cube():
    # mixedvol spectrum --M cube --mesh-h 0.1308996938995747 --kmax 12
    # (h = pi/24, N = 138): dense eigh has six copies of -1.007633 at
    # positions 6-11, and spectrum returns four
    form = G.assemble(G.build_graph(B.cube()), 0.1308996938995747)
    dense = scipy.linalg.eigh(form.e_matrix.toarray(), form.mass.toarray(),
                              eigvals_only=True)[::-1][:12]
    assert np.abs(G.spectrum(form, 12).eigenvalues - dense).max() <= 1e-9


def test_spectrum_argument_checks(unit_cube):
    form = G.assemble(G.build_graph(unit_cube), np.pi / 20)
    for k in (0, -1):
        with pytest.raises(BadParam):
            G.spectrum(form, k)
    with pytest.raises(InsufficientSpectrum):
        G.spectrum(form, form.size)
    assert len(G.spectrum(form, form.size - 1).eigenvalues) == form.size - 1


def test_spectrum_no_convergence_is_numerical_failure(unit_cube, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    form = G.assemble(G.build_graph(unit_cube), np.pi / 20)
    with pytest.raises(NumericalFailure):
        G.spectrum(form, 4)


def test_spectrum_is_one_standard_eigsh_call(unit_cube, monkeypatch):
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    G.spectrum(G.assemble(G.build_graph(unit_cube), np.pi / 20), 8)
    # a standard symmetric problem: no mass matrix, no shift
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert len(args) == 2 and "M" not in kwargs and "sigma" not in kwargs


def _broken_mass(form: G.DiscretizedForm, how: str):
    """A mass matrix on E's pattern, as spectrum requires: M negated, or M
    with row and column 5 zeroed in place (the zeros stay stored)."""
    e, data = form.e_matrix, form.mass.data.copy()
    if how == "negated":
        data = -data
    else:
        rows = np.repeat(np.arange(form.size), np.diff(e.indptr))
        data[(rows == 5) | (e.indices == 5)] = 0.0
    return G.CSRMatrix.on_pattern(data, e.indices, e.indptr)


@pytest.mark.parametrize("how", ["negated", "zero-row"])
def test_mass_not_positive_definite_is_numerical_failure(unit_cube, how):
    # assemble checks the edge weights, so only a hand-built form gets here
    form = G.assemble(G.build_graph(unit_cube), np.pi / 20)
    bad = dataclasses.replace(form, mass=_broken_mass(form, how))
    with pytest.raises(NumericalFailure):
        G.spectrum(bad, 8)


def test_mass_off_the_pattern_of_e_is_bad_param(unit_cube):
    form = G.assemble(G.build_graph(unit_cube), np.pi / 20)
    diagonal = G.CSRMatrix(np.diag(form.mass.diagonal()))
    with pytest.raises(BadParam, match="sparsity pattern"):
        G.spectrum(dataclasses.replace(form, mass=diagonal), 8)


# every full-dimensional test body and the bouquets of half circles over a
# square, a unit segment and a regular hexagon, each at two mesh sizes
PATTERN_GRAPHS = {
    **{name: (lambda name=name: G.build_graph(body(name))) for name in BODIES},
    "square": lambda: LD.lowerdim_setup(B.hull(SQUARE), W),
    "segment": lambda: LD.lowerdim_setup(B.segment([0, 0, 0], [1, 0, 0]), W),
    "hexagon": lambda: LD.lowerdim_setup(_ngon(6), W),
}


def _forms(name):
    g = PATTERN_GRAPHS[name]()
    h_max = g.arcs.lengths.min() / 2
    return [(g, h, G.assemble(g, h)) for h in (h_max, min(h_max, np.pi / 60))]


@pytest.mark.parametrize("name", list(PATTERN_GRAPHS))
def test_assembled_matrices_match_coo_reference(name):
    for g, h, form in _forms(name):
        assert form.e_matrix.indices is form.mass.indices
        assert form.e_matrix.indptr is form.mass.indptr
        for new, ref in zip((form.e_matrix, form.mass), reference_matrices(g, h)):
            assert type(new) is G.CSRMatrix
            for field in ("indptr", "indices", "data"):
                a, b = getattr(new, field), getattr(ref, field)
                assert a.dtype == b.dtype, field
                assert np.array_equal(a, b), field
            assert new.nbytes == ref.data.nbytes + ref.indices.nbytes + ref.indptr.nbytes


def test_high_degree_vertex_matches_coo_reference_to_rounding():
    # a pole of the 20-gon bouquet has 21 entries in its row, and a cap of
    # the 20-sided prism 21 too; there the COO route summed the 20 diagonal
    # terms in the order its unstable sort left them, and assemble sums them
    # in element order: the elements the DOF is the left end of, then those
    # it is the right end of, bit for bit as a plain loop adds them
    h = np.pi / 60
    for g in (LD.lowerdim_setup(_ngon(20), W), G.build_graph(_prism(20))):
        form = G.assemble(g, h)
        n_dofs, left, right, terms = reference_elements(g, h)
        for new, ref, (diag, _) in zip((form.e_matrix, form.mass),
                                       reference_matrices(g, h), terms):
            assert np.array_equal(new.indptr, ref.indptr)
            assert np.array_equal(new.indices, ref.indices)
            assert (np.abs(new.data - ref.data).max()
                    <= 8 * np.spacing(np.abs(ref.data).max()))
            sums = [0.0] * n_dofs
            for ends in (left, right):
                for p, d in zip(ends.tolist(), diag.tolist()):
                    sums[p] += d
            assert np.array_equal(new.diagonal(), sums)


@pytest.mark.parametrize("name", list(PATTERN_GRAPHS))
def test_mass_factor_matches_reference(name):
    for _, _, form in _forms(name):
        r, ref = G._mass_factor(form.mass).tocsr(), reference_mass_factor(form.mass)
        r.sum_duplicates()
        ref.sum_duplicates()
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(r, field), getattr(ref, field)), field
        m = form.mass
        assert (scipy.sparse.linalg.norm(r @ r.T - m)
                <= 1e-15 * scipy.sparse.linalg.norm(m))


def test_symmetry_guard():
    form = G.assemble(G.build_graph(B.cube()), np.pi / 20)
    e, m = form.e_matrix, form.mass
    G._require_symmetric(e.indptr, e.indices, e.data, m.data)
    # an asymmetric value: one off-diagonal entry of E moved by 1e-13
    rows = np.repeat(np.arange(form.size), np.diff(e.indptr))
    bad = e.data.copy()
    bad[np.flatnonzero(e.indices != rows)[0]] += 1e-13
    with pytest.raises(NumericalFailure, match="not symmetric"):
        G._require_symmetric(e.indptr, e.indices, m.data, bad)
    # an asymmetric pattern: the upper triangle of M alone
    upper = scipy.sparse.triu(m, format="csr")
    with pytest.raises(NumericalFailure, match="not symmetric"):
        G._require_symmetric(upper.indptr, upper.indices, upper.data)


def _jittered_icosahedron() -> B.Polytope:
    phi = (1 + 5 ** 0.5) / 2
    v = np.array([[s1, s2 * phi, 0] for s1 in (-1, 1) for s2 in (-1, 1)],
                 dtype=float)
    v = np.concatenate([v, np.roll(v, 1, axis=1), np.roll(v, 2, axis=1)])
    v /= np.linalg.norm(v, axis=1)[:, None]
    return B.hull(v + 0.05 * np.random.default_rng(3).standard_normal(v.shape))


# (form, k) at sizes the dense oracle cannot afford; the bouquet asks for
# k = 1 + 4 * kmax, so its clusters of multiplicity 4 are resolved in full
MODE3_CASES = {
    "jittered-icosahedron": (lambda: G.assemble(
        G.build_graph(_jittered_icosahedron()), np.pi / 100), 8),
    "ball@1": (lambda: G.assemble(G.build_graph(body("ball@1")), np.pi / 100), 8),
    "ball@2": (lambda: G.assemble(G.build_graph(body("ball@2")), np.pi / 100), 8),
    "square": (lambda: LD.assemble_lowerdim(
        LD.lowerdim_setup(B.hull(SQUARE), W), np.pi / 400), 1 + 4 * 3),
}


@pytest.mark.parametrize("name", list(MODE3_CASES))
def test_spectrum_matches_generalized_shift_invert(name):
    make, k = MODE3_CASES[name]
    form = make()
    ref = mode3_eigenvalues(form, k)
    spec = G.spectrum(form, k)
    assert np.abs(spec.eigenvalues - ref).max() <= 1e-12
    v = spec.vectors
    assert np.abs(v.T @ (form.mass @ v) - np.eye(k)).max() <= 1e-12
    assert spec.residuals.max() <= 1e-10


def test_zero_weight_edge_is_numerical_failure(unit_cube):
    g = G.build_graph(unit_cube)
    weights = g.weights.copy()
    weights[0] = 0.0
    g0 = dataclasses.replace(g, weights=weights)
    with pytest.raises(NumericalFailure):
        G.spectrum(G.assemble(g0, np.pi / 20), 4)


def test_ball3_fine_mesh_hyperbolic():
    # N = 11300 DOFs: one positive eigenvalue 1/3, a 3-dimensional kernel
    # spanned by the coordinates, negative rest
    h = np.pi / 200
    form = G.assemble(G.build_graph(B.approximate_ball(3)), h)
    assert form.size == 11300
    spec = G.spectrum(form, 8)
    assert abs(spec.eigenvalues[0] - 1.0 / 3.0) < 1e-10
    assert G.kernel_analysis(spec, 10 * h * h).dimension == 3
    assert spec.eigenvalues[4] < 0


def test_restrict_support_function(unit_cube):
    form = G.assemble(G.build_graph(unit_cube), np.pi / 20)
    f = SupportEvaluator.of(unit_cube)(form.node_points)
    assert f.shape == (form.size,)
    assert np.all(f >= -1e-12)

