"""End-to-end acceptance suite.

Twelve oracle- and property-based criteria at fixed tolerances; every test
prints a single PASS/FAIL summary line with its headline numbers. The whole
module is budgeted to run in well under five minutes on one core.
"""

import numpy as np
import pytest

from mixedvol import bodies as B
from mixedvol import extremal as X
from mixedvol import graph as G
from mixedvol import lowerdim as LD
from mixedvol import measures as MS
from mixedvol.bodies import SupportEvaluator

from conftest import cylinder_graphs, decay_ratios, rel_err

W = np.array([0.0, 0.0, 1.0])


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def seeded_hulls(n: int, base_seed: int, count: int = 10):
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(base_seed).spawn(n)]
    return [B.random_hull(count, s) for s in seeds]


def test_01_mixed_volume_oracle_agreement():
    """Polarization vs measure-integration on 100 random-hull triples."""
    hulls = seeded_hulls(102, 1001)
    worst = 0.0
    for i in range(100):
        k, l, m = hulls[i], hulls[i + 1], hulls[i + 2]
        v1 = MS.mixed_volume(k, l, m)
        v2 = MS.mixed_volume_via_measure(k, l, m)
        worst = max(worst, rel_err(v1, v2))
    ok = worst <= 1e-9
    report("01 mixed-volume oracle agreement", ok,
           f"worst relative difference {worst:.3e} (tol 1e-9, 100 triples)")
    assert ok


def _cube_plus_ball_volume(t: float) -> float:
    """Volume of the outer parallel body of the unit cube at distance t,
    assembled from elementary solids: the cube, one slab per facet, one
    quarter cylinder per edge, and vertex ball sectors that tile a full
    ball. Shares no code with the measure or graph pipelines."""
    c = B.cube()
    slabs = sum(area * t for area in c.facets.areas)
    quarter_cylinders = sum(0.25 * np.pi * t * t * length for length in c.edges.lengths)
    vertex_sectors = (4.0 / 3.0) * np.pi * t ** 3   # eight octants
    return c.volume + slabs + quarter_cylinders + vertex_sectors


def test_02_cube_constants():
    """Vol, surface, and V(B,B,C) for the unit cube, two independent routes."""
    c = B.cube()
    vol_err = abs(c.volume - 1.0)
    surf = sum(MS.mixed_area_measure(c, c)[1].tolist())
    surf_err = abs(surf - 6.0)
    # graph-mass route
    vbbm_graph = G.build_graph(c).sbm_mass() / 3.0
    # finite-difference Steiner-coefficient oracle: quadratic coefficient of
    # t -> Vol(C + tB) equals 3 V(B, B, C)
    ts = np.array([0.1, 0.2, 0.3, 0.4])
    vols = np.array([_cube_plus_ball_volume(t) for t in ts])
    coeffs = np.linalg.solve(np.vander(ts, 4), vols)   # cubic fit, exact
    vbbm_fd = coeffs[1] / 3.0
    err_graph = abs(vbbm_graph - np.pi)
    err_fd = abs(vbbm_fd - np.pi)
    ok = (vol_err < 1e-14 and surf_err <= 1e-9
          and err_graph <= 1e-6 and err_fd <= 1e-6)
    report("02 cube constants", ok,
           f"|Vol-1|={vol_err:.1e}, |S-6|={surf_err:.1e}, "
           f"|V(B,B,C)-pi| graph={err_graph:.1e} fd={err_fd:.1e}")
    assert ok


def test_03_graph_identities():
    """Mass identities, vertex balance, edge-length bound on 100 hulls."""
    worst_mass = worst_mu = worst_bal = 0.0
    violations = 0
    for m in seeded_hulls(100, 3003):
        g = G.build_graph(m)
        mass = g.sbm_mass()
        worst_mass = max(worst_mass, rel_err(mass, 3 * MS.vbbm_conewise(m)))
        worst_mu = max(worst_mu, rel_err(sum(g.mu_masses().tolist()), 2 * mass))
        worst_bal = max(worst_bal,
                        g.vertex_balance_residuals().max() / g.total_weight())
        r, big_r = B.enclosing_radii(m)
        violations += len(G.structural_checks(g, r, big_r).violations)
    ok = (worst_mass <= 1e-6 and worst_mu <= 1e-12 and worst_bal <= 1e-9
          and violations == 0)
    report("03 graph identities", ok,
           f"mass rel {worst_mass:.1e}, mu rel {worst_mu:.1e}, "
           f"balance {worst_bal:.1e}, length-bound violations {violations}")
    assert ok


def test_04_form_volume_consistency():
    """Quadratic form vs polarization on 50 random triples."""
    hulls = seeded_hulls(52, 4004)
    worst = 0.0
    for i in range(50):
        k, l, m = hulls[i], hulls[i + 1], hulls[i + 2]
        v1 = MS.mixed_volume(k, l, m)
        v2 = G.form_value(G.build_graph(m), SupportEvaluator.of(k),
                          SupportEvaluator.of(l))
        worst = max(worst, rel_err(v1, v2))
    ok = worst <= 1e-6
    report("04 form/volume consistency", ok,
           f"worst relative error {worst:.3e} (tol 1e-6, 50 triples)")
    assert ok


def test_05_cube_spectrum():
    """Spectrum of the discretized cube operator at h = pi/100."""
    g = G.build_graph(B.cube())
    h = np.pi / 100
    spec = G.spectrum(G.assemble(g, h), 8)
    vals = spec.eigenvalues
    tau = 10 * h * h
    lam1_err = abs(vals[0] - 1.0 / 3.0)
    simple = vals[1] < 1.0 / 3.0 - tau
    kernel_count = int((np.abs(vals) < tau).sum())
    ker = G.kernel_analysis(spec, tau)
    rest_ok = bool(np.all(vals[4:] <= -0.05))
    # kernel eigenvalues converge to the exact value 0 at order h^2
    coarse = G.spectrum(G.assemble(g, 2 * h), 4)
    drift = abs(coarse.eigenvalues[1]) / abs(vals[1])
    ok = (lam1_err <= 2e-3 and simple and kernel_count == 3
          and ker.principal_angle_residual <= 1e-3 and rest_ok
          and drift >= 3.5)
    report("05 cube spectrum", ok,
           f"|lam1-1/3|={lam1_err:.1e}, kernel count {kernel_count}, "
           f"angle residual {ker.principal_angle_residual:.1e}, "
           f"drift factor {drift:.2f}")
    assert ok


def test_06_equality_certification_fulldim():
    """Constructed instances plus verdict/deficit agreement on 220 cases."""
    cube = B.cube()
    eq = X.certify_equality_fulldim(B.truncate_vertex(cube, 0, 0.1),
                                    cube, cube)
    eq_ok = (eq.verdict == "equality"
             and eq.deficit_report.deficit <= 1e-10 * eq.deficit_report.scale
             and eq.sup_residual <= 1e-8 * eq.diameter)
    deep = X.certify_equality_fulldim(
        B.truncate_vertex(cube, 0, 0.8), cube, cube)
    strict_ok = deep.verdict == "strict"
    disagreements = 0
    rng = np.random.default_rng(6006)
    hulls = seeded_hulls(202, 6007, count=8)
    for i in range(200):
        k, l, m = hulls[i], hulls[i + 1], B.random_hull(8, 60000 + i)
        cert = X.certify_equality_fulldim(k, l, m)
        dr = cert.deficit_report
        if (cert.verdict == "equality") != (dr.deficit <= 1e-9 * dr.scale):
            disagreements += 1
    for i in range(20):
        l = hulls[i]
        m = hulls[i + 100]
        a = float(rng.uniform(0.5, 2.0))
        k = B.hull(a * l.vertices + rng.standard_normal(3))
        cert = X.certify_equality_fulldim(k, l, m)
        dr = cert.deficit_report
        if cert.verdict != "equality" or dr.deficit > 1e-9 * dr.scale:
            disagreements += 1
    ok = eq_ok and strict_ok and disagreements == 0
    report("06 equality certification (full-dim)", ok,
           f"truncated-cube {eq.verdict}, deep-truncation {deep.verdict}, "
           f"disagreements {disagreements}/220")
    assert ok


def test_07_weak_stability():
    """Stability inequality with C_M = r^2/(18 R^2): 100 pairs x 10 bodies."""
    ms = [m.translate(-m.origin) for m in seeded_hulls(10, 7007)]
    pairs = seeded_hulls(20, 7008)
    worst_margin = np.inf
    violations = 0
    for m in ms:
        for i in range(10):
            k, l = pairs[2 * (i % 10)], pairs[2 * (i % 10) + 1]
            rep = X.weak_stability_check(k, l, m)
            worst_margin = min(worst_margin,
                               rep.margin / rep.deficit.scale)
            if not rep.holds:
                violations += 1
    ok = violations == 0
    report("07 weak stability", ok,
           f"violations {violations}/100, worst margin/scale "
           f"{worst_margin:.3e}")
    assert ok


def test_08_rigidity():
    """Rigidity inequality with constants r^2/(6R^2), 4R^2/(3r^2)."""
    hulls = seeded_hulls(102, 8008)
    worst_margin = np.inf
    violations = 0
    for i in range(100):
        k, l = hulls[i], hulls[i + 1]
        m = B.random_hull(10, 80000 + i)
        m = m.translate(-m.origin)
        rep = X.rigidity_check(k, l, m)
        worst_margin = min(worst_margin, rep.margin / rep.deficit.scale)
        if not rep.holds:
            violations += 1
    ok = violations == 0
    report("08 rigidity", ok,
           f"violations {violations}/100, worst margin/scale "
           f"{worst_margin:.3e}")
    assert ok


def test_09_lowerdim_spectrum():
    """Explicit spectrum clusters for the square and the hexagon."""
    h = np.pi / 200
    sq = B.hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                         dtype=float))
    rep_sq = LD.verify_spectrum(LD.lowerdim_setup(sq, W), 2, h, 5e-3)
    sizes_sq = [len(c.observed) for c in rep_sq.clusters]
    ang = np.arange(6) * np.pi / 3
    hexagon = B.hull(np.column_stack([np.cos(ang), np.sin(ang), np.zeros(6)]))
    rep_hex = LD.verify_spectrum(LD.lowerdim_setup(hexagon, W), 2, h, 5e-3)
    sizes_hex = [len(c.observed) for c in rep_hex.clusters]
    ok = (rep_sq.ok and sizes_sq == [1, 4, 4]
          and rep_hex.ok and sizes_hex == [1, 6, 6])
    report("09 lower-dimensional spectrum", ok,
           f"square clusters {sizes_sq} dev {rep_sq.worst_deviation:.1e}, "
           f"hexagon clusters {sizes_hex} dev {rep_hex.worst_deviation:.1e}")
    assert ok


def test_10_lowerdim_equality():
    """Sheared-cube equality pair and the segment-sum counterexample."""
    cube = B.cube()
    seg = B.segment([0, 0, 0], [1, 0, 0])
    sheared = B.shear(cube, [1, 0, 0], [0, 0, 1], 0.3)
    eq = LD.certify_equality_lowerdim(cube, sheared, seg, W)
    eq_ok = (eq.deficit_report.deficit <= 1e-10 * eq.deficit_report.scale
             and eq.sup_residual <= 1e-8 and eq.verdict == "equality")
    # counterexample: L = K + N with N a segment in w-perp not parallel to M
    # (a segment parallel to M has V(K,N,M) = 0 and is itself an equality pair)
    n = B.segment([0, 0, 0], [0, 1, 0])
    l = B.minkowski_sum(cube, n)
    ce = LD.certify_equality_lowerdim(cube, l, seg, W)
    b = MS.mixed_volume(cube, n, seg)
    ce_ok = (ce.verdict == "strict"
             and rel_err(ce.deficit_report.deficit, b * b) <= 1e-8
             and ce.sup_residual > 1e-5 * ce.diameter)
    ok = eq_ok and ce_ok
    report("10 lower-dimensional equality", ok,
           f"shear residual {eq.sup_residual:.1e} ({eq.verdict}), "
           f"counterexample deficit vs V(K,N,M)^2 rel "
           f"{rel_err(ce.deficit_report.deficit, b * b):.1e} ({ce.verdict})")
    assert ok


def test_11_cylinder_limit():
    """Graph mass of the thin cylinder converges to 2 pi at first order."""
    sq = B.hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                         dtype=float))
    limit = LD.lowerdim_setup(sq, W).sbm_mass()
    values = [g.sbm_mass()
              for g in cylinder_graphs(sq, W, [0.2, 0.1, 0.05, 0.025])]
    ratios = decay_ratios(values, limit)
    ok = (abs(limit - 2 * np.pi) < 1e-12
          and all(1.7 <= r <= 2.3 for r in ratios))
    report("11 cylinder limit", ok,
           f"errors {[f'{abs(v - limit):.4f}' for v in values]}, "
           f"decay ratios {[f'{r:.3f}' for r in ratios]}")
    assert ok


def test_12_classical_chain():
    """Isoperimetric-type chain and Brunn-Minkowski concavity."""
    worst1 = worst2 = np.inf
    for k in seeded_hulls(100, 1212):
        vol, s, w = MS.classical_functionals(k)
        scale = max(s * s, np.pi * w * w, 1.0)
        worst1 = min(worst1, (s * s - 6 * np.pi * w * vol) / scale)
        worst2 = min(worst2, (np.pi * w * w - s) / scale)
    hulls = seeded_hulls(100, 1213)
    worst_bm = np.inf
    grid = np.linspace(0.0, 1.0, 11)
    for i in range(50):
        k, l = hulls[2 * i], hulls[2 * i + 1]
        vk, vl = k.volume ** (1 / 3), l.volume ** (1 / 3)
        for t in grid:
            s = B.hull(np.vstack([
                (1 - t) * k.vertices[:, None, :] + t * l.vertices[None, :, :]
            ]).reshape(-1, 3))
            margin = s.volume ** (1 / 3) - ((1 - t) * vk + t * vl)
            worst_bm = min(worst_bm, margin)
    ok = worst1 >= -1e-9 and worst2 >= -1e-9 and worst_bm >= -1e-9
    report("12 classical chain", ok,
           f"S^2>=6piWV margin {worst1:.3e}, piW^2>=S margin {worst2:.3e}, "
           f"Brunn-Minkowski margin {worst_bm:.3e}")
    assert ok
