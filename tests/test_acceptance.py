"""Acceptance gate: the twelve primary checks, one test (and one printed
pass/fail line) per criterion, at their stated tolerances.

Regimes: the constant sequence 0.5; the prefix (0.9, 0.8, 0.7) with
exponential tail (0.05, 0.5); and the pure tail (0.1, 0.5).  Checks that
need a positive infinite stretch product run on the tail regimes.
"""

import math
import subprocess
import sys

import numpy as np

from stretched_gasket import (
    affine,
    base_vertices,
    cable_segments,
    energy1,
    energy2_limit,
    energy_total,
    energy_via_measure,
    gibbs_tau,
    harmonic_residual,
    kappa,
    kappa_table,
    nd_gamma,
    perron,
    prefractal_edges,
    recurrence_residual,
    tau_table,
    triple,
    vanishing_at_ABC,
    vanishing_cubic,
)
from stretched_gasket.scalarfield import hess_batch, parse

from conftest import ALL_REGIMES, CONSTANT_HALF, TAIL_ONLY, random_poly
from oracles import (
    adjoint_aggregate,
    count_edges,
    energy_at_order,
    grad_batch,
    ibp_residual,
    iter_words,
    perron_iteration,
)

A_CONST = 1.0 / 3.0


def check(num: int, label: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({label}): {detail}")
    assert ok, f"criterion {num:02d} ({label}): {detail}"


def test_criterion_01_perron_eigenpair():
    # The closed form against a power iteration from the identity.
    worst_lam = worst_q = 0.0
    for eps in (1.0, 0.3, 0.5, 0.9):
        lam, q = perron(eps)
        lam_it, q_it, _ = perron_iteration(eps)
        worst_lam = max(worst_lam, abs(lam - lam_it))
        worst_q = max(worst_q, float(np.max(np.abs(q - q_it))))
    check(
        1,
        "perron eigenpair",
        worst_lam <= 1e-12 and worst_q <= 1e-10,
        f"max |lambda - lambda_iter| = {worst_lam:.3e} (<= 1e-12), "
        f"max |Q - Q_iter| = {worst_q:.3e} (<= 1e-10)",
    )


def test_criterion_02_prefractal_harmonicity():
    worst = 0.0
    for seq in ALL_REGIMES:
        for l in range(1, 7):
            worst = max(worst, harmonic_residual(seq, l))
    control = harmonic_residual(CONSTANT_HALF, 2, beta_over_alpha=1.0 / 2.9)
    check(
        2,
        "pre-fractal harmonicity",
        worst <= 1e-10 * A_CONST and control > 1e-4,
        f"max residual over 3 regimes, l=1..6: {worst:.3e} (<= {1e-10 * A_CONST:.2e}); "
        f"off-ratio control: {control:.3e} (> 1e-4)",
    )


def test_criterion_03_affine_fields_have_zero_energy():
    rng = np.random.default_rng(2203)
    us = [affine(*rng.uniform(-1.0, 1.0, size=3)) for _ in range(10)]
    vs = [vanishing_at_ABC(random_poly(rng, 2)) for _ in range(5)]
    assert all(v.degree <= 5 for v in vs)
    worst = 0.0
    for l in range(1, 7):
        for u in us:
            for v in vs:
                worst = max(worst, abs(energy_total(TAIL_ONLY, l, u, v).total))
    check(
        3,
        "affine x admissible orthogonality",
        worst <= 1e-10,
        f"max |E_l(u, v)| over 10 affine x 5 admissible, l=1..6: {worst:.3e} (<= 1e-10, seed 2203)",
    )


def test_criterion_04_one_step_recurrence():
    rng = np.random.default_rng(2204)
    worst = 0.0
    for seq in ALL_REGIMES:
        for _ in range(2):
            u = random_poly(rng, 4)
            v = random_poly(rng, 4)
            for l in range(1, 5):
                res = recurrence_residual(seq, l, u, v)
                scale = max(1.0, abs(energy_total(seq, l + 1, u, v).total))
                worst = max(worst, res / (1e-11 * scale))
    check(
        4,
        "one-step recurrence",
        worst <= 1.0,
        f"max residual / (1e-11 max(1, |E_(l+1)|)) over 3 regimes, l=1..4: {worst:.3e} (<= 1, seed 2204)",
    )


def _brute_force_kappa(seq, word):
    m = np.eye(2)
    lam = 1.0
    for pos, letter in enumerate(word, start=1):
        m = m @ triple(seq.eps(pos))[0][letter - 1]
        lam *= 0.6 * seq.eps(pos) ** 2
    return float(np.trace(m @ (0.5 * np.eye(2)) @ m.T)) / lam


def test_criterion_05_cylinder_mass_closed_forms():
    # The cylinder tables take no sequence; every regime's own map products
    # must give the same closed forms.
    closed = {(1,): 1 / 3, (2,): 1 / 3, (3,): 1 / 3, (1, 1): 41 / 225, (1, 2): 17 / 225, (1, 3): 17 / 225}
    worst_closed = max(abs(kappa(w) - val) for w, val in closed.items())
    for seq in ALL_REGIMES:
        for w, val in closed.items():
            worst_closed = max(worst_closed, abs(_brute_force_kappa(seq, w) - val))
    worst_sum = max(abs(math.fsum(kappa_table(l).tolist()) - 1.0) for l in range(0, 13))
    worst_add = 0.0
    for l in range(0, 7):
        refined = tau_table(l + 1).reshape(3**l, 3, 2, 2).sum(axis=1)
        worst_add = max(worst_add, float(np.max(np.abs(tau_table(l) - refined))))
    check(
        5,
        "cylinder mass closed forms",
        worst_closed <= 1e-13 and worst_sum <= 1e-12 and worst_add <= 1e-13,
        f"closed-form and brute-force deviation over 3 regimes {worst_closed:.3e} (<= 1e-13); "
        f"level sums - 1: {worst_sum:.3e} (<= 1e-12, l <= 12); "
        f"refinement additivity: {worst_add:.3e} (<= 1e-13, |w| <= 6)",
    )


def test_criterion_06_adjoint_route_matches_product_route():
    worst = 0.0
    for seq in ALL_REGIMES:
        for l in range(1, 7):
            agg = adjoint_aggregate(seq, l)
            for word in iter_words(l):
                diff = float(np.max(np.abs(agg[word] - gibbs_tau(word).tau)))
                worst = max(worst, diff)
    check(
        6,
        "adjoint aggregation vs product formula",
        worst <= 1e-13,
        f"max entrywise difference over 3 regimes' adjoint routes, every word, l <= 6: {worst:.3e} (<= 1e-13)",
    )


def test_criterion_07_geometry_exactness():
    worst_len = 0.0
    for seq in ALL_REGIMES:
        for s in (1, 2, 3, 6):
            starts, vels = cable_segments(seq, s)
            lengths = np.hypot(*((starts + vels) - starts).T)
            worst_len = max(worst_len, float(np.max(np.abs(lengths - seq.one_minus_eps(s)))))
    lin, off = triple(1.0)
    meet = np.array([3.0 * math.sqrt(3.0) / 10.0, 0.1])
    b = base_vertices()[1]
    a = base_vertices()[0]
    worst_meet = max(
        float(np.max(np.abs(lin[0] @ b + off[0] - meet))), float(np.max(np.abs(lin[1] @ a + off[1] - meet)))
    )
    counts_ok = True
    for l in range(0, 7):
        tri, cab = count_edges(l)
        total = tri + cab
        counts_ok = counts_ok and total == 3 * 3**l + 3 * (3**l - 1) // 2
        counts_ok = counts_ok and len(list(prefractal_edges(TAIL_ONLY, l))) == total
    w = np.array([0.5, math.sqrt(3.0) / 2.0])
    worst_eig = 0.0
    for seq in ALL_REGIMES:
        for i in (1, 2, 3, 5):
            eps = seq.eps(i)
            t2 = triple(eps)[0][1]
            worst_eig = max(worst_eig, float(np.max(np.abs(t2 @ w - 0.6 * eps * w))))
    check(
        7,
        "geometry exactness",
        worst_len <= 1e-14 and worst_meet <= 1e-14 and counts_ok and worst_eig <= 1e-14,
        f"cable length deviation {worst_len:.3e} (<= 1e-14); eps=1 meeting point "
        f"deviation {worst_meet:.3e} (<= 1e-14); edge counts l<=6 {'ok' if counts_ok else 'WRONG'}; "
        f"eigen-direction deviation {worst_eig:.3e} (<= 1e-14)",
    )


def test_criterion_08_measure_route_matches_quadrature_route():
    rng = np.random.default_rng(2208)
    worst = -np.inf
    for _ in range(5):
        u = affine(*rng.uniform(-1.0, 1.0, size=3))
        v = affine(*rng.uniform(-1.0, 1.0, size=3))
        for d in range(1, 7):
            via_measure = energy_via_measure(TAIL_ONLY, u, v, d)
            e2, tail = energy2_limit(TAIL_ONLY, u, v, d)
            direct = energy1(TAIL_ONLY, d, u, v) + e2
            margin = abs(via_measure - direct) - (1e-12 + tail)
            worst = max(worst, margin)
    check(
        8,
        "measure route vs quadrature route",
        worst <= 0.0,
        f"max (|difference| - 1e-12 - tail) over 5 affine pairs, d <= 6: {worst:.3e} (<= 0, seed 2208)",
    )


def test_criterion_09_integration_by_parts():
    phi = parse("x^2")
    v = vanishing_cubic()
    res = [ibp_residual(TAIL_ONLY, phi, v, d) for d in range(3, 9)]
    ratios = [res[i] / res[i - 1] for i in range(1, len(res))]
    mono_ok = all(r <= 0.9 for r in ratios)
    aff = affine(0.3, -1.2, 0.7)
    worst_aff = max(ibp_residual(TAIL_ONLY, aff, v, d) for d in range(3, 9))
    check(
        9,
        "integration by parts",
        mono_ok and worst_aff <= 1e-10,
        f"x^2 residuals over depths 3..8 decay with ratios {['%.3f' % r for r in ratios]} "
        f"(each <= 0.9); affine residual max {worst_aff:.3e} (<= 1e-10)",
    )


def test_criterion_10_nondegeneracy_constant():
    g1 = nd_gamma(1.0)
    ratios = [nd_gamma(e) / e for e in (0.25, 0.5, 0.75)]
    spread = max(ratios) - min(ratios)
    check(
        10,
        "nondegeneracy constant",
        g1 > 0.05 and spread <= 1e-3,
        f"gamma(1) = {g1:.6f} (> 0.05); gamma(eps)/eps spread over (0.25, 0.5, 0.75) = "
        f"{spread:.3e} (<= 1e-3)",
    )


def test_criterion_11_calculus_and_quadrature():
    rng = np.random.default_rng(2211)
    worst_fd = 0.0
    for _ in range(50):
        p = random_poly(rng, 4)
        x0, y0 = rng.uniform(-1.0, 1.0, size=2)
        at = np.array([x0]), np.array([y0])
        gradient = np.array([g[0] for g in grad_batch(p, *at)])
        hxx, hxy, hyy = (h[0] for h in hess_batch(p, *at))
        hessian = np.array([[hxx, hxy], [hxy, hyy]])
        h = 1e-5
        fd_g = np.array(
            [
                (p.value(x0 + h, y0) - p.value(x0 - h, y0)) / (2 * h),
                (p.value(x0, y0 + h) - p.value(x0, y0 - h)) / (2 * h),
            ]
        )
        scale = max(1.0, float(np.max(np.abs(gradient))))
        worst_fd = max(worst_fd, float(np.max(np.abs(gradient - fd_g))) / scale)
        h = 1e-4
        fd_h = np.array(
            [
                [
                    (p.value(x0 + h, y0) - 2 * p.value(x0, y0) + p.value(x0 - h, y0)) / h**2,
                    (
                        p.value(x0 + h, y0 + h)
                        - p.value(x0 + h, y0 - h)
                        - p.value(x0 - h, y0 + h)
                        + p.value(x0 - h, y0 - h)
                    )
                    / (4 * h**2),
                ],
                [0.0, (p.value(x0, y0 + h) - 2 * p.value(x0, y0) + p.value(x0, y0 - h)) / h**2],
            ]
        )
        fd_h[1, 0] = fd_h[0, 1]
        scale = max(1.0, float(np.max(np.abs(hessian))))
        worst_fd = max(worst_fd, float(np.max(np.abs(hessian - fd_h))) / scale)
    u = random_poly(rng, 4)
    v = random_poly(rng, 4)
    worst_quad = 0.0
    # Gauss orders 8 (the forms' own for these degrees) and 16, through the pass's private order.
    for seq in (CONSTANT_HALF, TAIL_ONLY):
        e8 = energy_at_order(seq, 3, u, v, 8).total
        e16 = energy_at_order(seq, 3, u, v, 16).total
        assert e8 == energy_total(seq, 3, u, v).total
        worst_quad = max(worst_quad, abs(e16 - e8) / max(1.0, abs(e8)))
    check(
        11,
        "calculus and quadrature",
        worst_fd <= 1e-6 and worst_quad <= 1e-13,
        f"max relative FD deviation over 50 fields: {worst_fd:.3e} (<= 1e-6, seed 2211); "
        f"order-doubling relative change: {worst_quad:.3e} (<= 1e-13)",
    )


def test_criterion_12_cli_determinism(tmp_path):
    base = [sys.executable, "-m", "stretched_gasket.cli"]
    eps = ["--eps-prefix", "0.9", "--tail-c", "0.05", "--tail-r", "0.5"]
    runs = [
        ["geometry", *eps, "--depth", "2", "--shade"],
        ["energy", *eps, "--depth", "2", "--u", "x^2", "--v", "x*y"],
        ["harmonicity", *eps, "--depth", "2"],
        ["ruelle", *eps, "--eps", "0.7"],
        ["kusuoka", *eps, "--depth", "2"],
        ["ibp", *eps, "--depths", "3,4"],
        ["convergence", *eps, "--depth", "3"],
        ["selfsim", *eps, "--depth", "3"],
        ["laplacian", *eps, "--depth", "1"],
    ]
    all_ok = True
    for argv in runs:
        side_a = tmp_path / "a.json"
        side_b = tmp_path / "b.json"
        extra_a = ["--json", str(side_a)] if argv[0] in ("geometry", "kusuoka") else []
        extra_b = ["--json", str(side_b)] if argv[0] in ("geometry", "kusuoka") else []
        pa = subprocess.run(base + argv + extra_a, capture_output=True)
        pb = subprocess.run(base + argv + extra_b, capture_output=True)
        same = pa.returncode == 0 and pb.returncode == 0 and pa.stdout == pb.stdout
        if extra_a:
            same = same and side_a.read_bytes() == side_b.read_bytes()
        all_ok = all_ok and same
        assert same, (argv, pa.stderr.decode())
    check(
        12,
        "CLI determinism",
        all_ok,
        "all 9 subcommands byte-identical across repeated runs (stdout and side files)",
    )
