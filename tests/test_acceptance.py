"""Acceptance suite: one test per release criterion.

Each test prints a short PASS line with the measured quantity so the
criteria can be audited from the pytest -s output.
"""

import time

import numpy as np

from stretchlab.cli import stretch_curve, verify_table
from stretchlab.compose import combine, decompose, volumetric_part
from stretchlab.fd import fd_gradient, fd_hessian
from stretchlab.fem import (
    BoundaryCondition,
    assemble,
    generate_mesh,
    modal_frequencies,
)
from stretchlab.fem.assembly import total_energy
from stretchlab.filtering import filter_nonlinearity
from stretchlab.lame import (
    IsotropicModuli,
    extract_lame,
    lame_to_moduli,
    moduli_to_lame,
    normalize,
    pk1_linearize,
)
from stretchlab.materials import make_material, sample_params


def test_criterion_1_table_closure():
    # all 19 families: fd-extracted Lame matches the closed forms within
    # 1e-5 relative over 10 randomized draws each; runtime < 10 s
    t0 = time.time()
    ok, report = verify_table(seed=0)
    elapsed = time.time() - t0
    assert ok, {f: e for f, e in report.items() if not e["pass"]}
    assert len(report) == 19
    assert elapsed < 10.0
    worst = max(e["lame_closure_max_rel_err"] for e in report.values())
    print(f"\nPASS criterion 1: 19 families, worst closure {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_linearization_order():
    # the energy minus its corotational linearization decays with
    # exponent >= 2.7 in the perturbation radius
    cases = (
        ("st_venant_kirchhoff", {"mu": 1.0, "lam": 2.0}),
        ("hencky", {"mu": 1.0, "lam": 2.0}),
        ("stable_neo_hookean", {"mu": 1.0, "lam": 2.0}),
        ("mooney_rivlin", {"c1": 1.0, "c2": -0.5}),
    )
    radii = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    rng = np.random.default_rng(2024)
    slopes = {}
    for family, params in cases:
        model = make_material(family, params)
        lin = pk1_linearize(model)
        dirs = rng.normal(size=(8, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        errs = np.zeros(len(radii))
        for k, r in enumerate(radii):
            errs[k] = max(
                abs(model.energy(1.0 + r * d) - lin.energy(1.0 + r * d)) for d in dirs
            )
        slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
        slopes[family] = slope
        assert slope >= 2.7, (family, slope, errs)
    worst = min(slopes.values())
    print(f"PASS criterion 2: decay exponents {slopes} (min {worst:.2f} >= 2.7)")


def test_criterion_3_filter_identities():
    mu, lam = 1.3, 0.7
    base = make_material("linear_corotational", {"mu": mu, "lam": lam})
    stvk = make_material("st_venant_kirchhoff", {"mu": mu, "lam": lam})
    rng = np.random.default_rng(7)
    triples = rng.uniform(0.5, 2.0, size=(100, 3))

    def close(a, b, tol=1e-10):
        return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol * max(
            1.0, float(np.max(np.abs(b)))
        )

    filtered2 = filter_nonlinearity(base, 2.0)
    for s in triples:
        assert close(filtered2.energy(s), stvk.energy(s))
        assert close(filtered2.gradient(s), stvk.gradient(s))
        assert close(filtered2.hessian(s), stvk.hessian(s))
    for alpha in (0.5, 1.5, 3.0):
        fa = filter_nonlinearity(base, alpha)
        sh = make_material("seth_hill", {"mu": mu, "lam": lam, "alpha": alpha})
        for s in triples:
            assert close(fa.energy(s), sh.energy(s))
            assert close(fa.gradient(s), sh.gradient(s))
            assert close(fa.hessian(s), sh.hessian(s))

    # rest-Hessian invariance within 1e-8 for 9 families x 4 alphas
    families = (
        "linear_corotational",
        "st_venant_kirchhoff",
        "hencky",
        "neo_hookean",
        "stable_neo_hookean",
        "sts",
        "arap",
        "symmetric_dirichlet",
        "valanis_landel_new",
    )
    worst = 0.0
    for family in families:
        model = make_material(family, sample_params(family, rng))
        l0 = extract_lame(model)
        scale = max(abs(l0.lambda_lame), abs(l0.mu_lame), 1.0)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            f = filter_nonlinearity(model, alpha)
            H = f.hessian(np.ones(3))
            lam1 = float((H[0, 1] + H[0, 2] + H[1, 2]) / 3.0)
            mu1 = 0.5 * (float(np.trace(H)) / 3.0 - lam1)
            err = max(abs(lam1 - l0.lambda_lame), abs(mu1 - l0.mu_lame)) / scale
            worst = max(worst, err)
            assert err < 1e-8, (family, alpha, err)
    print(f"PASS criterion 3: identities at 1e-10, invariance worst {worst:.2e}")


def test_criterion_4_filtered_derivatives():
    families = (
        "linear_corotational",
        "st_venant_kirchhoff",
        "hencky",
        "neo_hookean",
        "stable_neo_hookean",
        "arap",
        "symmetric_dirichlet",
        "valanis_landel_new",
        "sts",
    )
    rng = np.random.default_rng(11)
    worst_g = worst_h = 0.0
    for family in families:
        model = make_material(family, sample_params(family, rng))
        for alpha in (0.5, 1.0, 2.0, 3.0):
            f = filter_nonlinearity(model, alpha)
            for _ in range(10):
                s = rng.uniform(0.5, 2.0, size=3)
                g = f.gradient(s)
                gref = max(1.0, model.modulus_scale, float(np.max(np.abs(g))))
                eg = np.max(np.abs(g - fd_gradient(f.energy, s))) / gref
                H = f.hessian(s)
                href = max(1.0, model.modulus_scale, float(np.max(np.abs(H))))
                eh = np.max(np.abs(H - fd_hessian(f.energy, s))) / href
                worst_g = max(worst_g, eg)
                worst_h = max(worst_h, eh)
                assert eg < 1e-5, (family, alpha, eg)
                assert eh < 1e-4, (family, alpha, eh)
    print(f"PASS criterion 4: gradient worst {worst_g:.2e}, hessian worst {worst_h:.2e}")


def test_criterion_5_moduli_round_trip():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        E = rng.uniform(1e2, 1e7)
        nu = rng.uniform(-0.9, 0.49)
        back = lame_to_moduli(moduli_to_lame(IsotropicModuli(E, nu)))
        worst = max(worst, abs(back.E - E) / E, abs(back.nu - nu))
        assert abs(back.E - E) <= 1e-12 * E
        assert abs(back.nu - nu) <= 1e-12
    print(f"PASS criterion 5: 1000 round trips, worst {worst:.2e}")


def test_criterion_6_normalization_on_beam():
    # 8x2x2 beam at nu = 0.2: normalized SNH matches corotational at
    # rest; the naive parameter reading is visibly wrong; runtime < 30 s
    t0 = time.time()
    E, nu = 1.0e6, 0.2
    target = moduli_to_lame(IsotropicModuli(E, nu))
    mesh = generate_mesh("beam", 2)
    coro = make_material(
        "linear_corotational", {"mu": target.mu_lame, "lam": target.lambda_lame}
    )
    snh = make_material("stable_neo_hookean", normalize("stable_neo_hookean", target))
    naive = make_material(
        "stable_neo_hookean", {"mu": target.mu_lame, "lam": target.lambda_lame}
    )

    Kc = assemble(mesh, coro).stiffness.toarray()
    Ks = assemble(mesh, snh).stiffness.toarray()
    Kn = assemble(mesh, naive).stiffness.toarray()
    ref = np.linalg.norm(Kc)
    good = np.linalg.norm(Ks - Kc) / ref
    bad = np.linalg.norm(Kn - Kc) / ref
    assert good < 1e-8
    assert bad >= 0.01

    left = np.nonzero(mesh.vertices[:, 0] < 1e-9)[0]
    bc = BoundaryCondition(vertices=left, positions=mesh.vertices[left])
    fc = modal_frequencies(mesh, coro, bc, 6)
    fs = modal_frequencies(mesh, snh, bc, 6)
    fn = modal_frequencies(mesh, naive, bc, 6)
    freq_good = np.max(np.abs(fs - fc) / fc)
    freq_bad = np.max(np.abs(fn - fc) / fc)
    assert freq_good < 1e-4
    assert freq_bad >= 0.01
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(
        f"PASS criterion 6: stiffness {good:.1e} vs naive {bad:.1%}, "
        f"modes {freq_good:.1e} vs naive {freq_bad:.1%}, {elapsed:.1f}s"
    )


def test_criterion_7_stretch_curves():
    # unit-cube stretch test at n = 4 for normalized SNH with
    # nonlinearity exponents 0.5, 1, 2; runtime < 2 min
    t0 = time.time()
    target = moduli_to_lame(IsotropicModuli(1.0e5, 0.3))
    base = make_material("stable_neo_hookean", normalize("stable_neo_hookean", target))
    inner = [round(0.98 + 0.02 * k, 2) for k in range(3)]  # 0.98, 1.0, 1.02
    outer = [round(1.1 + 0.1 * k, 1) for k in range(10)]  # 1.1 .. 2.0
    curves = {}
    for alpha in (0.5, 1.0, 2.0):
        model = filter_nonlinearity(base, alpha)
        rows, skipped = stretch_curve(model, 4, inner + outer)
        assert not skipped and [d for d, _ in rows] == inner + outer
        curves[alpha] = dict(rows)

    # (a) the alpha = 1 curve is concave on [1.2, 2.0]
    f1 = [curves[1.0][d] for d in outer]
    second = np.diff(f1, 2)
    assert np.all(second <= 1e-9 * max(abs(v) for v in f1)), second

    # (b) slopes at d = 1 +/- 0.02 agree within 1 percent
    slopes = {
        a: (curves[a][1.02] - curves[a][0.98]) / 0.04 for a in curves
    }
    ref = slopes[1.0]
    spread = max(abs(s - ref) / abs(ref) for s in slopes.values())
    assert spread < 0.01, slopes

    # (c) the reaction at d = 1.8 increases strictly with alpha
    f18 = [curves[a][1.8] for a in (0.5, 1.0, 2.0)]
    assert f18[0] < f18[1] < f18[2], f18
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(
        f"PASS criterion 7: concave, slope spread {spread:.2%}, "
        f"f(1.8) = {f18}, {elapsed:.1f}s"
    )


def test_criterion_8_composition():
    target = moduli_to_lame(IsotropicModuli(2.0e5, 0.35))
    _, mu_part = decompose("st_venant_kirchhoff", {"mu": 1.0, "lam": 0.5})
    lam_part = volumetric_part("j_minus_1_sq")
    model = combine(mu_part, lam_part, target)
    got = extract_lame(model, method="fd")
    scale = max(abs(target.lambda_lame), abs(target.mu_lame))
    err = max(
        abs(got.lambda_lame - target.lambda_lame), abs(got.mu_lame - target.mu_lame)
    ) / scale
    assert err < 1e-6

    # equal split exponents collapse to the plain filter of the recombined
    # energy
    params = {"mu": 1.0, "lam": 2.0}
    lam_p, mu_p = decompose("st_venant_kirchhoff", params)
    original = make_material("st_venant_kirchhoff", params)
    lame = extract_lame(original)
    rng = np.random.default_rng(8)
    worst = 0.0
    for alpha in (0.5, 1.5, 2.5):
        split = combine(mu_p, lam_p, lame, alpha_mu=alpha, alpha_lambda=alpha)
        plain = filter_nonlinearity(original, alpha)
        for _ in range(50):
            s = rng.uniform(0.5, 2.0, size=3)
            e = plain.energy(s)
            dev = abs(split.energy(s) - e) / max(1.0, abs(e))
            worst = max(worst, dev)
            assert dev <= 1e-12
    print(f"PASS criterion 8: target error {err:.2e}, collapse worst {worst:.2e}")


def test_criterion_9_fem_self_consistency():
    mesh = generate_mesh("cube", 1)
    rng = np.random.default_rng(9)
    x = mesh.vertices + 0.05 * rng.uniform(-1.0, 1.0, size=mesh.vertices.shape)
    h = 1e-6
    cases = (
        ("stable_neo_hookean", {"mu": 1.0e5, "lam": 4.0e5}),
        ("hencky", {"mu": 1.0e5, "lam": 2.0e5}),
        ("st_venant_kirchhoff", {"mu": 2.0e5, "lam": 1.0e5}),
        ("arap", {}),
    )
    worst_f = worst_k = worst_r = 0.0
    for family, params in cases:
        model = make_material(family, params)
        sys = assemble(mesh, model, x)
        K = sys.stiffness.toarray()
        fref = max(1.0, float(np.max(np.abs(sys.force))))
        for dof in range(3 * mesh.num_vertices):
            xp = x.reshape(-1).copy()
            xm = x.reshape(-1).copy()
            xp[dof] += h
            xm[dof] -= h
            fd = -(
                total_energy(mesh, model, xp.reshape(-1, 3))
                - total_energy(mesh, model, xm.reshape(-1, 3))
            ) / (2.0 * h)
            err = abs(sys.force[dof] - fd) / fref
            worst_f = max(worst_f, err)
            assert err <= 1e-5, (family, dof, err)

        kref = max(1.0, float(np.max(np.abs(K))))
        for dof in range(3 * mesh.num_vertices):
            xp = x.reshape(-1).copy()
            xm = x.reshape(-1).copy()
            xp[dof] += h
            xm[dof] -= h
            col = -(
                assemble(mesh, model, xp.reshape(-1, 3)).force
                - assemble(mesh, model, xm.reshape(-1, 3)).force
            ) / (2.0 * h)
            err = float(np.max(np.abs(K[:, dof] - col))) / kref
            worst_k = max(worst_k, err)
            assert err <= 1e-4, (family, dof, err)

        lame = extract_lame(model)
        coro = make_material(
            "linear_corotational", {"mu": lame.mu_lame, "lam": lame.lambda_lame}
        )
        K0 = assemble(mesh, model).stiffness.toarray()
        Kc = assemble(mesh, coro).stiffness.toarray()
        err = np.linalg.norm(K0 - Kc) / np.linalg.norm(Kc)
        worst_r = max(worst_r, err)
        assert err < 1e-8, (family, err)
    print(
        f"PASS criterion 9: force {worst_f:.2e}, stiffness {worst_k:.2e}, "
        f"rest corotational {worst_r:.2e}"
    )
