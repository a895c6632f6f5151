"""Workload inputs, operations and correctness gates.

A workload is a fixed round of CLI operations generated from the seed.
Every operation is an argument vector for ``stretchlab.cli.main`` plus a
check that turns its exit code, output and files into a list of failure
messages (empty when the output is correct).
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

STRETCH_N = 4
STRETCH_DISTANCES = (0.98, 2.0, 12)
STRETCH_ALPHA = 2.0
STRETCH_REF_RTOL = 1e-6
MODES_N = 5
MODES_K = 6
MODES_STIFFNESS_RTOL = 1e-12
MODES_FREQ_RTOL = 1e-8
CATALOG_SEEDS = 16
# verify-table seeds 0-299 were all run when the benchmark was defined; the
# catalog draws from them, except the three that failed there, which run
# as known-defect probes instead (see PROBES).
VERIFY_TABLE_FAILING = (97, 176, 180)
VERIFY_TABLE_POOL = tuple(s for s in range(300) if s not in VERIFY_TABLE_FAILING)


@dataclass
class Op:
    label: str
    argv: list
    check: object  # callable(rc, stdout, stderr) -> list of failure messages


@dataclass
class Workload:
    inputs: dict
    ops: list


def seeded_moduli(seed):
    """(E, nu) drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(5e4, 5e5)), float(rng.uniform(0.25, 0.35))


def snh_params(E, nu):
    """Stable Neo-Hookean (mu, lam) whose Lame extraction hits (E, nu).

    Its volume term shifts the extracted lambda by mu, so lam = lambda + mu.
    """
    mu = E / (2.0 * (1.0 + nu))
    lam_lame = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return {"mu": mu, "lam": lam_lame + mu}


def _exit_ok(rc, stderr):
    if rc == 0:
        return []
    return [f"exit code {rc}: {stderr.strip()[-300:]}"]


# -- stretch -----------------------------------------------------------------


def read_curve(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["distance"]) for r in rows], [float(r["force"]) for r in rows]


def check_curve(distances, forces, steps, reference=None):
    """Failure messages for one stretch curve."""
    if len(forces) != steps:
        return [f"{len(forces)} of {steps} rows (distances skipped)"]
    errors = []
    if not all(math.isfinite(v) for v in distances + forces):
        errors.append("non-finite row")
    for d, f in zip(distances, forces):
        if (d < 1.0 and not f < 0.0) or (d > 1.0 and not f > 0.0):
            errors.append(f"force {f:.6g} has the wrong sign at d={d:.6g}")
    if any(b <= a for a, b in zip(forces, forces[1:])):
        errors.append("force does not increase strictly with distance")
    if reference is not None:
        worst = max(
            abs(f - r) / abs(r) for f, r in zip(forces, reference["force"])
        )
        if worst > STRETCH_REF_RTOL:
            errors.append(f"curve differs from the reference by {worst:.3e} relative")
    return errors


def stretch_reference(seed, E, nu):
    path = REFERENCE_DIR / f"stretch_seed{seed}.json"
    if not path.is_file():
        return None
    ref = json.loads(path.read_text())
    if (ref["E"], ref["nu"]) != (E, nu):
        raise ValueError(f"{path.name} was recorded for other inputs")
    return ref


def make_stretch(seed, workdir):
    E, nu = seeded_moduli(seed)
    params = snh_params(E, nu)
    out = workdir / "curve.csv"
    dmin, dmax, steps = STRETCH_DISTANCES
    reference = stretch_reference(seed, E, nu)
    argv = [
        "stretch-test",
        "--family", "stable_neo_hookean",
        "--params", json.dumps(params),
        "--alpha", repr(STRETCH_ALPHA),
        "--n", str(STRETCH_N),
        "--dmin", repr(dmin),
        "--dmax", repr(dmax),
        "--steps", str(steps),
        "--out", str(out),
    ]

    def check(rc, stdout, stderr):
        errors = _exit_ok(rc, stderr)
        if errors:
            return errors
        distances, forces = read_curve(out)
        return check_curve(distances, forces, steps, reference)

    inputs = {"E": E, "nu": nu, "params": params, "alpha": STRETCH_ALPHA,
              "reference": reference is not None}
    return Workload(inputs, [Op("stretch-test", argv, check)])


# -- modes -------------------------------------------------------------------


def check_modes(report):
    errors = []
    kdiff = report["stiffness_rel_frobenius_diff"]
    if not kdiff <= MODES_STIFFNESS_RTOL:
        errors.append(f"stiffness A/B relative difference {kdiff:.3e}")
    fa = np.asarray(report["frequencies_a_hz"], dtype=float)
    fb = np.asarray(report["frequencies_b_hz"], dtype=float)
    if len(fa) != MODES_K or len(fb) != MODES_K:
        return errors + [f"expected {MODES_K} frequencies, got {len(fa)} and {len(fb)}"]
    rel = float(np.max(np.abs(fa - fb)) / np.max(np.abs(fa)))
    if not rel <= MODES_FREQ_RTOL:
        errors.append(f"frequencies A/B differ by {rel:.3e} relative")
    for tag, f in (("A", fa), ("B", fb)):
        if not (np.all(np.isfinite(f)) and np.all(f > 0.0)):
            errors.append(f"frequencies {tag} not finite and positive")
        if np.any(np.diff(f) < 0.0):
            errors.append(f"frequencies {tag} not ascending")
    return errors


def make_modes(seed, workdir):
    E, nu = seeded_moduli(seed)
    spec_a = {"family": "stable_neo_hookean", "params": snh_params(E, nu)}
    spec_b = {
        "combine": {
            "mu_part": {"family": "st_venant_kirchhoff", "params": {"mu": 1.0, "lam": 1.0}},
            "lambda_part": "j_minus_1_sq",
            "E": E,
            "nu": nu,
            "alpha_mu": 2.0,
        }
    }
    path_a, path_b = workdir / "spec_a.json", workdir / "spec_b.json"
    path_a.write_text(json.dumps(spec_a))
    path_b.write_text(json.dumps(spec_b))
    argv = ["modes", "--spec-a", str(path_a), "--spec-b", str(path_b),
            "--n", str(MODES_N), "--k", str(MODES_K)]

    def check(rc, stdout, stderr):
        return _exit_ok(rc, stderr) or check_modes(json.loads(stdout))

    inputs = {"E": E, "nu": nu, "spec_a": spec_a, "spec_b": spec_b}
    return Workload(inputs, [Op("modes", argv, check)])


# -- catalog -----------------------------------------------------------------


def _check_verify_table(rc, stdout, stderr):
    errors = _exit_ok(rc, stderr)
    if not errors and json.loads(stdout)["pass"] is not True:
        errors.append("verify-table reports pass: false")
    return errors


def _check_lame(rc, stdout, stderr):
    errors = _exit_ok(rc, stderr)
    if not errors:
        out = json.loads(stdout)
        if not all(math.isfinite(out[k]) for k in ("lambda_lame", "mu_lame")):
            errors.append("non-finite Lame parameters")
    return errors


def make_catalog(seed, workdir):
    from stretchlab.materials import catalog_families, sample_params

    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.choice(VERIFY_TABLE_POOL, size=CATALOG_SEEDS, replace=False)]
    ops = [
        Op(f"verify-table:{s}", ["verify-table", "--seed", str(s)], _check_verify_table)
        for s in seeds
    ]
    params = {}
    for family in catalog_families():
        params[family] = sample_params(family, rng, rest_stable=True)
        argv = ["lame", "--family", family, "--params", json.dumps(params[family])]
        ops.append(Op(f"lame:{family}", argv, _check_lame))
    return Workload({"verify_table_seeds": seeds, "lame_params": params}, ops)


WORKLOADS = {"stretch": make_stretch, "modes": make_modes, "catalog": make_catalog}


# -- known-defect probes (untimed, reported on their own) --------------------

# name -> (argv, CSV rows a correct stretch-test writes, or None)
PROBES = {
    # compression below 1 - 1/n inverts the last element layer of the guess
    "defect_a_compression": (
        ["stretch-test", "--family", "hencky", "--params", '{"mu": 1e5, "lam": 4e5}',
         "--n", "2", "--dmin", "0.4", "--dmax", "1.0", "--steps", "1"],
        1,
    ),
    # near-incompressible Stable Neo-Hookean stalls before the tolerance
    "defect_b_near_incompressible": (
        ["stretch-test", "--family", "stable_neo_hookean", "--params",
         '{"mu": 1e5, "lam": 1e8}', "--n", "2", "--dmin", "1.0", "--dmax", "1.2",
         "--steps", "2"],
        2,
    ),
    # ogden draws whose fd Lame closure error exceeds 1e-5
    "verify_table_seed97_ogden_closure": (["verify-table", "--seed", "97"], None),
    "verify_table_seed180_ogden_closure": (["verify-table", "--seed", "180"], None),
    # a mooney_rivlin draw whose permutation-symmetry error exceeds 1e-12
    "verify_table_seed176_mooney_symmetry": (["verify-table", "--seed", "176"], None),
}


def mesh_sizes(name):
    """Tet and free-DOF counts of the workload's mesh (empty without FEM)."""
    from stretchlab.fem import generate_mesh

    if name == "stretch":
        mesh = generate_mesh("cube", STRETCH_N, size=1.0)
        x = mesh.vertices[:, 0]
        fixed = np.count_nonzero((np.abs(x) < 1e-9) | (np.abs(x - 1.0) < 1e-9))
    elif name == "modes":
        mesh = generate_mesh("beam", MODES_N)
        x = mesh.vertices[:, 0]
        fixed = np.count_nonzero(np.abs(x - x.min()) < 1e-9)
    else:
        return {}
    return {"tets": mesh.num_tets, "free_dofs": 3 * (mesh.num_vertices - int(fixed))}
