"""Command-line interface: commands, output formats, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stretchlab
from stretchlab.cli import main, verify_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lame_command(capsys):
    code, out, _ = run(
        capsys,
        "lame",
        "--family",
        "stable_neo_hookean",
        "--params",
        '{"mu": 1.0, "lam": 2.0}',
    )
    assert code == 0
    data = json.loads(out)
    assert data["lambda_lame"] == pytest.approx(1.0, abs=1e-12)
    assert data["mu_lame"] == pytest.approx(1.0, abs=1e-12)
    assert data["E"] == pytest.approx(2.5, rel=1e-12)
    assert data["nu"] == pytest.approx(0.25, rel=1e-12)


def test_lame_fd_flag(capsys):
    code, out, _ = run(
        capsys,
        "lame",
        "--family",
        "hencky",
        "--params",
        '{"mu": 2.0, "lam": 1.0}',
        "--fd",
    )
    assert code == 0
    data = json.loads(out)
    assert data["mu_lame"] == pytest.approx(2.0, rel=1e-6)
    assert data["method_agreement"] < 1e-6


def test_lame_with_spec_file_and_alpha(capsys, tmp_path):
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"family": "hencky", "params": {"mu": 1.0, "lam": 2.0}}))
    code, out, _ = run(capsys, "lame", "--spec", str(spec), "--alpha", "2.0")
    assert code == 0
    data = json.loads(out)
    # the filter preserves the extraction
    assert data["lambda_lame"] == pytest.approx(2.0, rel=1e-10)
    assert data["mu_lame"] == pytest.approx(1.0, rel=1e-10)


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "lame", "--family", "no_such_family")
    assert code == 2
    assert err
    code, _, _ = run(
        capsys, "lame", "--family", "hencky", "--params", '{"mu": -1.0, "lam": 1.0}'
    )
    assert code == 2
    code, _, _ = run(capsys, "lame")
    assert code == 2


def test_normalize_command(capsys):
    code, out, _ = run(
        capsys, "normalize", "--family", "stable_neo_hookean", "--E", "1e6", "--nu", "0.3"
    )
    assert code == 0
    data = json.loads(out)
    lam = 1e6 * 0.3 / (1.3 * 0.4)
    mu = 1e6 / 2.6
    assert data["params"]["mu"] == pytest.approx(mu, rel=1e-12)
    assert data["params"]["lam"] == pytest.approx(lam + mu, rel=1e-12)


def test_normalize_unreachable_target(capsys):
    code, _, err = run(capsys, "normalize", "--family", "arap", "--E", "1e6", "--nu", "0.3")
    assert code == 2
    assert "compose" in err


@pytest.mark.parametrize("params", ["[1]", "5"])
def test_non_object_params_are_validation_errors(capsys, tmp_path, params):
    code, _, err = run(capsys, "lame", "--family", "hencky", "--params", params)
    assert code == 2 and "Traceback" not in err
    code, _, err = run(
        capsys, "normalize", "--family", "hencky", "--E", "1e6", "--nu", "0.3", "--params", params
    )
    assert code == 2 and "Traceback" not in err
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"family": "hencky", "params": json.loads(params)}))
    code, _, err = run(capsys, "lame", "--spec", str(spec))
    assert code == 2 and "Traceback" not in err


@pytest.mark.parametrize("params", ['{"mu": [1], "lam": 1}', '{"mu": null, "lam": 1}'])
def test_wrongly_typed_params_are_validation_errors(capsys, params):
    code, _, err = run(capsys, "lame", "--family", "hencky", "--params", params)
    assert code == 2 and "malformed parameters" in err


def test_non_string_family_is_validation_error(capsys, tmp_path):
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"family": ["x"]}))
    code, _, err = run(capsys, "lame", "--spec", str(spec))
    assert code == 2 and "unknown family" in err


def test_wrongly_typed_baseline_is_validation_error(capsys):
    code, _, err = run(
        capsys, "normalize", "--family", "ogden", "--E", "1", "--nu", "0", "--params",
        '{"terms": 3}',
    )
    assert code == 2 and "malformed baseline" in err


def test_genmesh_and_modes(capsys, tmp_path):
    mesh_path = tmp_path / "beam.mesh"
    code, out, _ = run(
        capsys, "genmesh", "--kind", "beam", "--n", "1", "--out", str(mesh_path)
    )
    assert code == 0
    assert mesh_path.exists()

    sa = tmp_path / "a.json"
    sb = tmp_path / "b.json"
    sa.write_text(json.dumps({"family": "stable_neo_hookean", "params": {"mu": 1e5, "lam": 2e5}}))
    sb.write_text(
        json.dumps(
            {
                "combine": {
                    "mu_part": {"family": "arap"},
                    "lambda_part": "j_minus_1_sq",
                    "E": 2.5e5,
                    "nu": 0.25,
                }
            }
        )
    )
    code, out, _ = run(
        capsys,
        "modes",
        "--spec-a",
        str(sa),
        "--spec-b",
        str(sb),
        "--mesh",
        str(mesh_path),
        "--k",
        "4",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["frequencies_a_hz"]) == 4
    # both specs share Lame parameters (1e5, 1e5): identical rest response
    assert data["stiffness_rel_frobenius_diff"] < 1e-10
    assert np.allclose(data["frequencies_a_hz"], data["frequencies_b_hz"])


def test_stretch_test_csv(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run(
        capsys,
        "stretch-test",
        "--family",
        "stable_neo_hookean",
        "--params",
        '{"mu": 1e5, "lam": 4e5}',
        "--n",
        "2",
        "--dmin",
        "0.98",
        "--dmax",
        "1.1",
        "--steps",
        "4",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "distance,force"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 4
    dists = [r[0] for r in rows]
    assert dists == sorted(dists) and len(set(dists)) == 4
    # compression pushes back, tension pulls back
    assert rows[0][1] < 0.0 < rows[-1][1]


def test_inverted_element_exit_code(capsys, tmp_path):
    # compression below 1 - 1/n inverts the last element layer of the
    # initial guess; the solve reports it as a convergence failure
    code, _, err = run(
        capsys,
        "stretch-test",
        "--family",
        "hencky",
        "--params",
        '{"mu": 1e5, "lam": 4e5}',
        "--n",
        "2",
        "--dmin",
        "0.4",
        "--dmax",
        "1.0",
        "--steps",
        "1",
        "--out",
        str(tmp_path / "curve.csv"),
    )
    assert code == 3
    lines = err.strip().splitlines()
    assert len(lines) == 1 and re.search(r"element \d+", lines[0])


def test_stretch_test_rejects_bad_range(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        "stretch-test",
        "--family",
        "arap",
        "--n",
        "2",
        "--dmin",
        "1.5",
        "--dmax",
        "1.2",
        "--steps",
        "3",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert code == 2


@pytest.mark.parametrize(
    "rows, missing",
    (
        ([], "expected 'vertices N'"),
        (["vertices 4", "0 0 0", "1 0 0"], "'vertices 4', but 2 rows follow"),
        (["vertices 4", "0 0 0", "1 0 0", "0 1 0", "0 0"], "vertices row 3 has 2 fields"),
        (["vertices 4", "0 0 0", "1 0 0", "0 1 0", "0 0 1"], "expected 'tets N'"),
    ),
)
def test_modes_rejects_truncated_mesh(capsys, tmp_path, rows, missing):
    mesh_path = tmp_path / "cut.mesh"
    mesh_path.write_text("\n".join(["tetmesh v1", *rows]) + "\n")
    spec = tmp_path / "a.json"
    spec.write_text(json.dumps({"family": "neo_hookean", "params": {"mu": 1.0, "lam": 1.0}}))
    code, _, err = run(
        capsys, "modes", "--spec-a", str(spec), "--spec-b", str(spec), "--mesh", str(mesh_path)
    )
    assert code == 2
    assert str(mesh_path) in err and missing in err


def test_stretch_test_rejects_zero_steps(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    code, _, err = run(
        capsys, "stretch-test", "--family", "arap", "--n", "2", "--steps", "0",
        "--out", str(out_path),
    )
    assert code == 2 and "steps" in err
    assert not out_path.exists()


@pytest.mark.parametrize("seed", [*range(20), 97, 180])
def test_verify_table_seeds_pass(seed):
    ok, report = verify_table(seed=seed)
    assert ok, {f: e for f, e in report.items() if not e["pass"]}


@pytest.mark.xfail(
    strict=True,
    reason="mooney_rivlin energy is not permutation-invariant by construction: "
    "summation order leaves a symmetry error of 2.05e-12 > 1e-12",
)
def test_verify_table_seed_176_mooney_rivlin_symmetry():
    ok, report = verify_table(seed=176)
    assert ok, report["mooney_rivlin"]


def test_verify_table(capsys):
    code, out, _ = run(capsys, "verify-table", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["pass"]
    assert len(data["families"]) == 19
    for entry in data["families"].values():
        assert entry["lame_closure_pass"]
        assert entry["permutation_symmetry_pass"]


def test_cli_import_loads_no_scipy():
    # scipy is imported lazily by modal_frequencies alone; a module-level
    # import would raise start-up time and memory of every command
    src = Path(stretchlab.__file__).resolve().parents[1]
    probe = (
        "import sys, stretchlab.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
