"""Command-line interface: commands, output formats, exit codes."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import stretchlab
import stretchlab.cli
import stretchlab.compose
import stretchlab.fem.solver
import stretchlab.specs
from stretchlab.cli import build_parser, main
from stretchlab.errors import ConvergenceError, InvertedElementError
from stretchlab.fem import ElementBasis, assemble, generate_mesh, rel_frobenius_diff, stretch_curve
from stretchlab.fem.solver import _initial_guess
from stretchlab.lame import extract_lame, verify_table
from stretchlab.materials import MaterialModel, catalog_families, make_material, sample_params


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


def test_successive_main_calls_share_no_state(capsys):
    lame = ["lame", "--family", "hencky", "--params", '{"mu": 2.0, "lam": 1.0}']
    code, analytic, _ = run(capsys, *lame)
    assert code == 0
    code, fd, _ = run(capsys, *lame, "--fd")
    assert code == 0 and fd != analytic
    assert run(capsys, *lame) == (0, analytic, "")
    # an argparse error leaves the one parser as it was
    with pytest.raises(SystemExit) as err:
        main(["lame", "--fd", "--bogus"])
    assert err.value.code == 2
    capsys.readouterr()
    assert run(capsys, *lame) == (0, analytic, "")
    assert build_parser() is build_parser()


def test_lame_with_spec_file_and_alpha(capsys, tmp_path):
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"family": "hencky", "params": {"mu": 1.0, "lam": 2.0}}))
    code, out, _ = run(capsys, "lame", "--spec", str(spec), "--alpha", "2.0")
    assert code == 0
    data = json.loads(out)
    # the filter preserves the extraction
    assert data["lambda_lame"] == pytest.approx(2.0, rel=1e-10)
    assert data["mu_lame"] == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("alpha", [-1e308, 1e200, float("nan")])
def test_lame_rejects_an_exponent_whose_square_overflows(capsys, alpha):
    params = json.dumps({"mu": 0.5, "lam": 1, "alpha": alpha})
    code, out, err = run(capsys, "lame", "--family", "seth_hill", "--params", params)
    assert code == 2 and not out
    # make_material rejects a NaN parameter before the exponent is checked
    reason = "alpha must be finite" if np.isnan(alpha) else "exponent"
    assert reason in err and "Traceback" not in err


@pytest.mark.parametrize("mu", [1e300, 1e308])
def test_lame_exits_2_on_a_result_that_is_not_finite(capsys, mu):
    # the Lame pair (0, mu) is finite, but E = mu (3 lam + 2 mu) / (lam + mu)
    # overflows; at 1e308 the fd extraction, and so method_agreement, does too,
    # with no RuntimeWarning (pytest makes one an error)
    code, out, err = run(
        capsys, "lame", "--family", "symmetric_arap", "--params", json.dumps({"mu": mu})
    )
    assert code == 2 and not out
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "family, key, params",
    [
        ("hencky", "mu", lambda v: {"mu": v, "lam": 1.0}),
        ("ogden", "terms", lambda v: {"terms": [[v, 2.0]]}),
        ("mooney_rivlin", "c2", lambda v: {"c1": 1.0, "c2": v}),
    ],
    ids=["hencky", "ogden", "mooney_rivlin"],
)
def test_lame_rejects_a_non_finite_parameter(capsys, family, key, params, value):
    code, out, err = run(capsys, "lame", "--family", family, "--params", json.dumps(params(value)))
    assert code == 2 and not out
    assert f"error: {family}: {key} must be finite" in err and "Traceback" not in err


def test_lame_rejects_an_integer_too_large_for_a_float(capsys):
    params = '{"mu": 1' + "0" * 400 + ', "lam": 1}'
    code, out, err = run(capsys, "lame", "--family", "hencky", "--params", params)
    assert code == 2 and not out
    assert "too large" in err and "Traceback" not in err


def test_lame_reports_a_moduli_error_with_null_moduli(capsys):
    # one-signed Ogden terms with mu_lame < 0: the Lame pair exists, E and nu do not
    code, out, _ = run(capsys, "lame", "--family", "ogden", "--params", '{"terms": [[-1, 2], [1, -2]]}')
    assert code == 0
    data = json.loads(out)
    assert data["E"] is None and data["nu"] is None
    assert data["moduli_error"] == "mu_lame must be positive, got -2.0"
    assert data["mu_lame"] == -2.0


def test_lame_reports_a_degenerate_denominator_as_a_moduli_error(capsys):
    # Stable Neo-Hookean at lam = 0 extracts to (lam - mu, mu) = (-1, 1): lambda + mu = 0
    code, out, _ = run(
        capsys, "lame", "--family", "stable_neo_hookean", "--params", '{"mu": 1.0, "lam": 0.0}'
    )
    assert code == 0
    data = json.loads(out)
    assert data["E"] is None and data["nu"] is None
    assert data["moduli_error"] == "degenerate denominator lambda_lame + mu_lame = 0"
    assert (data["lambda_lame"], data["mu_lame"]) == (-1.0, 1.0)


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


@pytest.mark.parametrize(
    "moduli",
    [("--E", "nan", "--nu", "0.3"), ("--E", "1e6", "--nu", "nan"), ("--E=inf", "--nu=0.3"),
     # finite, but lambda_lame = E nu / ((1 + nu)(1 - 2 nu)) overflows
     ("--E", "1e308", "--nu", "0.49999")],
)
def test_normalize_rejects_non_finite_moduli(capsys, moduli):
    code, out, err = run(capsys, "normalize", "--family", "stable_neo_hookean", *moduli)
    assert code == 2 and out == "" and "must be finite" in err


def test_emit_refuses_a_number_that_is_not_finite(capsys):
    # the last guard of an exit-0 output; main maps the ValueError to exit 2
    with pytest.raises(ValueError):
        stretchlab.cli._emit({"E": float("inf")})
    assert capsys.readouterr().out == ""


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


def stretch_rows(capsys, tmp_path, *argv):
    out_path = tmp_path / "curve.csv"
    code, _, err = run(capsys, "stretch-test", *argv, "--out", str(out_path))
    lines = out_path.read_text().strip().splitlines() if out_path.exists() else []
    return code, err, [tuple(map(float, ln.split(","))) for ln in lines[1:]]


@pytest.mark.parametrize("n, dmin", [("2", "0.4"), ("4", "0.5")])
def test_compression_below_one_layer_converges(capsys, tmp_path, n, dmin):
    # defect 4(a): below d = 1 - 1/n, moving only the right face inverts
    # the last element layer, so the solve must start from a guess that
    # keeps every tet positively oriented
    code, err, rows = stretch_rows(
        capsys, tmp_path, "--family", "hencky", "--params", '{"mu": 1e5, "lam": 4e5}',
        "--n", n, "--dmin", dmin, "--dmax", "1.0", "--steps", "1",
    )
    assert code == 0, err
    assert len(rows) == 1 and rows[0][0] == float(dmin) and rows[0][1] < 0.0


def test_inverted_element_exit_code(capsys, tmp_path, monkeypatch):
    def inverted(*args, **kwargs):
        raise InvertedElementError(7, "stretches outside the domain")

    monkeypatch.setattr(stretchlab.fem.solver, "solve_quasistatic", inverted)
    code, err, rows = stretch_rows(
        capsys, tmp_path, "--family", "hencky", "--params", '{"mu": 1e5, "lam": 4e5}', "--n", "1",
        "--dmin", "0.9", "--dmax", "1.0", "--steps", "2",
    )
    assert code == 3 and rows == []
    assert (tmp_path / "curve.csv").read_text() == "distance,force\n"
    lines = err.strip().splitlines()
    assert len(lines) == 2
    for d, line in zip(("0.9", "1"), lines):
        assert re.search(rf"distance {d} .*element \d+", line)


def test_inverted_element_skips_one_distance_and_keeps_the_others(capsys, tmp_path, monkeypatch):
    solve = stretchlab.fem.solver.solve_quasistatic

    def invert_at_1_1(mesh, model, bc, **kwargs):
        if np.isclose(bc.positions[:, 0].max(), 1.1):
            raise InvertedElementError(5, "stretches outside the domain")
        return solve(mesh, model, bc, **kwargs)

    monkeypatch.setattr(stretchlab.fem.solver, "solve_quasistatic", invert_at_1_1)
    code, err, rows = stretch_rows(
        capsys, tmp_path, "--family", "stable_neo_hookean", "--params",
        '{"mu": 1e5, "lam": 4e5}', "--n", "1", "--dmin", "1.0", "--dmax", "1.2",
        "--steps", "3",
    )
    assert code == 3
    assert [d for d, _ in rows] == [1.0, 1.2] and rows[1][1] > 0.0
    lines = err.strip().splitlines()
    assert len(lines) == 1 and re.search(r"distance 1.1 skipped: element 5\b", lines[0])


def test_near_incompressible_stretch_writes_every_row(capsys, tmp_path):
    # the near-incompressible probe: lam/mu = 1000 on cube n=2
    code, err, rows = stretch_rows(
        capsys, tmp_path, "--family", "stable_neo_hookean", "--params",
        '{"mu": 1e5, "lam": 1e8}', "--n", "2", "--dmin", "1.0", "--dmax", "1.2",
        "--steps", "2",
    )
    assert code == 0 and "warning" not in err
    assert [d for d, _ in rows] == [1.0, 1.2] and rows[1][1] > 0.0


def test_repeated_distances(capsys, tmp_path):
    # the path holds points that share a distance; no extrapolation over them
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err, rows = stretch_rows(
            capsys, tmp_path, "--family", "arap", "--n", "2", "--dmin", "1", "--dmax", "1",
            "--steps", "3",
        )
    assert code == 0 and "warning" not in err
    assert rows == [(1.0, 0.0)] * 3
    # a zero reaction is written as 0, not -0
    assert (tmp_path / "curve.csv").read_text().splitlines()[1:] == ["1,0"] * 3


def test_skipped_distance_exits_3_and_keeps_the_other_rows(capsys, tmp_path, monkeypatch):
    solve = stretchlab.fem.solver.solve_quasistatic
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ConvergenceError("no convergence after 100 iterations")
        return solve(*args, **kwargs)

    monkeypatch.setattr(stretchlab.fem.solver, "solve_quasistatic", fail_second)
    code, err, rows = stretch_rows(
        capsys, tmp_path, "--family", "stable_neo_hookean", "--params",
        '{"mu": 1e5, "lam": 4e5}', "--n", "1", "--dmin", "1.0", "--dmax", "1.2",
        "--steps", "3",
    )
    assert code == 3 and len(calls) == 3
    assert [d for d, _ in rows] == [1.0, 1.2] and rows[1][1] > 0.0
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "distance 1.1 skipped" in lines[0]


def count_bases(monkeypatch):
    """Patch ``ElementBasis.__init__`` to log the mesh of every basis built."""
    built = []
    init = ElementBasis.__init__

    def counting_init(self, mesh):
        built.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(ElementBasis, "__init__", counting_init)
    return built


def test_stretch_curve_builds_one_basis(monkeypatch):
    built = count_bases(monkeypatch)
    model = make_material("stable_neo_hookean", {"mu": 1e5, "lam": 4e5})
    rows, skipped = stretch_curve(model, 2, [0.9, 1.1, 1.2, 1.3])
    assert len(rows) == 4 and not skipped
    assert len(built) == 1


def test_modes_builds_one_basis(capsys, tmp_path, monkeypatch):
    built = count_bases(monkeypatch)
    spec = tmp_path / "b.json"
    spec.write_text(json.dumps(_BENCHMARK_B))
    code, _, err = run(capsys, "modes", "--spec-a", str(spec), "--spec-b", str(spec), "--n", "1")
    assert code == 0, err
    # two rest assemblies and two modal solves, all on one basis
    assert len(built) == 1


def test_stretch_test_slide(capsys, tmp_path):
    code, err, rows = stretch_rows(
        capsys, tmp_path, "--family", "stable_neo_hookean", "--params",
        '{"mu": 1e5, "lam": 4e5}', "--n", "2", "--dmin", "0.9", "--dmax", "1.2",
        "--steps", "4", "--slide",
    )
    assert code == 0 and "warning" not in err
    assert len(rows) == 4
    assert rows[0][1] < 0.0 < rows[2][1] < rows[3][1]


def test_initial_guess_extrapolates_or_scales():
    mesh = generate_mesh("cube", 2)
    rest = mesh.vertices
    center = int(np.argmin(np.linalg.norm(rest - 0.5, axis=1)))
    moved = rest.copy()
    moved[:, 0] *= 1.1
    moved[center] += 0.05

    def dets(x):
        return np.linalg.det(x[mesh.tets[:, 1:]] - x[mesh.tets[:, :1]])

    def scaled(x, factor):
        out = x.copy()
        out[:, 0] *= factor
        return out

    path = [(1.0, rest, None), (1.1, moved, None)]
    assert np.all(dets(moved) > 0.0)
    # a short step extrapolates the secant
    guess = _initial_guess(mesh.tets, path, 1.2)
    assert np.allclose(guess, moved + (moved - rest), rtol=0.0, atol=1e-15)
    # a long step would carry the centre vertex through a face: scale instead
    assert np.any(dets(moved + 20.0 * (moved - rest)) <= 0.0)
    assert np.array_equal(_initial_guess(mesh.tets, path, 3.1), scaled(moved, 3.1 / 1.1))
    # one point, or two at one distance, scale the last one
    assert np.array_equal(_initial_guess(mesh.tets, path[:1], 0.5), scaled(rest, 0.5))
    same = [(1.1, rest, None), (1.1, moved, None)]
    assert np.array_equal(_initial_guess(mesh.tets, same, 1.1), moved)
    # a tangent on only one of the two points leaves the secant
    one = [(1.0, rest, None), (1.1, moved, np.ones_like(rest))]
    assert np.array_equal(_initial_guess(mesh.tets, one, 1.2), guess)


def test_initial_guess_reproduces_a_cubic_path():
    # x(d) = X diag(d, 1, 1) + (d - 1)^3 V + (d - 1)^2 W: the Hermite predictor through two
    # points and their tangents is exact (worst 8.9e-16), the secant is not
    mesh = generate_mesh("cube", 2)
    rng = np.random.default_rng(3)
    V, W = 0.02 * rng.standard_normal((2, *mesh.vertices.shape))

    def x(d):
        out = mesh.vertices.copy()
        out[:, 0] *= d
        return out + (d - 1.0) ** 3 * V + (d - 1.0) ** 2 * W

    def dx(d):
        out = np.zeros_like(mesh.vertices)
        out[:, 0] = mesh.vertices[:, 0]
        return out + 3.0 * (d - 1.0) ** 2 * V + 2.0 * (d - 1.0) * W

    path = [(1.1, x(1.1), dx(1.1)), (1.2, x(1.2), dx(1.2))]
    for d in (1.25, 1.3, 1.15):
        guess = _initial_guess(mesh.tets, path, d)
        assert np.max(np.abs(guess - x(d))) <= 1e-14, d
    secant = [(p[0], p[1], None) for p in path]
    assert np.max(np.abs(_initial_guess(mesh.tets, secant, 1.3) - x(1.3))) > 1e-4


def test_slide_curve_takes_no_tangent(monkeypatch):
    # the rigid modes that slide leaves free make K_ff singular: the curve keeps the secant
    model = make_material("stable_neo_hookean", {"mu": 1e5, "lam": 4e5})
    distances = [0.9, 1.05, 1.2, 1.35, 1.5]
    want = stretch_curve(model, 2, distances, slide=True)
    monkeypatch.setattr(stretchlab.fem.solver, "_tangent", lambda *args: None)
    rows, skipped = stretch_curve(model, 2, distances, slide=True)
    assert rows == want[0] and len(rows) == len(distances) and not skipped


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


def test_stretch_test_rejects_an_infinite_distance(capsys, tmp_path):
    out = str(tmp_path / "x.csv")
    code, _, err = run(capsys, "stretch-test", "--family", "arap", "--dmax", "inf", "--out", out)
    assert code == 2 and "dmax < inf" in err


@pytest.mark.parametrize(
    "material, dmin, dmax, skipped",
    [
        # the filtered stretch 1.1^alpha overflows at alpha = 1e5, and 0.9^alpha is 0
        (("--family", "arap", "--alpha", "1e5"), "0.9", "1.1", "1.1"),
        # the secant guess towards d = 1e308 overflows
        (("--family", "linear_corotational", "--params", '{"mu": 1, "lam": 1}'), "0.5", "1e308",
         "1e\\+308"),
    ],
)
def test_stretch_test_skips_a_distance_whose_stress_is_not_finite(
    capsys, tmp_path, material, dmin, dmax, skipped
):
    code, err, rows = stretch_rows(
        capsys, tmp_path, *material, "--n", "1", "--dmin", dmin, "--dmax", dmax, "--steps", "2"
    )
    assert code == 3 and [d for d, _ in rows] == [float(dmin)]
    assert re.search(rf"distance {skipped} skipped: element \d+: .*: stress not finite", err)


def test_modes_rejects_a_stiffness_that_is_not_finite(capsys, tmp_path):
    # a finite stress Hessian at rest, 2e307, whose element stiffnesses overflow
    spec = tmp_path / "a.json"
    spec.write_text(json.dumps({"family": "hencky", "params": {"mu": 1e307, "lam": 1.0}}))
    code, out, err = run(capsys, "modes", "--spec-a", str(spec), "--spec-b", str(spec), "--n", "1")
    assert code == 2 and out == "" and "not positive definite" in err


def test_modes_puts_an_overflowing_rest_stress_hessian_out_of_domain(capsys, tmp_path):
    # H_ii = 2 mu + lam = 1.8e308 at rest is inf, so main's "out of domain" branch exits 3
    spec = tmp_path / "a.json"
    spec.write_text(json.dumps({"family": "hencky", "params": {"mu": 5e307, "lam": 8e307}}))
    code, out, err = run(capsys, "modes", "--spec-a", str(spec), "--spec-b", str(spec), "--n", "1")
    assert code == 3 and out == ""
    assert err == "out of domain: element 0: hencky: stress not finite\n"


# materials whose every coefficient is 0, so the rest stiffness is all zero
ZERO_SPECS = (
    {"family": "valanis_landel_new",
     "params": {"f": "scaled:0:stretch_well", "h": "scaled:0:log_sq"}},
    {"family": "valanis_landel_xu",
     "params": {"f": "scaled:0:stretch_well", "g": "scaled:0:stretch_well",
                "h": "scaled:0:log_sq"}},
)


@pytest.mark.parametrize("zero", ZERO_SPECS, ids=lambda spec: spec["family"])
def test_modes_rejects_an_all_zero_rest_stiffness(capsys, tmp_path, zero):
    # its band is empty; the band Cholesky then rejects the first pivot
    spec_a, spec_b = tmp_path / "a.json", tmp_path / "b.json"
    spec_a.write_text(json.dumps(zero))
    spec_b.write_text(json.dumps({"family": "arap"}))
    for a, b in ((spec_a, spec_b), (spec_b, spec_a)):
        code, out, err = run(capsys, "modes", "--spec-a", str(a), "--spec-b", str(b), "--n", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: rest stiffness on the free coordinates is not positive definite")


@pytest.mark.parametrize(
    "rows, missing",
    (
        ([], "expected 'vertices N'"),
        (["vertices 4", "0 0 0", "1 0 0"], "'vertices 4', but 2 rows follow"),
        (["vertices 4", "0 0 0", "1 0 0", "0 1 0", "0 0"], "vertices row 3 has 2 fields"),
        (["vertices 4", "0 0 0", "1 0 0", "0 1 0", "0 0 1"], "expected 'tets N'"),
        (["vertices x"], "'vertices' count: cannot read 'x' as int"),
        (["vertices 2", "0 0 0", "0 a 0"], "vertices row 1: cannot read 'a' as float"),
        (["vertices 1", "0 0 0", "tets 1", "0 0 0 b"], "tets row 0: cannot read 'b' as int"),
        (
            ["vertices 4", "0 0 0", "1 0 0", "0 nan 0", "0 0 1", "tets 1", "0 1 2 3"],
            "vertex 2 has a non-finite coordinate",
        ),
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


@pytest.mark.parametrize(
    "mu_part,message",
    (
        # an own Lame entry <= 0: mu_lame = 1 * (-2 - 1) / 2 = -1.5
        ({"family": "ogden", "params": {"terms": [[1.0, -2.0]]}}, "mu_lame must be positive"),
        # a nonzero other entry: lambda_lame = -4/3 (2 c1 + 5 c2) = -4
        ({"family": "mooney_rivlin", "params": {"c1": 1.0, "c2": 0.2}}, "not a pure mu-part"),
    ),
)
def test_modes_rejects_parts_off_the_unit_part_rule(capsys, tmp_path, mu_part, message):
    spec = tmp_path / "a.json"
    spec.write_text(
        json.dumps(
            {"combine": {"mu_part": mu_part, "lambda_part": "j_minus_1_sq", "E": 1.0, "nu": 0.3}}
        )
    )
    code, out, err = run(capsys, "modes", "--spec-a", str(spec), "--spec-b", str(spec), "--n", "1")
    assert code == 2 and out == "" and message in err


def test_modes_rejects_a_nan_modulus(capsys, tmp_path):
    # NaN is the token json writes for float("nan") and reads back
    spec = tmp_path / "a.json"
    spec.write_text(json.dumps({"combine": dict(_BENCHMARK_B["combine"], E=float("nan"))}))
    assert "NaN" in spec.read_text()
    code, out, err = run(capsys, "modes", "--spec-a", str(spec), "--spec-b", str(spec), "--n", "1")
    assert code == 2 and out == "" and "combine spec: E must be finite" in err


def test_modes_rejects_a_part_with_a_nan_extraction(capsys, tmp_path, monkeypatch):
    # the arap mu-part is rescaled into a "combination"; only its energy is NaN
    energy = MaterialModel.energy

    def nan_for_combinations(self, s):
        e = energy(self, s)
        return e * np.nan if self.family == "combination" else e

    monkeypatch.setattr(MaterialModel, "energy", nan_for_combinations)
    spec = tmp_path / "a.json"
    spec.write_text(
        json.dumps(
            {"combine": {"mu_part": {"family": "arap"}, "lambda_part": "j_minus_1_sq",
                         "E": 1.0, "nu": 0.3}}
        )
    )
    code, out, err = run(capsys, "modes", "--spec-a", str(spec), "--spec-b", str(spec), "--n", "1")
    assert code == 2 and out == "" and "mu-part extraction (nan, nan)" in err


# spec B of the benchmark's modes pair; spec A is Stable Neo-Hookean at the same moduli
_BENCHMARK_B = {"combine": {"mu_part": {"family": "st_venant_kirchhoff",
                                        "params": {"mu": 1.0, "lam": 1.0}},
                            "lambda_part": "j_minus_1_sq", "E": 1e5, "nu": 0.3, "alpha_mu": 2.0}}


# at (1e5, 0.3) the two stiffnesses are equal at n=2; the benchmark's draw
# for seed 12 leaves them a roundoff apart
@pytest.mark.parametrize(
    "E,nu,equal", [(1e5, 0.3, True), (162871.00614880075, 0.34467529428594246, False)]
)
def test_rel_frobenius_diff_matches_norm(E, nu, equal):
    mu = E / (2.0 * (1.0 + nu))
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    a = make_material("stable_neo_hookean", {"mu": mu, "lam": lam + mu})
    b = stretchlab.specs.build_material({"combine": dict(_BENCHMARK_B["combine"], E=E, nu=nu)})
    mesh = generate_mesh("beam", 2)
    Ka, Kb = (assemble(mesh, m).stiffness.data for m in (a, b))
    ref = np.linalg.norm(Ka - Kb) / np.linalg.norm(Ka)
    assert (ref == 0.0) == equal
    assert rel_frobenius_diff(Ka, Kb) == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert rel_frobenius_diff(Ka, Ka.copy()) == 0.0
    # a zero ||a|| divides by 1
    assert rel_frobenius_diff(np.zeros_like(Ka), Kb) == pytest.approx(np.linalg.norm(Kb), rel=1e-14)
    assert rel_frobenius_diff(np.zeros_like(Ka), np.zeros_like(Kb)) == 0.0


def test_modes_takes_no_vector_norm_from_numpy_blas(capsys, tmp_path, monkeypatch):
    # on the ~100k block values of a large mesh these threaded ddots would
    # wake numpy's BLAS pool while scipy's own factors the band
    def no_blas(*args, **kwargs):
        raise AssertionError("a numpy BLAS vector product on the modes path")

    spec = tmp_path / "b.json"
    spec.write_text(json.dumps(_BENCHMARK_B))
    for name in ("norm", "vdot", "dot"):
        module = np.linalg if name == "norm" else np
        monkeypatch.setattr(module, name, no_blas)
    code, out, err = run(capsys, "modes", "--spec-a", str(spec), "--spec-b", str(spec), "--n", "1")
    assert code == 0, err
    assert json.loads(out)["stiffness_rel_frobenius_diff"] == 0.0


def keep_zeros_linear_combination(terms):
    """Oracle: ``compose.LinearCombination`` that keeps entries with coefficient 0."""
    terms = [(float(c), m) for c, m in terms]
    positive = any(m.domain == "positive" for _, m in terms)
    return MaterialModel(
        "combination",
        {},
        "positive" if positive else "unrestricted",
        [(c * k, alpha, term) for c, m in terms for k, alpha, term in m.terms],
        sum(abs(c) * m.modulus_scale for c, m in terms) or 1.0,
    )


def test_modes_report_unchanged_by_dropping_zero_entries(capsys, tmp_path, monkeypatch):
    # the benchmark's modes pair: SVK mu-part at alpha_mu = 2, whose
    # decomposition carries five zero entries when they are kept
    mu, lam = 38461.538461538454, 57692.30769230769
    spec_a = tmp_path / "a.json"
    spec_a.write_text(
        json.dumps({"family": "stable_neo_hookean", "params": {"mu": mu, "lam": lam + mu}})
    )
    spec_b = tmp_path / "b.json"
    spec_b.write_text(json.dumps(_BENCHMARK_B))
    argv = ("modes", "--spec-a", str(spec_a), "--spec-b", str(spec_b), "--n", "2", "--k", "6")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    with monkeypatch.context() as patch:
        patch.setattr(stretchlab.compose, "LinearCombination", keep_zeros_linear_combination)
        zeros_kept = stretchlab.specs.build_material(json.loads(spec_b.read_text()))
        ref_code, ref_out, _ = run(capsys, *argv)
    assert len(zeros_kept.terms) == 7
    assert len(stretchlab.specs.build_material(json.loads(spec_b.read_text())).terms) == 2
    assert ref_code == 0 and json.loads(out) == json.loads(ref_out)


def zero_well_volumetric_part(kind="j_minus_1_sq"):
    """Oracle: the lambda-part as the Valanis-Landel sum f(l_i) + h(J) with f = 0."""
    h = "j_minus_1_sq" if kind == "j_minus_1_sq" else "log_sq"
    model = make_material("valanis_landel_new", {"f": "scaled:0:stretch_well", "h": h})
    return stretchlab.compose.EnergyPart("lambda", model)


@pytest.mark.parametrize("kind", ["j_minus_1_sq", "log_j_sq"])
def test_modes_unchanged_by_dropping_the_zero_volumetric_entry(capsys, tmp_path, monkeypatch,
                                                               kind):
    spec_a = tmp_path / "a.json"
    spec_a.write_text(json.dumps({"family": "stable_neo_hookean",
                                  "params": {"mu": 38461.5, "lam": 96153.8}}))
    spec = {"combine": {"mu_part": {"family": "st_venant_kirchhoff",
                                    "params": {"mu": 1.0, "lam": 1.0}},
                        "lambda_part": kind, "E": 1e5, "nu": 0.3, "alpha_mu": 2.0,
                        "alpha_lambda": 1.5}}
    spec_b = tmp_path / "b.json"
    spec_b.write_text(json.dumps(spec))
    argv = ("modes", "--spec-a", str(spec_a), "--spec-b", str(spec_b), "--n", "2", "--k", "6")
    code, out, _ = run(capsys, *argv)
    with monkeypatch.context() as patch:
        patch.setattr(stretchlab.specs, "volumetric_part", zero_well_volumetric_part)
        old = stretchlab.specs.build_material(spec)
        ref_code, ref_out, _ = run(capsys, *argv)
    new = stretchlab.specs.build_material(spec)
    assert len(old.terms) == len(new.terms) + 1
    assert code == ref_code == 0 and out == ref_out
    mesh = generate_mesh("beam", 2)
    K_new, K_old = (assemble(mesh, m).stiffness.data for m in (new, old))
    assert K_new.tobytes() == K_old.tobytes()


def test_stretch_test_rejects_zero_steps(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    code, _, err = run(
        capsys, "stretch-test", "--family", "arap", "--n", "2", "--steps", "0",
        "--out", str(out_path),
    )
    assert code == 2 and "steps" in err
    assert not out_path.exists()


def test_stretch_test_rejects_zero_resolution_before_opening_out(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    code, _, err = run(capsys, "stretch-test", "--family", "arap", "--n", "0",
                       "--out", str(out_path))
    assert code == 2 and "n >= 1" in err
    assert not out_path.exists()


def test_stretch_test_opens_out_before_the_first_solve(capsys, tmp_path, monkeypatch):
    # an output path that cannot be written fails before any work is done
    def no_solve(*args, **kwargs):
        raise AssertionError("stretch_curve ran before --out was opened")

    monkeypatch.setattr(stretchlab.cli, "stretch_curve", no_solve)
    code, _, err = run(capsys, "stretch-test", "--family", "arap", "--out", str(tmp_path))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("seed", [*range(20), 97, 176, 180, 497])
def test_verify_table_seeds_pass(seed):
    ok, report = verify_table(seed=seed)
    assert ok, {f: e for f, e in report.items() if not e["pass"]}


def two_call_verify_table(seed):
    """Oracle: verify_table with one fd extraction and one symmetry call per draw.

    Its settings are verify_table's: 10 draws, 3 triples per draw, 1e-5 closure bound.
    """
    permutations = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    rng = np.random.default_rng(seed)
    report = {}
    ok = True
    for family in catalog_families():
        closure_err = 0.0
        stable = True
        sym_err = 0.0
        for _ in range(10):
            model = make_material(family, sample_params(family, rng))
            closed = model.lame_closed_form()
            fd = extract_lame(model, method="fd", allow_rest_stress=True)
            scale = max(abs(closed[0]), abs(closed[1]), 1e-30)
            closure_err = max(
                closure_err,
                max(abs(fd.lambda_lame - closed[0]), abs(fd.mu_lame - closed[1])) / scale,
            )
            s = rng.uniform(0.5, 2.0, size=(3, 3))
            e = model.energy(s[:, permutations])
            ref = np.maximum(np.abs(e[:, :1]), 1e-30 * max(1.0, model.modulus_scale))
            sym_err = max(sym_err, float(np.max(np.abs(e[:, 1:] - e[:, :1]) / ref)))
            stable_model = make_material(family, sample_params(family, rng, rest_stable=True))
            stable = stable and stable_model.rest_stable
        entry = {
            "lame_closure_max_rel_err": closure_err,
            "lame_closure_pass": bool(closure_err <= 1e-5),
            "rest_stable_in_stable_region": bool(stable),
            "permutation_symmetry_max_rel_err": sym_err,
            "permutation_symmetry_pass": bool(sym_err <= 1e-12),
        }
        entry["pass"] = bool(
            entry["lame_closure_pass"]
            and entry["rest_stable_in_stable_region"]
            and entry["permutation_symmetry_pass"]
        )
        ok = ok and entry["pass"]
        report[family] = entry
    return ok, report


@pytest.mark.parametrize("seed", [*range(60), 97, 176, 180, 497, 812])
def test_verify_table_matches_two_call_oracle(seed):
    assert verify_table(seed=seed) == two_call_verify_table(seed=seed)


def test_verify_table_evaluates_once_per_term_structure(monkeypatch):
    # one energy call per (family, term structure) of the closure draws and
    # one rest-gradient call per (family, term structure) of the rest-stable
    # draws; the structures come from replaying the draws of seed 5
    rng = np.random.default_rng(5)
    want = []
    for family in catalog_families():
        structures = ({}, {})
        for _ in range(10):
            model = make_material(family, sample_params(family, rng))
            structures[0][tuple((alpha, term) for _, alpha, term in model.terms)] = None
            rng.uniform(0.5, 2.0, size=(3, 3))
            model = make_material(family, sample_params(family, rng, rest_stable=True))
            structures[1][tuple((alpha, term) for _, alpha, term in model.terms)] = None
        want += [(family, order) for order in (0, 1) for _ in structures[order]]
    calls = []
    evaluate = MaterialModel._evaluate

    def counting(self, s, order):
        calls.append((self.family, order))
        return evaluate(self, s, order)

    monkeypatch.setattr(MaterialModel, "_evaluate", counting)
    verify_table(seed=5)
    assert sorted(calls) == sorted(want)
    # families whose draws differ only in their coefficients make one call each
    for family in ("hencky", "neo_hookean", "mooney_rivlin", "symmetric_arap"):
        assert calls.count((family, 0)) == calls.count((family, 1)) == 1
    # at most a third of the 190 + 190 evaluations of one call per draw
    assert max(sum(o == order for _, o in calls) for order in (0, 1)) <= 190 // 3


def test_verify_table_seed_176_mooney_rivlin_symmetry():
    # the energy sorts each triple, so summation order cannot break symmetry
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


def test_verify_table_fails_a_nan_energy(capsys, monkeypatch):
    energy = MaterialModel.energy

    def nan_for_hencky(self, s):
        e = energy(self, s)
        return e * np.nan if self.family == "hencky" else e

    monkeypatch.setattr(MaterialModel, "energy", nan_for_hencky)
    ok, report = verify_table(seed=3)
    assert not ok and not report["hencky"]["pass"]
    assert not report["hencky"]["lame_closure_pass"]
    assert not report["hencky"]["permutation_symmetry_pass"]
    assert all(entry["pass"] for family, entry in report.items() if family != "hencky")
    code, out, _ = run(capsys, "verify-table", "--seed", "3")
    assert code == 4 and not json.loads(out)["families"]["hencky"]["pass"]


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is imported lazily by modal_frequencies alone; a module-level
    # import would raise start-up time and memory of every command, and the
    # block-sparse stiffness must not pull it into the Newton solve
    src = Path(stretchlab.__file__).resolve().parents[1]
    scipy_modules = "sorted(m for m in sys.modules if m.startswith('scipy'))"
    argv = ["stretch-test", "--family", "arap", "--n", "1", "--dmin", "1.0", "--dmax", "1.1",
            "--steps", "2", "--out", str(tmp_path / "curve.csv")]
    probe = (
        f"import sys, stretchlab.cli; print({scipy_modules}); "
        f"code = stretchlab.cli.main({argv!r}); print(code, {scipy_modules})"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    lines = out.splitlines()
    assert lines[0] == "[]" and lines[-1] == "0 []"


def test_modes_builds_no_dense_stiffness(tmp_path):
    # the traced peak of the whole command stays below one dense float64 K
    # (13.0 MB on beam n=4)
    import scipy.sparse.linalg  # noqa: F401  imported before tracing starts

    spec = tmp_path / "a.json"
    spec.write_text(json.dumps({"family": "stable_neo_hookean",
                                "params": {"mu": 1.0e5, "lam": 4.0e5}}))
    dense_bytes = (3 * generate_mesh("beam", 4).num_vertices) ** 2 * 8
    tracemalloc.start()
    try:
        code = main(["modes", "--spec-a", str(spec), "--spec-b", str(spec), "--n", "4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < dense_bytes
