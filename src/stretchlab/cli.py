"""Command-line surface.

Commands
--------
lame          extract (lambda_lame, mu_lame, E, nu) from a material spec
normalize     solve a family's parameters for target (E, nu)
stretch-test  unit-cube pull-apart experiment, CSV force curve
modes         compare rest stiffness and modal frequencies of two specs
verify-table  closed-form vs finite-difference Lame check for the catalog
genmesh       write a generated cube/beam mesh file

Exit codes: 0 success, 2 validation error or any other library error,
3 convergence failure or an inverted element, 4 verification failure.
"""

import argparse
import json
import sys

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidParameterError,
    InvertedElementError,
    StretchlabError,
)
from .lame import (
    IsotropicModuli,
    extract_lame,
    lame_to_moduli,
    moduli_to_lame,
    normalize,
)
from .materials import catalog_families, make_material, sample_params
from .specs import build_material
from .fem import (
    BoundaryCondition,
    assemble,
    generate_mesh,
    modal_frequencies,
    read_mesh,
    reaction_force,
    solve_quasistatic,
    write_mesh,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFICATION = 4

# malformed command-line input: bad JSON or numbers, missing keys or files
_INPUT_ERRORS = (ValueError, KeyError, FileNotFoundError)


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_spec(args):
    if args.spec:
        with open(args.spec) as fh:
            spec = json.load(fh)
    elif args.family:
        spec = {"family": args.family}
        if args.params:
            spec["params"] = json.loads(args.params)
    else:
        raise InvalidParameterError("provide --spec <file> or --family [--params]")
    if getattr(args, "alpha", None) is not None:
        spec["alpha"] = args.alpha
    return build_material(spec)


# ---------------------------------------------------------------------------


def cmd_lame(args):
    model = _load_spec(args)
    analytic = extract_lame(model, method="analytic")
    fd = extract_lame(model, method="fd")
    chosen = fd if args.fd else analytic
    scale = max(abs(analytic.lambda_lame), abs(analytic.mu_lame), 1e-30)
    agreement = max(
        abs(analytic.lambda_lame - fd.lambda_lame), abs(analytic.mu_lame - fd.mu_lame)
    ) / scale
    out = {
        "lambda_lame": chosen.lambda_lame,
        "mu_lame": chosen.mu_lame,
        "method_agreement": agreement,
    }
    try:
        moduli = lame_to_moduli(chosen)
        out["E"] = moduli.E
        out["nu"] = moduli.nu
    except InvalidParameterError as err:
        out["E"] = None
        out["nu"] = None
        out["moduli_error"] = str(err)
    _emit(out)
    return EXIT_OK


def cmd_normalize(args):
    target = moduli_to_lame(IsotropicModuli(args.E, args.nu))
    baseline = json.loads(args.params) if args.params else None
    params = normalize(args.family, target, baseline=baseline)
    _emit(
        {
            "family": args.family,
            "params": params,
            "lambda_lame": target.lambda_lame,
            "mu_lame": target.mu_lame,
        }
    )
    return EXIT_OK


def _face_vertices(mesh, axis, value, tol=1e-9):
    return np.nonzero(np.abs(mesh.vertices[:, axis] - value) < tol)[0]


def stretch_curve(model, n, d_min, d_max, steps, slide=False, solve_config=None):
    """Pull a unit cube apart along x; signed tension force per distance.

    Both x-faces are clamped (all coordinates unless ``slide``); the left
    face stays at x = 0 and the right face is prescribed at x = d. The
    returned force is the x-reaction on the right face, positive in
    tension. Distances whose solve fails are skipped with a warning.
    """
    mesh = generate_mesh("cube", n, size=1.0)
    left = _face_vertices(mesh, 0, 0.0)
    right = _face_vertices(mesh, 0, 1.0)
    verts = np.concatenate([left, right])
    rows = []
    warm = None
    for d in np.linspace(d_min, d_max, steps):
        pos = mesh.vertices[verts].copy()
        pos[len(left):, 0] += d - 1.0
        coords = None
        if slide:
            coords = np.zeros((len(verts), 3), dtype=bool)
            coords[:, 0] = True
        bc = BoundaryCondition(vertices=verts, positions=pos, coords=coords)
        try:
            result = solve_quasistatic(mesh, model, bc, config=solve_config, x0=warm)
        except ConvergenceError as err:
            print(f"warning: no convergence at distance {d:g}: {err}", file=sys.stderr)
            continue
        warm = result.positions
        reaction = -reaction_force(result, right)
        rows.append((float(d), float(reaction[0])))
    return rows


def cmd_stretch_test(args):
    model = _load_spec(args)
    if not 0.0 < args.dmin <= 1.0 <= args.dmax:
        raise InvalidParameterError("require 0 < dmin <= 1 <= dmax")
    if args.steps < 1:
        raise InvalidParameterError(f"require steps >= 1, got {args.steps}")
    rows = stretch_curve(model, args.n, args.dmin, args.dmax, args.steps, slide=args.slide)
    with open(args.out, "w") as fh:
        fh.write("distance,force\n")
        for d, f in rows:
            fh.write(f"{d:.17g},{f:.17g}\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_modes(args):
    with open(args.spec_a) as fh:
        model_a = build_material(json.load(fh))
    with open(args.spec_b) as fh:
        model_b = build_material(json.load(fh))
    mesh = read_mesh(args.mesh) if args.mesh else generate_mesh("beam", args.n)
    clamped = _face_vertices(mesh, 0, float(mesh.vertices[:, 0].min()), tol=1e-9)
    bc = BoundaryCondition(vertices=clamped, positions=mesh.vertices[clamped])

    Ka = assemble(mesh, model_a).stiffness
    Kb = assemble(mesh, model_b).stiffness
    denom = np.linalg.norm(Ka) or 1.0
    kdiff = float(np.linalg.norm(Ka - Kb) / denom)
    out = {
        "stiffness_rel_frobenius_diff": kdiff,
        "frequencies_a_hz": list(modal_frequencies(mesh, model_a, bc, args.k)),
        "frequencies_b_hz": list(modal_frequencies(mesh, model_b, bc, args.k)),
    }
    _emit(out)
    return EXIT_OK


# the identity first, then the five other orderings of a triple
_PERMUTATIONS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def verify_table(seed=0, draws=10, lame_rtol=1e-5, triples=20):
    """Per-family verification report.

    Checks finite-difference Lame extraction against the closed forms on
    random valid parameter draws, rest stability on rest-stable-region
    draws, and permutation symmetry of the energy. Each draw's triples
    are evaluated under all six orderings in one stacked energy call.
    """
    rng = np.random.default_rng(seed)
    report = {}
    ok = True
    for family in catalog_families():
        closure_err = 0.0
        stable = True
        sym_err = 0.0
        for _ in range(draws):
            model = make_material(family, sample_params(family, rng))
            closed = model.lame_closed_form()
            fd = extract_lame(model, method="fd", allow_rest_stress=True)
            scale = max(abs(closed[0]), abs(closed[1]), 1e-30)
            closure_err = max(
                closure_err,
                max(abs(fd.lambda_lame - closed[0]), abs(fd.mu_lame - closed[1])) / scale,
            )
            s = rng.uniform(0.5, 2.0, size=(triples // draws + 1, 3))
            e = model.energy(s[:, _PERMUTATIONS])
            ref = np.maximum(np.abs(e[:, :1]), 1e-30 * max(1.0, model.modulus_scale))
            sym_err = max(sym_err, float(np.max(np.abs(e[:, 1:] - e[:, :1]) / ref)))
            stable_model = make_material(family, sample_params(family, rng, rest_stable=True))
            stable = stable and stable_model.rest_stable
        entry = {
            "lame_closure_max_rel_err": closure_err,
            "lame_closure_pass": bool(closure_err <= lame_rtol),
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


def cmd_verify_table(args):
    ok, report = verify_table(seed=args.seed)
    _emit({"pass": ok, "families": report})
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_genmesh(args):
    mesh = generate_mesh(args.kind, args.n, size=args.size)
    write_mesh(mesh, args.out)
    print(f"wrote {mesh.num_vertices} vertices, {mesh.num_tets} tets to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_spec_flags(p, alpha=True):
    p.add_argument("--spec", help="material spec JSON file")
    p.add_argument("--family", help="catalog family identifier")
    p.add_argument("--params", help="inline JSON parameter record")
    if alpha:
        p.add_argument("--alpha", type=float, help="nonlinearity exponent")


def build_parser():
    parser = argparse.ArgumentParser(prog="stretchlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lame", help="extract Lame parameters and moduli")
    _add_spec_flags(p)
    p.add_argument("--fd", action="store_true", help="report the fd extraction")
    p.set_defaults(func=cmd_lame)

    p = sub.add_parser("normalize", help="invert a family's parameter map")
    p.add_argument("--family", required=True)
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--params", help="baseline JSON record for held parameters")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("stretch-test", help="unit-cube pull-apart force curve")
    _add_spec_flags(p)
    p.add_argument("--n", type=int, default=4, help="cube resolution")
    p.add_argument("--dmin", type=float, default=1.0)
    p.add_argument("--dmax", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument(
        "--slide",
        action="store_true",
        help="constrain only the pull axis on the clamped faces",
    )
    p.set_defaults(func=cmd_stretch_test)

    p = sub.add_parser("modes", help="stiffness and modal comparison of two specs")
    p.add_argument("--spec-a", required=True)
    p.add_argument("--spec-b", required=True)
    p.add_argument("--mesh", help="tetmesh file; default generated beam")
    p.add_argument("--n", type=int, default=2, help="beam resolution when no mesh file")
    p.add_argument("--k", type=int, default=6)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("verify-table", help="fd-vs-closed-form catalog check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_table)

    p = sub.add_parser("genmesh", help="write a generated mesh file")
    p.add_argument("--kind", choices=("cube", "beam"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_genmesh)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, InvertedElementError) as err:
        print(f"convergence failure: {err}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (StretchlabError, *_INPUT_ERRORS) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
