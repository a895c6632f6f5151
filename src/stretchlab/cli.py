"""Command-line surface.

Commands
--------
lame          extract (lambda_lame, mu_lame, E, nu) from a material spec
normalize     solve a family's parameters for target (E, nu)
stretch-test  unit-cube pull-apart experiment, CSV force curve
modes         compare rest stiffness and modal frequencies of two specs
verify-table  closed-form vs finite-difference Lame check for the catalog
genmesh       write a generated cube/beam mesh file

Exit codes: 0 success, 2 validation error (an unusable path, too) or any
other library error, 3 convergence failure (a stretch-test distance
skipped, too) or an element out of domain, 4 verification failure.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import ConvergenceError, InvalidParameterError, InvertedElementError, StretchlabError
from .lame import IsotropicModuli, extract_lame, lame_to_moduli, moduli_to_lame, normalize
from .lame import verify_table
from .specs import build_material
from .fem import BoundaryCondition, assemble, face_vertices, generate_mesh, modal_frequencies
from .fem import read_mesh, rel_frobenius_diff, stretch_curve, write_mesh

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFICATION = 4

# malformed command-line input: bad JSON or numbers, missing keys, unusable paths
_INPUT_ERRORS = (ValueError, KeyError, OSError)


def _emit(obj):
    # the last guard of a finite exit-0 output: a NaN or infinity raises ValueError, exit 2
    print(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))


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
    if args.alpha is not None:
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
    bad = [key for key, value in out.items() if not math.isfinite(value)]
    if bad:
        raise InvalidParameterError(f"{model.family}: {', '.join(bad)} not finite: {out}")
    try:
        moduli = lame_to_moduli(chosen)
        out["E"], out["nu"] = moduli.E, moduli.nu
    except InvalidParameterError as err:
        if chosen.mu_lame > 0.0 and chosen.lambda_lame + chosen.mu_lame != 0.0:
            raise  # E and nu exist, but overflow a float
        out.update(E=None, nu=None, moduli_error=str(err))
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


def cmd_stretch_test(args):
    model = _load_spec(args)
    if not 0.0 < args.dmin <= 1.0 <= args.dmax < math.inf:
        raise InvalidParameterError("require 0 < dmin <= 1 <= dmax < inf")
    if args.steps < 1:
        raise InvalidParameterError(f"require steps >= 1, got {args.steps}")
    distances = np.linspace(args.dmin, args.dmax, args.steps)
    rows, skipped = stretch_curve(model, args.n, distances, slide=args.slide)
    with open(args.out, "w") as fh:
        fh.write("distance,force\n")
        for d, f in rows:
            fh.write(f"{d:.17g},{f:.17g}\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    for d, err in skipped:
        print(f"convergence failure: distance {d:g} skipped: {err}", file=sys.stderr)
    return EXIT_CONVERGENCE if skipped else EXIT_OK


def cmd_modes(args):
    """Rest stiffness and modal frequencies of two specs on one mesh."""
    with open(args.spec_a) as fh:
        model_a = build_material(json.load(fh))
    with open(args.spec_b) as fh:
        model_b = build_material(json.load(fh))
    mesh = read_mesh(args.mesh) if args.mesh else generate_mesh("beam", args.n)
    clamped = face_vertices(mesh, 0, float(mesh.vertices[:, 0].min()))
    bc = BoundaryCondition(vertices=clamped, positions=mesh.vertices[clamped])

    # one mesh, so both stiffnesses share the block pattern of its basis
    Ka = assemble(mesh, model_a).stiffness.data
    Kb = assemble(mesh, model_b).stiffness.data
    out = {  # the modal solves first: they reject a stiffness that is not finite
        "frequencies_a_hz": list(modal_frequencies(mesh, model_a, bc, args.k)),
        "frequencies_b_hz": list(modal_frequencies(mesh, model_b, bc, args.k)),
        "stiffness_rel_frobenius_diff": rel_frobenius_diff(Ka, Kb),
    }
    _emit(out)
    return EXIT_OK


def cmd_verify_table(args):
    ok, report = verify_table(seed=args.seed)
    # not _emit: a failing family may report a NaN error, and exits 4
    print(json.dumps({"pass": ok, "families": report}, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_genmesh(args):
    mesh = generate_mesh(args.kind, args.n, size=args.size)
    write_mesh(mesh, args.out)
    print(f"wrote {mesh.num_vertices} vertices, {mesh.num_tets} tets to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_spec_flags(p):
    p.add_argument("--spec", help="material spec JSON file")
    p.add_argument("--family", help="catalog family identifier")
    p.add_argument("--params", help="inline JSON parameter record")
    p.add_argument("--alpha", type=float, help="nonlinearity exponent")


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every ``main``."""
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
    except ConvergenceError as err:
        print(f"convergence failure: {err}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except InvertedElementError as err:
        print(f"out of domain: {err}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (StretchlabError, *_INPUT_ERRORS) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
