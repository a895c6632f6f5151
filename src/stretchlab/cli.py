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
3 convergence failure (a stretch-test distance skipped, too) or an
inverted element, 4 verification failure.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidParameterError,
    InvertedElementError,
    StretchlabError,
)
from .lame import (
    FD_REST_POINTS,
    FD_REST_WEIGHTS,
    IsotropicModuli,
    extract_lame,
    lame_from_hessian,
    lame_to_moduli,
    moduli_to_lame,
    normalize,
)
from .materials import catalog_families, make_material, sample_params, stack
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


_FACE_TOL = 1e-9  # m, the largest distance of a face vertex from its plane


def _face_vertices(mesh, axis, value):
    return np.nonzero(np.abs(mesh.vertices[:, axis] - value) < _FACE_TOL)[0]


def _initial_guess(tets, path, d):
    """Start of the solve at distance ``d`` from the converged ``path``.

    The secant predictor extrapolates the last two converged points
    linearly in the distance. With a single point, two points at one
    distance, or an extrapolation that gives any tet a non-positive
    edge-matrix determinant, the last point is scaled along x by
    d / d_prev instead, a map that inverts no element.
    """
    d1, x1 = path[-1]
    if len(path) > 1 and path[-2][0] != d1:
        d0, x0 = path[-2]
        guess = x1 + (d - d1) / (d1 - d0) * (x1 - x0)
        edges = guess[tets[:, 1:]] - guess[tets[:, :1]]
        if np.all(np.linalg.det(edges) > 0.0):
            return guess
    guess = x1.copy()
    guess[:, 0] *= d / d1
    return guess


def stretch_curve(model, n, distances, slide=False):
    """Pull a unit cube apart along x; signed tension force per distance.

    Both x-faces are clamped (all coordinates unless ``slide``); the left
    face stays at x = 0 and the right face is prescribed at x = d for
    each d of ``distances``, in order. Each solve starts from a
    continuation predictor over the converged path, which begins at the
    rest shape (d = 1), and all solves share the mesh's one ``basis``.

    Returns ``(rows, skipped)``: rows are (d, force) for the distances
    that converged, the force the x-reaction on the right face, positive
    in tension; skipped are (d, error) for those that did not, the error a
    ConvergenceError or the InvertedElementError that stopped the solve.
    """
    mesh = generate_mesh("cube", n, size=1.0)
    left = _face_vertices(mesh, 0, 0.0)
    right = _face_vertices(mesh, 0, 1.0)
    verts = np.concatenate([left, right])
    coords = None
    if slide:
        coords = np.zeros((len(verts), 3), dtype=bool)
        coords[:, 0] = True
    rows, skipped = [], []
    path = [(1.0, mesh.vertices)]
    for d in distances:
        d = float(d)
        pos = mesh.vertices[verts].copy()
        pos[len(left):, 0] += d - 1.0
        bc = BoundaryCondition(vertices=verts, positions=pos, coords=coords)
        x0 = _initial_guess(mesh.tets, path, d)
        try:
            result = solve_quasistatic(mesh, model, bc, x0=x0)
        except (ConvergenceError, InvertedElementError) as err:
            skipped.append((d, err))
            continue
        path = [path[-1], (d, result.positions)]
        # 0.0 - f rather than -f, so that a zero reaction is 0, not -0
        rows.append((d, 0.0 - float(reaction_force(result, right)[0])))
    return rows, skipped


def cmd_stretch_test(args):
    model = _load_spec(args)
    if not 0.0 < args.dmin <= 1.0 <= args.dmax:
        raise InvalidParameterError("require 0 < dmin <= 1 <= dmax")
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


def rel_frobenius_diff(a, b):
    """||a - b|| / ||a|| in the Frobenius norm, with 1 in place of a zero ||a||.

    The squares are summed by ``np.sum``, pairwise in numpy's own loops,
    not by ``np.linalg.norm``, ``np.dot``, ``np.vdot`` or ``@`` on
    vectors: those are OpenBLAS ``ddot`` calls, which thread above 10,000
    values and leave numpy's BLAS threads spinning (see ``cmd_modes``).
    """
    a = np.ravel(a)
    d = a - np.ravel(b)
    return math.sqrt(np.sum(d * d)) / (math.sqrt(np.sum(a * a)) or 1.0)


def cmd_modes(args):
    """Rest stiffness and modal frequencies of two specs on one mesh.

    numpy and scipy each load their own OpenBLAS with its own thread
    pool, and a pool that has threaded a call keeps its threads spinning
    for a while after it. ``modes`` makes no numpy BLAS call large enough
    to thread, so scipy's band Cholesky ``dpbtrf`` in
    ``modal_frequencies`` has the cores to itself. The numpy BLAS calls
    of the CLI workloads are:

    - the dense Newton ``np.linalg.solve`` of ``stretch-test``, which is
      needed and threads;
    - ``svd``, ``eigh``, ``inv`` and ``det`` on stacks of 3x3 matrices,
      the 2x2 solves of ``compose`` and the batched element products of
      ``assemble``, none of which threads.
    """
    with open(args.spec_a) as fh:
        model_a = build_material(json.load(fh))
    with open(args.spec_b) as fh:
        model_b = build_material(json.load(fh))
    mesh = read_mesh(args.mesh) if args.mesh else generate_mesh("beam", args.n)
    clamped = _face_vertices(mesh, 0, float(mesh.vertices[:, 0].min()))
    bc = BoundaryCondition(vertices=clamped, positions=mesh.vertices[clamped])

    # one mesh, so both stiffnesses share the block pattern of its basis
    Ka = assemble(mesh, model_a).stiffness.data
    Kb = assemble(mesh, model_b).stiffness.data
    out = {
        "stiffness_rel_frobenius_diff": rel_frobenius_diff(Ka, Kb),
        "frequencies_a_hz": list(modal_frequencies(mesh, model_a, bc, args.k)),
        "frequencies_b_hz": list(modal_frequencies(mesh, model_b, bc, args.k)),
    }
    _emit(out)
    return EXIT_OK


# the identity first, then the five other orderings of a triple
_PERMUTATIONS = np.array([(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
_STENCIL = len(FD_REST_POINTS)
# per family: parameter draws, stretch triples per draw, fd Lame closure bound
_DRAWS, _PER_DRAW, _LAME_RTOL = 10, 3, 1e-5


def verify_table(seed=0):
    """Per-family verification report.

    Checks finite-difference Lame extraction against the closed forms
    (``_LAME_RTOL`` relative) on ``_DRAWS`` random valid parameter draws,
    rest stability on as many rest-stable-region draws, and permutation
    symmetry of the energy on ``_PER_DRAW`` triples per draw. Each
    family's draws are made first, in rng-stream order, then evaluated.
    Draws that share a term structure differ only in their coefficients,
    so ``materials.stack`` makes each such group one model with
    coefficient columns: one energy call per group on the fd rest stencil
    followed by each draw's triples under all six orderings, and one
    rest-gradient call per group of rest-stable draws. A group of one
    takes the same path. The closure and symmetry errors of all families
    are then one array expression each. The reports equal those of per-draw
    evaluation to the last bit.
    """
    rng = np.random.default_rng(seed)
    families = catalog_families()
    points = np.empty((_DRAWS, _STENCIL + 6 * _PER_DRAW, 3))
    points[:, :_STENCIL] = FD_REST_POINTS
    e = np.empty((len(families), _DRAWS, points.shape[1]))
    closed = np.empty((len(families), _DRAWS, 2))
    floor = np.empty((len(families), _DRAWS))
    stable = []
    for f, family in enumerate(families):
        models, stable_models, stretches = [], [], []
        for _ in range(_DRAWS):
            models.append(make_material(family, sample_params(family, rng)))
            # uniform on [0.5, 2) below, as rng.uniform draws it: 0.5 + 1.5 u
            stretches.append(rng.random((_PER_DRAW, 3)))
            stable_params = sample_params(family, rng, rest_stable=True)
            stable_models.append(make_material(family, stable_params))
        stretches = 0.5 + 1.5 * np.array(stretches)
        points[:, _STENCIL:] = stretches[:, :, _PERMUTATIONS].reshape(_DRAWS, -1, 3)
        for idx, group in stack(models):
            e[f, idx] = group.energy(points[idx])
        closed[f] = [model.lame_closed_form() for model in models]
        floor[f] = [1e-30 * max(1.0, model.modulus_scale) for model in models]
        stable.append(all(group.rest_stable.all() for _, group in stack(stable_models)))
    # the fd pair per draw: a stacked product may round differently
    rows = e.reshape(-1, e.shape[-1])
    pairs = [lame_from_hessian(FD_REST_WEIGHTS @ row[:_STENCIL]) for row in rows]
    fd = np.array([(p.lambda_lame, p.mu_lame) for p in pairs]).reshape(closed.shape)
    scale = np.maximum(np.abs(closed).max(axis=-1), 1e-30)
    # np.max keeps a NaN error, where Python's max would drop it
    closure = np.max(np.abs(fd - closed) / scale[..., None], axis=(1, 2))
    e = e[..., _STENCIL:].reshape(len(families), _DRAWS, _PER_DRAW, 6)
    ref = np.maximum(np.abs(e[..., :1]), floor[..., None, None])
    sym = np.max(np.abs(e[..., 1:] - e[..., :1]) / ref, axis=(1, 2, 3))
    report = {}
    for family, closure_err, sym_err, family_stable in zip(
        families, closure.tolist(), sym.tolist(), stable
    ):
        closure_ok, sym_ok = closure_err <= _LAME_RTOL, sym_err <= 1e-12
        report[family] = {
            "lame_closure_max_rel_err": closure_err,
            "lame_closure_pass": closure_ok,
            "rest_stable_in_stable_region": family_stable,
            "permutation_symmetry_max_rel_err": sym_err,
            "permutation_symmetry_pass": sym_ok,
            "pass": closure_ok and family_stable and sym_ok,
        }
    return all(entry["pass"] for entry in report.values()), report


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
    except (ConvergenceError, InvertedElementError) as err:
        print(f"convergence failure: {err}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (StretchlabError, *_INPUT_ERRORS) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
