"""The CLI contract under fuzz: typed errors and finite output.

A derandomized hypothesis suite drives ``cli.main`` for ``lame``,
``normalize``, ``modes`` and ``stretch-test`` (cube n=1), and the
commands that open a path for paths that cannot be opened. Numbers come
from NaN, +-inf, +-1e308, subnormals, zero and negatives; JSON values
may also have the wrong type, and ``combine`` specs nest. Every case
must end in a documented exit code (0, 2, 3 or 4) with no exception
escaping ``main``, and an exit-0 output may hold only finite numbers.
pytest turns a RuntimeWarning or a UserWarning into an error
(``pyproject.toml``), so a numpy overflow warning or a library warning
on the way also fails a case: under ``python -W error`` either would end
``main`` with a traceback.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from stretchlab.cli import main
from stretchlab.materials import catalog_families, sample_params

EXITS = (0, 2, 3, 4)
SPECIAL = [
    math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308,
    0.0, -0.0, -1.0, 0.3, 0.5, 1.0, 2.0, 1e5,
]
NUMBERS = st.one_of(st.sampled_from(SPECIAL), st.floats())
WRONG = st.sampled_from([None, True, "x", "1e5", [], [1.0], {}, {"mu": 1.0}])
VALUES = st.one_of(NUMBERS, WRONG)
FAMILIES = st.sampled_from(catalog_families() + ["no_such_family"])
FUZZ = settings(deadline=None, derandomize=True, database=None)


@st.composite
def mutated(draw, value):
    """``value`` with about one leaf in eight replaced by a fuzz value."""
    if isinstance(value, dict):
        return {k: draw(mutated(v)) for k, v in value.items()}
    if isinstance(value, list):
        return [draw(mutated(v)) for v in value]
    return draw(VALUES) if draw(st.integers(0, 7)) == 3 else value


@st.composite
def params(draw, family):
    """A rest-stable draw of the family's parameters, mutated; any record for an unknown family."""
    if family not in catalog_families():
        return draw(st.dictionaries(st.sampled_from(["mu", "lam"]), VALUES))
    seed = draw(st.integers(0, 2**16))
    return draw(mutated(sample_params(family, np.random.default_rng(seed), rest_stable=True)))


@st.composite
def family_specs(draw, filtered=True):
    family = draw(FAMILIES)
    spec = {"family": family, "params": draw(params(family))}
    if filtered and draw(st.booleans()):
        spec["alpha"] = draw(st.one_of(st.sampled_from([0.2, 0.5, 2.0, 4.0]), NUMBERS))
    return spec


@st.composite
def specs(draw, depth=2):
    """A family spec or a ``combine`` spec whose parts may themselves be specs of any kind."""
    if depth == 0 or draw(st.booleans()):
        return draw(family_specs())
    # half of the parts are plain family specs, the only kind a part may be
    part = st.one_of(family_specs(filtered=False), family_specs(filtered=False),
                     specs(depth=depth - 1), WRONG)
    combine = {
        "mu_part": draw(part),
        "lambda_part": draw(st.one_of(st.sampled_from(["j_minus_1_sq", "log_j_sq"]), part)),
        "E": 1e5,
        "nu": 0.3,
    }
    for key in ("alpha_mu", "alpha_lambda"):
        if draw(st.booleans()):
            combine[key] = draw(st.sampled_from([0.5, 2.0]))
    return {"combine": draw(mutated(combine))}


def reject_constant(name):
    raise AssertionError(f"exit 0 printed {name}")


def run(argv):
    """Exit code, stdout and stderr of ``cli.main``, which must not raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in EXITS, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    event(f"exit {code}")
    return code, out.getvalue(), err.getvalue()


def check_json(argv):
    code, out, err = run(argv)
    if code == 0:
        json.loads(out, parse_constant=reject_constant)
    return code, err


@settings(FUZZ, max_examples=60)
@given(family=FAMILIES, data=st.data(), fd=st.booleans())
@example(family="symmetric_arap", data=None, fd=False).via("the overflowing fd extraction")
def test_lame_fuzz(family, data, fd):
    record = {"mu": 1e308} if data is None else data.draw(params(family))
    check_json(["lame", "--family", family, "--params", json.dumps(record)] + ["--fd"] * fd)


@settings(FUZZ, max_examples=60)
@given(
    family=FAMILIES,
    E=st.one_of(st.floats(1.0, 1e9), NUMBERS),
    nu=st.one_of(st.floats(-0.9, 0.49), NUMBERS),
    data=st.data(),
)
@example(family="hencky", E=1e308, nu=0.49999, data=None).via("an infinite lambda_lame")
def test_normalize_fuzz(family, E, nu, data):
    # "--E=-inf", since argparse reads a separate "-inf" as an option
    argv = ["normalize", "--family", family, f"--E={E!r}", f"--nu={nu!r}"]
    if data is not None and data.draw(st.booleans()):
        argv += ["--params", json.dumps(data.draw(params(family)))]
    check_json(argv)


@settings(FUZZ, max_examples=15)
@given(spec_a=specs(), spec_b=specs(), k=st.integers(0, 4))
@example(spec_a={"family": "arap"}, spec_b={"family": "arap", "alpha": 5e-324}, k=3).via(
    "a filter exponent whose square is 0.0"
)
@example(
    spec_a={"family": "hencky", "params": {"mu": 5e307, "lam": 8e307}},
    spec_b={"family": "hencky", "params": {"mu": 5e307, "lam": 8e307}},
    k=6,
).via("a rest stress Hessian that overflows")
@example(
    spec_a={"family": "valanis_landel_new",
            "params": {"f": "scaled:0:stretch_well", "h": "scaled:0:log_sq"}},
    spec_b={"family": "arap"},
    k=3,
).via("a rest stiffness that is all zero")
def test_modes_fuzz(spec_a, spec_b, k):
    with tempfile.TemporaryDirectory() as tmp:
        path_a, path_b = Path(tmp, "a.json"), Path(tmp, "b.json")
        path_a.write_text(json.dumps(spec_a))
        path_b.write_text(json.dumps(spec_b))
        code, err = check_json(
            ["modes", "--spec-a", path_a, "--spec-b", path_b, "--n", 1, "--k", k]
        )
    # modes runs no solve, so its only exit 3 is an element out of domain
    assert code != 3 or err.startswith("out of domain: "), err


@settings(FUZZ, max_examples=25)
@given(
    spec=specs(),
    dmin=st.one_of(st.floats(0.5, 1.0), st.floats(0.5, 1.0), NUMBERS),
    dmax=st.one_of(st.floats(1.0, 1.5), st.floats(1.0, 1.5), NUMBERS),
    steps=st.sampled_from([1, 2, 0]),
)
@example(spec={"family": "arap", "alpha": 1e5}, dmin=0.9, dmax=1.1, steps=2).via(
    "a filter exponent outside the recommended [0.2, 4]"
)
def test_stretch_test_fuzz(spec, dmin, dmax, steps):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, out_path = Path(tmp, "spec.json"), Path(tmp, "curve.csv")
        spec_path.write_text(json.dumps(spec))
        code, _, _ = run([
            "stretch-test", "--spec", spec_path, "--n", 1, f"--dmin={dmin!r}",
            f"--dmax={dmax!r}", "--steps", steps, "--out", out_path,
        ])
        if code == 0:
            rows = out_path.read_text().splitlines()[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


# the commands that open a path the user names, each with that option last
PATH_COMMANDS = (
    ("genmesh", "--kind", "cube", "--n", "1", "--out"),
    ("stretch-test", "--family", "arap", "--n", "1", "--steps", "1", "--out"),
    ("lame", "--spec"),
)


@settings(FUZZ, max_examples=10)
@given(command=st.sampled_from(PATH_COMMANDS), name=st.sampled_from(["", "missing/x"]))
@example(command=PATH_COMMANDS[0], name="").via("genmesh --out <directory>")
@example(command=PATH_COMMANDS[1], name="").via("stretch-test --out <directory>")
@example(command=PATH_COMMANDS[2], name="").via("lame --spec <directory>")
def test_unusable_path_fuzz(command, name):
    # "" names the temporary directory itself; "missing/x" has no parent
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = run(list(command) + [Path(tmp, name)])
    assert code == 2 and err.startswith("error: "), err
