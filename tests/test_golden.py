"""Golden record: material values pinned before materials became term lists.

``data/golden_materials.jsonl`` holds, for every catalog family (a generic
and a rest-stable draw), filtered materials, a linear combination, the
decomposed parts of the separable families and the two benchmark specs:
energy, gradient and Hessian on a fixed stretch set, and the modulus
scale, rest flag, domain, family name and closed-form Lame pair. It was
written once, by running this module as a script, from the last commit
with hand-written per-family classes:

    PYTHONPATH=src python tests/test_golden.py tests/data/golden_materials.jsonl

The record is the reference for the term-list evaluator. Do not rewrite
it to make a failing comparison pass.
"""

import json
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from stretchlab.compose import SEPARABLE_FAMILIES, LinearCombination
from stretchlab.compose import decompose as decompose_energy
from stretchlab.materials import catalog_families, sample_params
from stretchlab.specs import build_material

RECORD = Path(__file__).resolve().parent / "data" / "golden_materials.jsonl"
VALUE_RTOL = 1e-13
SCALE_RTOL = 1e-15
FILTER_ALPHAS = (0.2, 0.5, 2.0, 4.0)


def build(desc):
    """A material from a record descriptor (a spec, a combination or a part)."""
    if "combination" in desc:
        return LinearCombination([(c, build(d)) for c, d in desc["combination"]])
    if "part" in desc:
        lam_part, mu_part = decompose_energy(desc["family"], desc["params"])
        return (lam_part if desc["part"] == "lambda" else mu_part).model
    return build_material(desc)


def stretch_set():
    """(triples for every domain, triples for unrestricted domains only)."""
    rng = np.random.default_rng(20241218)
    triples = [list(t) for t in rng.uniform(0.5, 2.0, size=(5, 3))]
    triples.append([1.0, 1.0, 1.0])
    for gap in (1e-9, 1e-6, 1e-3):
        triples.append([1.3, 1.3 + gap, 0.8])
    return triples, [[1.4, 0.9, -0.6]]


def descriptors():
    """Named material descriptors covering every evaluation path."""
    out = []
    stable = {}
    for family in catalog_families():
        rng = np.random.default_rng(zlib.crc32(family.encode()))
        out.append((f"{family}", {"family": family, "params": sample_params(family, rng)}))
        stable[family] = sample_params(family, rng, rest_stable=True)
        out.append((f"{family}:stable", {"family": family, "params": stable[family]}))
    for family in catalog_families():
        for alpha in FILTER_ALPHAS:
            desc = {"family": family, "params": stable[family], "alpha": alpha}
            out.append((f"{family}:stable:alpha={alpha:g}", desc))
    ogden = {"family": "ogden", "params": {"terms": [[1.0, 2.0], [0.5, 3.0]]}, "alpha": 0.5}
    out.append(("ogden:rest_unstable:alpha=0.5", ogden))
    out.append((
        "linear_combination",
        {"combination": [
            [2.0, {"family": "hencky", "params": {"mu": 1.0, "lam": 0.5}}],
            [-0.5, {"family": "st_venant_kirchhoff", "params": {"mu": 0.5, "lam": 1.0}}],
            [0.7, {"family": "mooney_rivlin", "params": {"c1": 1.0, "c2": -0.5}, "alpha": 2.0}],
        ]},
    ))
    for family in SEPARABLE_FAMILIES:
        rng = np.random.default_rng(zlib.crc32(family.encode()) + 1)
        params = sample_params(family, rng)
        for part in ("lambda", "mu"):
            out.append((f"{family}:{part}_part", {"part": part, "family": family, "params": params}))
    # seed 0 of the benchmark's stretch and modes workloads
    rng = np.random.default_rng(0)
    E, nu = float(rng.uniform(5e4, 5e5)), float(rng.uniform(0.25, 0.35))
    mu = E / (2.0 * (1.0 + nu))
    snh = {"mu": mu, "lam": E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu)) + mu}
    out.append(("bench:stretch", {"family": "stable_neo_hookean", "params": snh, "alpha": 2.0}))
    out.append(("bench:modes_a", {"family": "stable_neo_hookean", "params": snh}))
    out.append((
        "bench:modes_b",
        {"combine": {
            "mu_part": {"family": "st_venant_kirchhoff", "params": {"mu": 1.0, "lam": 1.0}},
            "lambda_part": "j_minus_1_sq", "E": E, "nu": nu, "alpha_mu": 2.0,
        }},
    ))
    return out


def record_entry(name, desc):
    model = build(desc)
    positive, negative = stretch_set()
    triples = positive + (negative if model.domain == "unrestricted" else [])
    closed = model.lame_closed_form()
    return {
        "name": name,
        "desc": desc,
        "family": model.family,
        "domain": model.domain,
        "rest_stable": bool(model.rest_stable),
        "modulus_scale": float(model.modulus_scale),
        "lame_closed_form": None if closed is None else [float(v) for v in closed],
        "stretches": triples,
        "energy": [model.energy(s) for s in triples],
        "gradient": [model.gradient(s).tolist() for s in triples],
        "hessian": [model.hessian(s).tolist() for s in triples],
    }


def _load():
    lines = RECORD.read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


ENTRIES = _load() if RECORD.is_file() else []


def test_record_covers_every_descriptor():
    # the full descriptors, so every sample_params draw is pinned too
    assert [(e["name"], e["desc"]) for e in ENTRIES] == descriptors()


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_matches_golden_record(entry):
    model = build(entry["desc"])
    assert model.family == entry["family"]
    assert model.domain == entry["domain"]
    assert model.rest_stable == entry["rest_stable"]
    closed = model.lame_closed_form()
    assert (None if closed is None else [float(v) for v in closed]) == entry["lame_closed_form"]
    scale = entry["modulus_scale"]
    assert abs(model.modulus_scale - scale) <= SCALE_RTOL * abs(scale)
    for k, s in enumerate(entry["stretches"]):
        for name, new in (
            ("energy", model.energy(s)),
            ("gradient", model.gradient(s)),
            ("hessian", model.hessian(s)),
        ):
            old = np.asarray(entry[name][k])
            bound = VALUE_RTOL * max(float(np.max(np.abs(old))), scale)
            err = float(np.max(np.abs(np.asarray(new) - old)))
            assert err <= bound, f"{name} at {s}: |new - old| = {err:.3e} > {bound:.3e}"


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        for name, desc in descriptors():
            fh.write(json.dumps(record_entry(name, desc)) + "\n")
