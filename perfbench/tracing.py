"""Outside-in span recording for the stretchlab layers.

Each layer is measured by replacing one of its public functions, in every
``stretchlab`` module that binds it, with a wrapper that records a span
(name, start, end, parent span, operation id) in memory. Nothing in the
library is edited; ``Tracer.uninstall`` puts the original objects back.

A span is not re-entered: a call made while a span of the same guard
group is open (a filtered material evaluating its base, for example)
belongs to the open span and records nothing of its own.
"""

import gzip
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute, guard group); an attribute "Class.method"
# names a method patched on the class itself.
LAYERS = (
    ("cli.main", "stretchlab.cli", "main", None),
    ("cli.verify_table", "stretchlab.cli", "verify_table", None),
    ("specs.build_material", "stretchlab.specs", "build_material", None),
    ("materials.energy", "stretchlab.materials", "MaterialModel.energy", "materials"),
    ("materials.gradient", "stretchlab.materials", "MaterialModel.gradient", "materials"),
    ("materials.hessian", "stretchlab.materials", "MaterialModel.hessian", "materials"),
    ("stretch_core.decompose", "stretchlab.stretch_core", "decompose", None),
    ("fem.mesh.generate_mesh", "stretchlab.fem.mesh", "generate_mesh", None),
    ("fem.assembly.assemble", "stretchlab.fem.assembly", "assemble", None),
    (
        "fem.assembly.stress_jacobian_from_svd",
        "stretchlab.fem.assembly",
        "stress_jacobian_from_svd",
        None,
    ),
    ("fem.assembly.total_energy", "stretchlab.fem.assembly", "total_energy", None),
    ("fem.solver.solve_quasistatic", "stretchlab.fem.solver", "solve_quasistatic", None),
    ("fem.modal.modal_frequencies", "stretchlab.fem.modal", "modal_frequencies", None),
    ("lame.extract_lame", "stretchlab.lame", "extract_lame", None),
    ("fd.fd_hessian", "stretchlab.fd", "fd_hessian", None),
)

# Layers whose spans have child spans report self time as well.
PARENT_LAYERS = (
    "cli.main",
    "cli.verify_table",
    "specs.build_material",
    "fem.assembly.assemble",
    "fem.assembly.total_energy",
    "fem.solver.solve_quasistatic",
    "fem.modal.modal_frequencies",
    "lame.extract_lame",
    "fd.fd_hessian",
)

# Counters observed at the layer boundaries (not span counts); the
# line-search halvings are counted from the spans in ``layer_stats``.
COUNTERS = (
    "fem.assembly.assemble.unprojected_calls",
    "fem.solver.newton_iters",
    "fem.solver.failed",
)


def storage_bytes(matrix):
    """Bytes held by a dense array or a scipy sparse matrix."""
    if matrix is None:
        return 0
    if isinstance(matrix, np.ndarray):
        return int(matrix.nbytes)
    parts = ("data", "indices", "indptr", "row", "col", "offsets")
    return int(sum(getattr(matrix, p).nbytes for p in parts if hasattr(matrix, p)))


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = [layer[0] for layer in LAYERS]
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.op_id = -1
        self._stack = [-1]
        self._open = defaultdict(int)
        self._patched = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.max_stiffness_bytes = 0
        self.rounds = []  # (last operation id, boundary counters) per round
        self.unmeasured = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name_id, group, after=None, on_error=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._open[group]:
                return fn(*args, **kwargs)
            idx = len(tracer.name)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer._open[group] += 1
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(err)
                raise
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._open[group] -= 1
                tracer._stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_assemble(self, signature):
        def after(result, args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if not bound.arguments.get("project"):
                self.counters["fem.assembly.assemble.unprojected_calls"] += 1
            self.max_stiffness_bytes = max(
                self.max_stiffness_bytes, storage_bytes(getattr(result, "stiffness", None))
            )

        return after

    def _after_solve(self, result, args, kwargs):
        self.counters["fem.solver.newton_iters"] += int(result.iterations)

    def _solve_error(self, err):
        from stretchlab.errors import ConvergenceError

        if isinstance(err, ConvergenceError):
            self.counters["fem.solver.failed"] += 1

    def end_round(self):
        """Close a round: keep its boundary counters and reset them."""
        counters = dict(self.counters, **{"fem.assembly.stiffness_bytes": self.max_stiffness_bytes})
        self.rounds.append((self.op_id, counters))
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.max_stiffness_bytes = 0

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer function wherever a stretchlab module binds it."""
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "stretchlab" or n.startswith("stretchlab."))
        ]
        for name_id, (name, module_name, attr, group) in enumerate(LAYERS):
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = module if not owner_name else getattr(module, owner_name, None)
            fn = getattr(owner, method, None) if owner is not None else None
            if fn is None or not callable(fn):
                self.unmeasured.append(name)
                continue
            hooks = {}
            if name == "fem.assembly.assemble":
                hooks["after"] = self._after_assemble(inspect.signature(fn))
            elif name == "fem.solver.solve_quasistatic":
                hooks = {"after": self._after_solve, "on_error": self._solve_error}
            if owner_name:
                # the method and every subclass override of it
                for cls in dict.fromkeys(_subclasses(owner)):
                    if method in vars(cls):
                        own = vars(cls)[method]
                        self._patch(cls, method, own, self._wrap(own, name_id, group or name))
                continue
            wrapper = self._wrap(fn, name_id, group or name, **hooks)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, fn, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        return (
            np.asarray(self.name, dtype=np.int64),
            np.asarray(self.start, dtype=float),
            np.asarray(self.end, dtype=float),
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.op, dtype=np.int64),
        )

    def layer_stats(self, ops):
        """Per-layer calls, busy and self time over the given operation ids."""
        name, start, end, parent, op = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        keep = np.isin(op, list(ops))
        out = {}
        for name_id, layer in enumerate(self.names):
            sel = keep & (name == name_id)
            out[layer + ".calls"] = int(np.count_nonzero(sel))
            out[layer + ".busy_s"] = float(dur[sel].sum())
            if layer in PARENT_LAYERS:
                out[layer + ".self_s"] = float(self_time[sel].sum())
        out["accounted_s"] = float(self_time[keep].sum())
        out["spans"] = int(np.count_nonzero(keep))
        out["fem.solver.halvings"] = self._halvings(name, parent, keep)
        return out

    def _halvings(self, name, parent, keep):
        """Line-search energy evaluations that were rejected.

        Inside one solve, a ``total_energy`` span directly followed by
        another ``total_energy`` sibling was a trial step that got halved.
        """
        solve = self.names.index("fem.solver.solve_quasistatic")
        energy = self.names.index("fem.assembly.total_energy")
        idx = np.nonzero(keep & (name == energy))[0]
        count = 0
        for a, b in zip(idx[:-1], idx[1:]):
            p = parent[a]
            if p >= 0 and name[p] == solve and parent[b] == p:
                between = np.nonzero(parent[a + 1 : b] == p)[0]
                count += int(len(between) == 0)
        return count

    def write(self, path):
        """Write the spans as gzipped CSV: op,name,parent,start_s,end_s."""
        name, start, end, parent, op = self.arrays()
        t0 = float(start.min()) if len(start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("op,name,parent,start_s,end_s\n")
            for row in zip(op.tolist(), name.tolist(), parent.tolist(), start.tolist(), end.tolist()):
                fh.write(
                    f"{row[0]},{self.names[row[1]]},{row[2]},{row[3] - t0:.9f},{row[4] - t0:.9f}\n"
                )
