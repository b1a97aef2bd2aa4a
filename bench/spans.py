"""Spans around the public functions of each latticefronts module.

Tracing is installed from the benchmark's own code by rebinding module
attributes; nothing under ``src/`` changes.  A span is (name, start, end,
parent, job, raised, info); spans stay in memory and are written when the
run ends.  A span's self time is its duration minus its children's, so the
self times of all spans of a job add up to the job's time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("model", "mfde", "bvp", "fixedpoint", "continuation", "sim", "tails", "cli")

# Called once per theta or lambda sample inside the spectral scans: a span
# there would cost more than the call it measures.
UNTRACED = {"mfde.characteristic_matrix"}


def _problem_key(problem, grid) -> str:
    shifts, _ = problem.effective_coupling()
    return f"n{grid.n}_N{problem.dimension}_s{len(shifts)}"


def _operator_key(op) -> str:
    return f"N{op.dimension}_s{len(op.shifts)}"


# info(args, kwargs, result) -> dict stored on the span; key is the size label.
INFO = {
    "bvp.newton_solve": lambda a, k, r: {"key": _problem_key(a[0], a[1])},
    "bvp.kernel_vectors": lambda a, k, r: {"key": _problem_key(a[0], a[1])},
    "mfde.asymptotic_hyperbolicity": lambda a, k, r: {"key": _operator_key(a[0])},
    "mfde.is_hyperbolic": lambda a, k, r: {"method": r.method},
    "fixedpoint.iterate": lambda a, k, r: {"picard_iters": len(r[1].history)},
    "continuation.continue_in_epsilon": lambda a, k, r: {"steps": len(r.steps)},
    "continuation.continue_in_parameter": lambda a, k, r: {"steps": len(r.steps)},
    "sim.integrate": lambda a, k, r: {
        "key": f"k{a[0].k_max}_M{len(a[1].sites)}",
        "steps": int(round(_arg(a, k, 3, "T") / _arg(a, k, 2, "dt")))},
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # name, start, end, parent, job, raised, info
        self._stack: list[int] = []
        self.job = None
        self._patches: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self.job, False, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, raised: bool = False):
        self.spans[idx][2] = perf_counter()
        self.spans[idx][5] = raised
        self._stack.pop()

    def wrap(self, fn, name: str):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, raised=True)
                raise
            self.close(idx)
            if info is not None:
                self.spans[idx][6] = info(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Rebind every public function of every layer, in every module that
        holds a reference to it, plus the sparse solves bvp and fixedpoint
        make through their ``spla`` module attribute."""
        pkg = importlib.import_module("latticefronts")
        mods = {layer: importlib.import_module(f"latticefronts.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and name not in UNTRACED and name not in ("cli.run", "cli.main")):
                    wrapped[fn] = self.wrap(fn, name)
        for mod in [pkg, *mods.values()]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])
        for layer in ("bvp", "fixedpoint"):
            mod = mods[layer]
            self._patches.append((mod, "spla", mod.spla))
            mod.spla = _LinalgProxy(mod.spla, self, layer)

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def write(self, path: Path):
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "job", "raised", "info"],
            "spans": self.spans}) + "\n")


class _LinalgProxy:
    """scipy.sparse.linalg as one module sees it, with spsolve and splu traced."""

    def __init__(self, real, tracer: Tracer, layer: str):
        self._real = real
        self.spsolve = tracer.wrap(real.spsolve, f"{layer}.spsolve")
        self.splu = tracer.wrap(real.splu, f"{layer}.splu")

    def __getattr__(self, name):
        return getattr(self._real, name)


# ---------------------------------------------------------------------------
# aggregation

FACTOR = {"bvp.spsolve", "bvp.splu", "fixedpoint.spsolve", "fixedpoint.splu"}


def layer_metrics(spans: list[list], names: list[str]) -> dict[str, float]:
    """Per-layer metrics (see layers.json) from one traced pass.

    Names absent from the pass report 0; every name in `names` is returned.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]

    def under(i, pred) -> bool:
        j = spans[i][3]
        while j is not None:
            if pred(spans[j][0]):
                return True
            j = spans[j][3]
        return False

    m = defaultdict(float)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    in_newton = lambda name: name == "bvp.newton_solve"          # noqa: E731
    in_cont = lambda name: name.startswith("continuation.")      # noqa: E731
    step_keys = defaultdict(lambda: [0.0, 0])
    for i, (name, _s, _e, _p, _job, raised, info) in enumerate(spans):
        info = info or {}
        m[f"{name.split('.')[0]}.self_s"] += dur[i] - child[i]
        if name in ("model.find_two_periodic_equilibria",
                    "model.find_four_periodic_equilibria"):
            m["model.equilibria_s"] += dur[i]
            m["model.equilibria_calls"] += 1
        elif name == "mfde.asymptotic_hyperbolicity":
            m["mfde.hyperbolicity_s"] += dur[i]
            m[f"mfde.hyperbolicity_s.{info.get('key')}"] += dur[i]
            m["mfde.hyperbolicity_calls"] += 1
            if under(i, in_cont):
                m["continuation.audit_hyper_s"] += dur[i]
        elif name == "mfde.is_hyperbolic" and not raised:
            method = "det_scan" if info["method"] == "det-scan" else "eig_cert"
            m[f"mfde.entries_{method}"] += 1
        elif name == "bvp.newton_solve":
            m["bvp.newton_s"] += dur[i]
            m[f"bvp.newton_s.{info.get('key')}"] += dur[i]
            m["bvp.newton_calls"] += 1
            m["bvp.newton_failures"] += raised
            if under(i, in_cont):
                m["continuation.solve_s"] += dur[i]
                m["continuation.steps_rejected"] += raised
        elif name == "bvp.assemble_residual":
            m["bvp.residual_s"] += dur[i]
            m["bvp.residual_calls"] += 1
            if under(i, in_newton):
                m["_residuals_in_newton"] += 1
        elif name == "bvp.assemble_jacobian":
            m["bvp.jacobian_s"] += dur[i]
            m["bvp.jacobian_calls"] += 1
            if under(i, in_newton):
                m["bvp.newton_iters"] += 1
        elif name in FACTOR:
            m["bvp.factor_s"] += dur[i]
            m["bvp.factorizations"] += 1
            if name == "bvp.spsolve" and under(i, in_newton):
                m["_solves_in_newton"] += 1
        elif name == "bvp.kernel_vectors":
            m["bvp.kernel_s"] += dur[i]
            m[f"bvp.kernel_s.{info.get('key')}"] += dur[i]
            m["bvp.kernel_calls"] += 1
            if under(i, in_cont):
                m["continuation.audit_kernel_s"] += dur[i]
        elif name == "fixedpoint.make_context":
            m["fixedpoint.context_s"] += dur[i]
        elif name == "fixedpoint.iterate":
            m["fixedpoint.iterate_s"] += dur[i]
            m["fixedpoint.picard_iters"] += info.get("picard_iters", 0)
        elif name.startswith("continuation.continue_in_"):
            m["continuation.branch_s"] += dur[i]
            m["continuation.steps_accepted"] += max(info.get("steps", 1) - 1, 0)
        elif name == "sim.integrate":
            m["sim.integrate_s"] += dur[i]
            if not raised:
                m["sim.rk4_steps"] += info["steps"]
                acc = step_keys[info["key"]]
                acc[0] += dur[i]
                acc[1] += info["steps"]
        elif name in ("sim.measure_speed", "sim.extract_profile", "sim.check_monotonicity"):
            m["sim.measure_s"] += dur[i]
        elif name in ("tails.tail_report_constant", "tails.periodic_decay_rate"):
            which = "roots" if name == "tails.tail_report_constant" else "dispersion"
            m[f"tails.{which}_s"] += dur[i]
            m["tails.calls"] += 1
            m["tails.failures"] += raised
    for key, (t, steps) in step_keys.items():
        m[f"sim.rk4_step_us.{key}"] = 1e6 * t / steps if steps else 0.0
    m["bvp.lm_solves"] = m.pop("_solves_in_newton", 0) - m["bvp.newton_iters"]
    residuals = m.pop("_residuals_in_newton", 0)
    m["bvp.residuals_per_iter"] = (residuals / m["bvp.newton_iters"]
                                   if m["bvp.newton_iters"] else 0.0)
    unknown = sorted(set(m) - set(names))
    out = {name: float(m.get(name, 0.0)) for name in names}
    out["_unlisted"] = unknown
    return out

