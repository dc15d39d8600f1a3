"""Span tracer for the qfcring layers, installed from outside the package.

`Tracer.install()` wraps the public functions of each qfcring module and
rebinds every module attribute that holds the function object, so calls made
through `from .x import f` bindings are seen too.  It also wraps the
evaluation methods of `DispersionModel` and `MziCoupler` on their class.  A
method called while a method of the same class is the innermost open span is
not recorded on its own: it is part of that span (for example `n_eff` inside
`propagation_constant`).

Each span records name, start, end, parent span and op id in flat arrays;
nothing is written until `save()` at the end of the run.  A layer's self
time is the duration of its spans minus the time covered by their children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

# Layers are the qfcring modules; constants, errors and cli hold no work.
LAYERS = ("config", "dispersion", "elements", "conversion", "matching", "noise",
          "builders", "calibration", "experiments")

# The root solver calls the unchecked evaluators directly; without them the
# vectorised dispersion work of the matcher would be invisible.
CLASSES = {
    ("dispersion", "DispersionModel"): ("_n_eff_unchecked", "_dn_dlambda_unchecked"),
    ("elements", "MziCoupler"): (),
}

DISPERSION_EVALS = ("thermo_optic", "n_eff", "_n_eff_unchecked", "dn_dlambda",
                    "_dn_dlambda_unchecked", "group_index", "propagation_constant",
                    "fsr_hz", "group_velocity")
RK4 = ("conversion.evolve_mean_field", "conversion.steady_state_conversion")


class Tracer:
    def __init__(self):
        self.names = []          # name id -> qualified name
        self.layer_of = []       # name id -> layer
        self.group_of = []       # name id -> class name for methods, else None
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack = []
        self.op_id = -1
        self.counters = {}
        self.originals = {}      # qualified name -> unwrapped function
        self._plan = []          # (owner, attribute, original, wrapper)
        self._op_sweeps = set()
        self._hash_cache = {}

    # -- installation --------------------------------------------------------

    def install(self):
        """Rebind the wrappers; the first call builds them, later calls reuse them."""
        if not self._plan:
            self._build_plan()
        for owner, attr, _, wrapped in self._plan:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)

    def _build_plan(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"qfcring.{layer}")
            except ImportError:
                continue
        holders = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qfcring" or n.startswith("qfcring."))]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(obj, f"{layer}.{attr}", layer, None)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, name, wrapped)
        for (layer, cls_name), private in CLASSES.items():
            cls = getattr(modules.get(layer), cls_name, None)
            if cls is None:
                continue
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and (not attr.startswith("_") or attr in private):
                    self._patch(cls, attr, self._wrap(obj, f"{layer}.{cls_name}.{attr}",
                                                      layer, cls_name))

    def _patch(self, owner, attr, wrapped):
        self._plan.append((owner, attr, getattr(owner, attr), wrapped))

    def _intern(self, qualname, layer, group):
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.group_of.append(group)
        return len(self.names) - 1

    def _wrap(self, fn, qualname, layer, group):
        nid = self._intern(qualname, layer, group)
        self.originals[qualname] = fn
        hook = _HOOKS.get(qualname)
        tr = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr.stack
            if group is not None and stack and tr.group_of[tr.name[stack[-1]]] == group:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.op.append(tr.op_id)
            tr.end.append(0.0)
            stack.append(idx)
            tr.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf()
                stack.pop()
            if hook is not None and tr.op_id >= 0:
                hook(tr, fn, args, kwargs, result)
            return result

        return traced

    # -- ops and counters ----------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self._op_sweeps = set()

    def count(self, key, amount=1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def model_hash(self, model):
        key = id(model)
        if key not in self._hash_cache:
            content_hash = self.originals.get("dispersion.DispersionModel.content_hash")
            # The model is kept alive with its hash so its id is not reused.
            self._hash_cache[key] = (model, content_hash(model) if content_hash else key)
        return self._hash_cache[key][1]

    # -- reduction -----------------------------------------------------------

    def arrays(self):
        # Copies, so the arrays can keep growing after a reduction.
        return {key: np.array(getattr(self, key))
                for key in ("start", "end", "name", "parent", "op")}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, n_ops, fit_op, scales):
        """Per-layer metrics per traced op (op id >= 0), and notes on absent or idle ones.

        scales maps op id -> factor to reference machine speed; span times
        of an op are scaled by it.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        in_op = a["op"] >= 0
        self_t = dur - np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                   minlength=dur.size)
        self_t[in_op] *= np.array([scales[op] for op in a["op"][in_op]])
        known = set(self.names)
        notes = {}
        c = self.counters

        def spans(names):
            ids = [i for i, n in enumerate(self.names) if n in names]
            return np.isin(a["name"], ids)

        def calls(names):
            return float(np.count_nonzero(spans(names) & in_op))

        def entries(names):
            """Calls into the group from outside it."""
            member = spans(names)
            from_inside = np.zeros_like(member)
            from_inside[has_parent] = member[a["parent"][has_parent]]
            return float(np.count_nonzero(member & ~from_inside & in_op))

        def self_s(names):
            return float(self_t[spans(names) & in_op].sum())

        def layer(name):
            return {n for n, l in zip(self.names, self.layer_of) if l == name}

        def per_op(x):
            return x / n_ops if n_ops else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def need(metric, *names):
            if not known.intersection(names):
                notes[metric] = "absent: " + ", ".join(names) + " not found in qfcring"

        disp = {f"dispersion.DispersionModel.{m}" for m in DISPERSION_EVALS}
        mzi = {n for n in self.names if n.startswith("elements.MziCoupler.")}
        sweep = {"matching.find_triple_resonance"}
        solve = {"elements.solve_resonance_wavelength"}
        verify = {"matching.verify_match"}
        rk4 = set(RK4)
        closed = layer("conversion") - rk4
        width = {"calibration.solve_width_couplings"}
        m = {}

        need("dispersion.fit_s", "dispersion.fit_dispersion_table")
        fits = dur[spans({"dispersion.fit_dispersion_table"}) & (a["op"] == fit_op)]
        m["dispersion.fit_s"] = float(np.median(fits)) if fits.size else 0.0

        need("dispersion.eval_calls", *disp)
        points = c.get("dispersion.points", 0.0)
        m["dispersion.eval_calls"] = per_op(calls(disp))
        m["dispersion.eval_points"] = per_op(points)
        m["dispersion.points_per_call"] = ratio(points, calls(disp))
        m["dispersion.eval_self_s"] = per_op(self_s(disp))

        need("elements.resonance_solves", *solve)
        m["elements.resonance_solves"] = per_op(calls(solve))
        m["elements.resonance_roots"] = per_op(c.get("elements.roots", 0.0))
        m["elements.resonance_self_s"] = per_op(self_s(solve))
        m["elements.mzi_calls"] = per_op(entries(mzi))
        m["elements.mzi_self_s"] = per_op(self_s(mzi))
        need("elements.spectrum_self_s", "elements.ring_spectrum")
        m["elements.spectrum_self_s"] = per_op(self_s({"elements.ring_spectrum"}))

        need("matching.sweeps", *sweep)
        need("matching.grid_points", "matching.sweep_step_K")
        m["matching.sweeps"] = per_op(calls(sweep))
        m["matching.grid_points"] = per_op(c.get("matching.grid_points", 0.0))
        m["matching.sweep_self_s"] = per_op(self_s(sweep))
        m["matching.repeat_sweep_ratio"] = ratio(c.get("matching.repeats", 0.0), calls(sweep))
        m["matching.matches_per_sweep"] = ratio(c.get("matching.matches", 0.0), calls(sweep))
        need("matching.verify_calls", *verify)
        m["matching.verify_calls"] = per_op(calls(verify))
        m["matching.verify_self_s"] = per_op(self_s(verify))

        need("conversion.rk4_steps", *rk4)
        steps = c.get("conversion.rk4_steps", 0.0)
        m["conversion.rk4_steps"] = per_op(steps)
        m["conversion.rk4_calls_per_point"] = ratio(calls({RK4[0]}), calls({RK4[1]}))
        m["conversion.rk4_self_s"] = per_op(self_s(rk4))
        m["conversion.rk4_steps_per_s"] = ratio(steps, self_s({RK4[0]}))
        m["conversion.closed_form_calls"] = per_op(entries(closed))
        m["conversion.closed_form_self_s"] = per_op(self_s(closed))

        for name in ("noise", "builders", "config"):
            m[f"{name}.calls"] = per_op(entries(layer(name)))
            m[f"{name}.self_s"] = per_op(self_s(layer(name)))

        need("calibration.width_solves", *width)
        m["calibration.width_solves"] = per_op(calls(width))
        m["calibration.width_solve_self_s"] = per_op(self_s(width))
        parents = a["name"][np.maximum(a["parent"], 0)]
        cal_ids = [i for i, n in enumerate(self.names) if n == "calibration.calibrate_config"]
        m["calibration.sweeps"] = per_op(float(np.count_nonzero(
            spans(sweep) & in_op & has_parent & np.isin(parents, cal_ids))))
        m["calibration.self_s"] = per_op(self_s(layer("calibration")))

        m["experiments.self_s"] = per_op(self_s(layer("experiments")))
        m["experiments.files_written"] = per_op(c.get("experiments.files", 0.0))
        m["experiments.bytes_written"] = per_op(c.get("experiments.bytes", 0.0))

        for key, value in m.items():
            if value == 0.0:
                notes.setdefault(key, "not exercised on this workload")
        return m, notes


# -- hooks: counts taken where the work happens ---------------------------------

def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _dispersion_points(tr, fn, args, kwargs, result):
    tr.count("dispersion.points", float(np.size(result)))


def _resonance_roots(tr, fn, args, kwargs, result):
    tr.count("elements.roots", float(np.size(result)))


def _sweep(tr, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    device, constraints = bound["device"], bound["constraints"]
    step_fn = tr.originals.get("matching.sweep_step_K")
    if step_fn is not None:
        step = step_fn(device, constraints)
        span = constraints.t_max_K - constraints.t_min_K
        tr.count("matching.grid_points", float(math.floor(span / step + 1e-9) + 1))
    tr.count("matching.matches", float(len(result)))
    key = (device.width_nm, constraints, tr.model_hash(device.dispersion))
    if key in tr._op_sweeps:
        tr.count("matching.repeats")
    tr._op_sweeps.add(key)


def _rk4(tr, fn, args, kwargs, result):
    tr.count("conversion.rk4_steps", float(_bound(fn, args, kwargs)["steps"]))


def _files(tr, fn, args, kwargs, result):
    import os

    tr.count("experiments.files", float(len(result)))
    tr.count("experiments.bytes", float(sum(os.path.getsize(p) for p in result)))


_HOOKS = {
    **{f"dispersion.DispersionModel.{m}": _dispersion_points for m in DISPERSION_EVALS},
    "elements.solve_resonance_wavelength": _resonance_roots,
    "matching.find_triple_resonance": _sweep,
    "conversion.evolve_mean_field": _rk4,
    "experiments.run_experiment": _files,
}
