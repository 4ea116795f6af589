"""Which qfluid functions the traced run wraps, and the per-layer metrics.

A layer is a named group of public functions of one module; its time is
the summed self time of their spans, so a layer that calls another (a
velocity-field build calls the spectral gradient) is charged only for its
own work. Public functions a group does not name fall into the module's
``other`` layer, so the self times of all layers add up to the traced
wall time of a pass.
"""

from __future__ import annotations

import inspect
import itertools
import weakref

import numpy as np

from tracer import Tracer

# explicit groups: layer -> (module, function names)
_FUNCTION_GROUPS = {
    "grids.spectral": ("grids", ["gradient", "laplacian", "divergence", "complex_gradient"]),
    "grids.stencil": ("grids", ["fd_derivative", "fd_second_derivative"]),
    "oracle.split_step": ("oracle", ["split_step_evolve"]),
    "oracle.eigensolve": ("oracle", ["stationary_states"]),
    "madelung.step": ("madelung", ["madelung_step"]),
    "ensemble.transport_self": ("ensemble", ["propagate_ensemble"]),
    "ensemble.stats": ("ensemble", ["sample_equilibrium", "ks_statistic",
                                    "equivariance_distance", "coarse_grained_H",
                                    "bootstrap_coarse_H"]),
    "measurement.brute": ("measurement", ["pointer_measurement_brute"]),
    "fieldio.write": ("fieldio", ["write_field_csv", "write_vector_csv"]),
    "experiments.self": ("experiments", ["run", "sweep", "report"]),
}
# modules whose every public function forms one layer
_MODULE_LAYERS = {"twofluid": "twofluid.average", "conditional": "conditional.guidance"}
_METHOD_GROUPS = {
    "ensemble.velocity_build": [("VelocityField", "__init__")],
    "ensemble.velocity_at": [("VelocityField", "at")],
    "ensemble.timeline": [("WaveTimeline", "from_oracle"), ("WaveTimeline", "velocity"),
                          ("WaveTimeline", "at"), ("OracleTimeline", "velocity"),
                          ("OracleTimeline", "at")],
}
_MODULES = ["grids", "oracle", "madelung", "twofluid", "ensemble", "conditional",
            "measurement", "fieldio", "experiments"]

# Computed bytes, from array sizes and ignoring caches. A split step makes
# three elementwise products (read two complex arrays, write one), two FFTs
# (read and write one complex array each) and a norm (read psi, write and
# read |psi|^2): 9 + 4 + 2 complex-array passes of 16 bytes per point.
SPLIT_STEP_BYTES_PER_POINT = 15 * 16


def velocity_at_bytes_per_point(dims: int) -> int:
    """Position read, 2**dims corner gathers of psi and of each gradient
    component (complex), velocity written."""
    return 8 * dims + (1 + dims) * 2**dims * 16 + 8 * dims


def _binder(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


class LayerTrace:
    """A Tracer installed on the qfluid layers, with their count hooks."""

    def __init__(self):
        import qfluid  # loads every traced module
        self.tracer = Tracer()
        # timelines are told apart by a serial, not id(), which is reused
        self._serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count()
        self._fields: set[tuple[int, int]] = set()
        modules = {name: getattr(qfluid, name) for name in _MODULES}
        hooks = self._hooks(modules)

        grouped = set()
        for layer, (mod, names) in _FUNCTION_GROUPS.items():
            for name in names:
                grouped.add((mod, name))
                self.tracer.trace_function(modules[mod], name, layer, hooks.get(name))
        for mod_name, module in modules.items():
            for name in getattr(module, "__all__", []):
                value = getattr(module, name)
                if (mod_name, name) in grouped or not inspect.isfunction(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                layer = _MODULE_LAYERS.get(mod_name, f"{mod_name}.other")
                self.tracer.trace_function(module, name, layer, hooks.get(name))
        for layer, methods in _METHOD_GROUPS.items():
            for cls_name, name in methods:
                cls = getattr(modules["ensemble"], cls_name)
                self.tracer.trace_method(cls, name, layer, hooks.get(f"{cls_name}.{name}"))

    def _hooks(self, modules):
        ens, oracle, meas = modules["ensemble"], modules["oracle"], modules["measurement"]
        bind_prop = _binder(ens.propagate_ensemble)
        bind_split = _binder(oracle.split_step_evolve)
        bind_brute = _binder(meas.pointer_measurement_brute)

        def velocity_at(tracer, args, kwargs, result):
            dims = args[0].grid.dims
            n = np.size(args[1] if len(args) > 1 else kwargs["positions"]) // dims
            tracer.counters["velocity_at_points"] += n
            tracer.counters["velocity_at_bytes"] += n * velocity_at_bytes_per_point(dims)

        def propagate(tracer, args, kwargs, result):
            a = bind_prop(args, kwargs)
            tracer.counters["trajectory_steps"] += a["ens"].size * a["steps"]
            tracer.counters["capped_evaluations"] += result.events.capped
            tracer.counters["evaluations"] += result.events.evaluations

        def split(tracer, args, kwargs, result):
            a = bind_split(args, kwargs)
            tracer.counters["split_steps"] += a["steps"]
            tracer.counters["split_bytes"] += (a["steps"] * SPLIT_STEP_BYTES_PER_POINT
                                               * a["state"].psi.grid.size)

        def brute(tracer, args, kwargs, result):
            a = bind_brute(args, kwargs)
            tracer.counters["brute_steps"] += round(a["duration"] / a["dt"])

        def timeline_velocity(tracer, args, kwargs, result):
            timeline, t = args[0], (args[1] if len(args) > 1 else kwargs["t"])
            serial = self._serials.get(timeline)
            if serial is None:
                serial = self._serials[timeline] = next(self._next_serial)
            self._fields.add((serial, timeline.index_of(t)))

        def counter(name):
            def hook(tracer, args, kwargs, result):
                tracer.counters[name] += 1
            return hook

        def written(tracer, args, kwargs, result):
            tracer.counters["fieldio_bytes"] += result.stat().st_size

        return {
            "VelocityField.at": velocity_at,
            "propagate_ensemble": propagate,
            "split_step_evolve": split,
            "pointer_measurement_brute": brute,
            "WaveTimeline.velocity": timeline_velocity,
            "OracleTimeline.velocity": timeline_velocity,
            "equivariance_distance": counter("histograms"),
            "coarse_grained_H": counter("histograms"),
            "conditional_guiding_velocity": counter("guidance_calls"),
            "fluid2_microstep": counter("microsteps"),
            "write_field_csv": written,
        }

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (see README.md)."""
        self_s, calls = self.tracer.layer_totals()
        c = self.tracer.counters

        def s(layer):
            return self_s.get(layer, 0.0)

        def n(layer):
            return calls.get(layer, 0)

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        points = c["velocity_at_points"]
        steps = c["split_steps"]
        out = {
            "ensemble.velocity_at_s": (s("ensemble.velocity_at"), "s"),
            "ensemble.velocity_at_points": (points, "count"),
            "ensemble.velocity_at_ns_per_point": (ratio(s("ensemble.velocity_at"), points, 1e9), "ns"),
            "ensemble.velocity_at_computed_bytes": (c["velocity_at_bytes"], "B"),
            "ensemble.transport_self_s": (s("ensemble.transport_self"), "s"),
            "ensemble.trajectory_steps": (c["trajectory_steps"], "count"),
            "ensemble.velocity_build_s": (s("ensemble.velocity_build"), "s"),
            "ensemble.velocity_builds": (n("ensemble.velocity_build"), "count"),
            "ensemble.builds_per_field": (ratio(n("ensemble.velocity_build"), len(self._fields)), "ratio"),
            "ensemble.timeline_s": (s("ensemble.timeline"), "s"),
            "ensemble.stats_s": (s("ensemble.stats"), "s"),
            "ensemble.histograms": (c["histograms"], "count"),
            "ensemble.other_s": (s("ensemble.other"), "s"),
            "ensemble.capped_fraction": (ratio(c["capped_evaluations"], c["evaluations"]), "frac"),
            "oracle.split_step_s": (s("oracle.split_step"), "s"),
            "oracle.split_step_calls": (n("oracle.split_step"), "count"),
            "oracle.split_steps": (steps, "count"),
            "oracle.split_step_us": (ratio(s("oracle.split_step"), steps, 1e6), "us"),
            "oracle.split_step_computed_bytes": (c["split_bytes"], "B"),
            "oracle.eigensolve_s": (s("oracle.eigensolve"), "s"),
            "oracle.eigensolve_calls": (n("oracle.eigensolve"), "count"),
            "oracle.other_s": (s("oracle.other"), "s"),
            "grids.spectral_s": (s("grids.spectral"), "s"),
            "grids.spectral_calls": (n("grids.spectral"), "count"),
            "grids.stencil_s": (s("grids.stencil"), "s"),
            "grids.stencil_calls": (n("grids.stencil"), "count"),
            "grids.other_s": (s("grids.other"), "s"),
            "madelung.step_s": (s("madelung.step"), "s"),
            "madelung.steps": (n("madelung.step"), "count"),
            "madelung.other_s": (s("madelung.other"), "s"),
            "measurement.brute_s": (s("measurement.brute"), "s"),
            "measurement.brute_steps": (c["brute_steps"], "count"),
            "measurement.other_s": (s("measurement.other"), "s"),
            "twofluid.average_s": (s("twofluid.average"), "s"),
            "twofluid.microsteps": (c["microsteps"], "count"),
            "conditional.guidance_s": (s("conditional.guidance"), "s"),
            "conditional.guidance_calls": (c["guidance_calls"], "count"),
            "fieldio.write_s": (s("fieldio.write"), "s"),
            "fieldio.bytes": (c["fieldio_bytes"], "B"),
            "fieldio.other_s": (s("fieldio.other"), "s"),
            "experiments.self_s": (s("experiments.self"), "s"),
            "trace.spans": (len(self.tracer.spans), "count"),
            "trace.span_cost_ns": (self.tracer.span_cost() * 1e9, "ns"),
        }
        return {name: {"value": float(v), "unit": u} for name, (v, u) in out.items()}
