"""Spans around the calls into each `tlsbath` module, recorded from outside.

`Tracer.installed()` replaces every public function of the five modules by a
wrapper under each name a caller looks it up by: the defining module, the
package, and every module that imported it (for example `rho00_closed_form`
inside `experiments`). It also wraps `Propagator.__init__`,
`Propagator.unitary`, `numpy.linalg.eigh` (which only `Propagator` calls) and
`cli.main`, the root of every operation. Spans stay in memory; `layer_metrics`
turns them into per-layer figures.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from typing import NamedTuple

LAYERS = ("cli", "experiments", "analytics", "dynamics", "model")
ENGINES = ("sampled-coarse", "sampled-exact", "nonselective-coarse", "nonselective-exact")
ENV_BUILD = ("model.build_band_environment", "model.build_spin_environment")
# What `dynamics.engine_self_s` leaves out of `run_ensemble`.
NOT_ENGINE = ("dynamics.Propagator", "dynamics.eigh", "dynamics.unitary",
              "model.build_total_hamiltonian")


class Span(NamedTuple):
    name: str          # "<layer>.<function>"
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at the root
    tag: object        # engine run: (combo, trajectory steps); eigh: dimension

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self._spans: list[list] = []
        self._stack: list[int] = []

    @property
    def spans(self) -> list[Span]:
        return [Span(*s) for s in self._spans]

    def wrap(self, name: str, fn, tag=None):
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), None, stack[-1] if stack else -1,
                      tag(*args, **kwargs) if tag else None]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers' functions for the duration of the block."""
        import numpy

        package = importlib.import_module("tlsbath")
        modules = {layer: importlib.import_module(f"tlsbath.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for layer, module in modules.items():
            # `cli` has no __all__; its entry point is the root of every span tree.
            for attr in getattr(module, "__all__", ["main"]):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                tag = _engine_tag(fn) if attr == "run_ensemble" else None
                wrapped = self.wrap(f"{layer}.{attr}", fn, tag)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            patch(ns, key, wrapped)
        prop = modules["dynamics"].Propagator
        patch(prop, "__init__", self.wrap("dynamics.Propagator", prop.__init__))
        patch(prop, "unitary", self.wrap("dynamics.unitary", prop.unitary))
        patch(numpy.linalg, "eigh", self.wrap("dynamics.eigh", numpy.linalg.eigh,
                                              lambda a, *_, **__: a.shape[-1]))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)


def _engine_tag(run_ensemble):
    signature = inspect.signature(run_ensemble)

    def tag(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        width = a["n_traj"] if a["engine"] == "sampled" else 1
        return f"{a['engine']}-{a['reset_mode']}", a["steps"] * width

    return tag


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, lo, hi = 0.0, None, None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    return total if hi is None else total + hi - lo


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(kids) for s, kids in zip(spans, children)]


def _descendants(spans: list[Span], i: int):
    """Spans inside span i; spans are recorded in start order on one thread."""
    for s in spans[i + 1:]:
        if s.start >= spans[i].end:
            break
        yield s


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer time and counts from one traced pass."""
    own = self_times(spans)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update({"analytics.calls": 0, "model.env_build_s": 0.0, "model.env_build_calls": 0,
              "model.hamiltonian_s": 0.0, "model.hamiltonian_calls": 0,
              "dynamics.eigh_s": 0.0, "dynamics.eigh_calls": 0, "dynamics.joint_dim": 0,
              "dynamics.unitary_s": 0.0})
    for combo in ENGINES:
        m[f"dynamics.engine_self_s.{combo}"] = 0.0
        m[f"dynamics.traj_steps.{combo}"] = 0
    for i, s in enumerate(spans):
        took = s.end - s.start
        m[f"{s.layer}.self_s"] += own[i]
        if s.layer == "analytics" and (s.parent < 0 or spans[s.parent].layer != "analytics"):
            m["analytics.calls"] += 1
        if s.name in ENV_BUILD:
            m["model.env_build_s"] += took
            m["model.env_build_calls"] += 1
        elif s.name == "model.build_total_hamiltonian":
            m["model.hamiltonian_s"] += took
            m["model.hamiltonian_calls"] += 1
        elif s.name == "dynamics.eigh":
            m["dynamics.eigh_s"] += took
            m["dynamics.eigh_calls"] += 1
            m["dynamics.joint_dim"] = max(m["dynamics.joint_dim"], s.tag)
        elif s.name == "dynamics.unitary":
            m["dynamics.unitary_s"] += took
        elif s.name == "dynamics.run_ensemble":
            combo, steps = s.tag
            inner = [(d.start, d.end) for d in _descendants(spans, i) if d.name in NOT_ENGINE]
            m[f"dynamics.engine_self_s.{combo}"] += took - covered(inner)
            m[f"dynamics.traj_steps.{combo}"] += steps
    for combo in ENGINES:
        steps = m[f"dynamics.traj_steps.{combo}"]
        m[f"dynamics.us_per_traj_step.{combo}"] = (
            1e6 * m[f"dynamics.engine_self_s.{combo}"] / steps if steps else 0.0)
    m["analytics.s"] = m.pop("analytics.self_s")
    return m
