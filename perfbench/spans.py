"""Outside-in tracing of the powerlaw_spde layers.

The tracer wraps functions of the package from outside: it replaces every
name binding of each target in every loaded ``powerlaw_spde`` module, because
the modules import each other's functions by name (``from .basis import
synthesize``), so patching only the defining module would miss most calls.
Spans are kept in memory as ``[name, parent index, start ns, end ns]`` and
reduced to self time and call counts per span name by ``summary``.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "powerlaw_spde"

# span name -> "module:attribute" targets; an attribute may be "Class.method".
SPANS = {
    "basis.synthesize": ["basis:synthesize"],
    "basis.gradient": ["basis:velocity_gradient", "basis:symmetric_gradient"],
    "basis.analyze": ["basis:analyze"],
    "basis.build_space": ["basis:build_space", "basis:GalerkinSpace.mode_eps"],
    "constitutive.eval_stress": ["constitutive:eval_stress"],
    "constitutive.stress_potential": ["constitutive:stress_potential"],
    "constitutive.stabilizer": ["constitutive:eval_stabilizer",
                                "constitutive:stabilizer_potential"],
    "noise.apply_phi": ["noise:apply_phi"],
    "noise.wiener_generate": ["noise:WienerPath.generate"],
    "galerkin.step": ["galerkin:step"],
    "galerkin.stress_force": ["galerkin:stress_force"],
    "galerkin.convection_force": ["galerkin:convection_force"],
    "galerkin.assemble_diffusion": ["galerkin:assemble_diffusion"],
    "galerkin.run_trajectory": ["galerkin:run_trajectory"],
    "pressure.fft": ["pressure:inverse_laplacian", "pressure:laplacian",
                     "pressure:gradient_scalar", "pressure:divergence_vector",
                     "pressure:div_div_tensor", "pressure:_field_gradient"],
    "pressure.assemble_H": ["pressure:assemble_H"],
    "pressure.decompose": ["pressure:decompose"],
    "pressure.estimate_check": ["pressure:estimate_check"],
    "analysis.run_ensemble": ["analysis:run_ensemble"],
    "analysis.report": ["analysis:report_from_trajectories",
                        "analysis:EnergyReport.as_dict"],
    "config.build": ["config:SimulationConfig.load",
                     "config:SimulationConfig.build_params",
                     "config:SimulationConfig.build_space",
                     "config:SimulationConfig.build_noise",
                     "config:SimulationConfig.build_forcing",
                     "config:SimulationConfig.build_initial",
                     "config:SimulationConfig.build_step_config"],
}

# The root span around the whole command; its self time is the command's
# time outside every other span.
COMMAND_SPAN = "cli"


class Tracer:
    """Records nested spans of wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    def install(self) -> None:
        """Wrap every target of SPANS; raises if a target no longer exists."""
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, targets in SPANS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                if "." in attr:
                    self._wrap_class_attr(name, module, *attr.split("."))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)

    def _wrap_class_attr(self, name, module, cls_name, attr) -> None:
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, functools.cached_property):
            new = functools.cached_property(self.wrap(name, raw.func))
            new.__set_name__(cls, attr)
        else:
            new = self.wrap(name, raw)
        self._patch(cls, attr, new)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call(self, fn, *args):
        """Call fn inside the root span."""
        return self.wrap(COMMAND_SPAN, fn)(*args)

    def summary(self) -> dict[str, tuple[int, int]]:
        """{span name: (self ns, calls)} of the recorded spans, which it clears.

        A call is an entry into the span name from a different one, so a
        wrapped function calling another of the same span counts once.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, tuple[int, int]] = {}
        for i, (name, parent, start, end) in enumerate(spans):
            self_ns, calls = out.get(name, (0, 0))
            entered = parent < 0 or spans[parent][0] != name
            out[name] = (self_ns + end - start - child_ns[i], calls + entered)
        spans.clear()
        return out
