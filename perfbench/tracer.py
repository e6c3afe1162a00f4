"""Outside-in span tracer for fpsim.

The tracer wraps public functions and methods of the already imported
``fpsim`` modules by name; nothing under ``src/`` is edited.  Each wrapper
forwards ``*args, **kwargs`` untouched and records one span (name, start,
end, parent).  Spans stay in memory until ``write_spans`` is called at the
end of the run.

Refactor-proofing rules:

- A function is found by (module, attribute) and then every attribute of
  every loaded ``fpsim.*`` module bound to that same object is replaced,
  because fpsim imports names directly (``harness.select_cohort``,
  ``secagg.stochastic_round``, ``vectors.fwht_inplace``).  A target with
  ``only_in`` is patched in that module alone.
- A method is replaced on the class that defines it, so subclasses that
  inherit it are covered and overrides are wrapped separately.
- A name that has gone reports 0 calls instead of failing the run.
- Arguments are never inspected, except the array handed to the FWHT
  kernel, whose size gives the computed operation and byte counts.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
import time
from dataclasses import dataclass

# (span name, module, attribute, only_in).  An attribute "Class.method"
# names a method.  The list follows the layer table in perfbench/README.md.
TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("harness.run_experiment", "fpsim.harness", "run_experiment", None),
    ("harness.sweep_privacy", "fpsim.harness", "sweep_privacy", None),
    ("data.synthesize_clients", "fpsim.data", "synthesize_clients", None),
    ("federation.select_cohort", "fpsim.federation", "select_cohort", None),
    ("federation.run_round", "fpsim.federation", "run_round", None),
    ("federation.client_update", "fpsim.federation", "client_update", None),
    ("models.loss_grad", "fpsim.models", "SoftmaxRegression.loss_grad", None),
    ("models.loss_grad", "fpsim.models", "NextTokenBOW.loss_grad", None),
    ("models.featurize", "fpsim.models", "SoftmaxRegression.featurize", None),
    ("models.featurize", "fpsim.models", "NextTokenBOW.featurize", None),
    ("models.accuracy", "fpsim.models", "SoftmaxRegression.accuracy", None),
    ("models.accuracy", "fpsim.models", "NextTokenBOW.accuracy", None),
    ("secagg.encode_client", "fpsim.secagg", "encode_client", None),
    ("secagg.modular_sum", "fpsim.secagg", "modular_sum", None),
    ("secagg.decode", "fpsim.secagg", "decode", None),
    ("kernels.stochastic_round", "fpsim._kernels", "stochastic_round", None),
    ("vectors.randomized_hadamard", "fpsim.vectors", "randomized_hadamard", None),
    ("kernels.fwht", "fpsim._kernels", "fwht_inplace", None),
    ("tree.add_round", "fpsim.tree", "TreeState.add_round", None),
    ("tree.node_draws", "fpsim.tree", "gaussian_vector", "fpsim.tree"),
    ("clipping.add_round", "fpsim.clipping", "ClipState.add_round", None),
    ("accounting.zcdp", "fpsim.accounting", "zcdp", None),
    ("accounting.zcdp_to_eps", "fpsim.accounting", "zcdp_to_eps", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))

FWHT_SPAN = "kernels.fwht"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    """Holds the spans of one run; ``active`` gates recording."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.fwht_ops = 0.0
        self.fwht_bytes = 0.0
        self._stack: list[int] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists in the loaded fpsim modules."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "fpsim" or name.startswith("fpsim."))
        }
        for span_name, module_name, attribute, only_in in TARGETS:
            module = modules.get(module_name)
            if module is None:
                continue
            if "." in attribute:
                self._wrap_method(span_name, module, attribute)
            elif only_in is None:
                self._wrap_function(span_name, module, attribute, modules.values())
            elif only_in in modules:
                self._wrap_function(span_name, module, attribute, [modules[only_in]])

    def _wrap_function(self, span_name: str, module, attribute: str, scope) -> None:
        target = getattr(module, attribute, None)
        if not callable(target):
            return
        wrapper = self._wrapper(span_name, target)
        for mod in scope:
            for name, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, name, wrapper)

    def _wrap_method(self, span_name: str, module, attribute: str) -> None:
        class_name, method_name = attribute.split(".", 1)
        cls = getattr(module, class_name, None)
        if not isinstance(cls, type):
            return
        target = vars(cls).get(method_name)
        # Only plain functions defined on this very class; an inherited
        # method is wrapped on its defining class.
        if not callable(target) or isinstance(target, (staticmethod, classmethod, type)):
            return
        setattr(cls, method_name, self._wrapper(span_name, target))

    def _wrapper(self, span_name: str, fn):
        tracer = self
        count_fwht = span_name == FWHT_SPAN

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count_fwht and args:
                tracer._count_fwht(args[0])
            stack = tracer._stack
            index = len(tracer.spans)
            span = Span(span_name, 0.0, 0.0, stack[-1] if stack else -1)
            tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return functools.wraps(fn)(traced)

    def _count_fwht(self, array) -> None:
        shape = getattr(array, "shape", None)
        if not shape or shape[-1] < 2:
            return
        passes = math.log2(shape[-1])
        # One add or subtract per element per butterfly pass; each pass
        # reads and writes every float64 element once.  Computed, not
        # measured.
        self.fwht_ops += array.size * passes
        self.fwht_bytes += 16.0 * array.size * passes

    # -- results -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time (duration minus the
        time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for span, covered in zip(self.spans, child_time):
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += (span.end - span.start) - covered
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "name", "start", "end", "parent"))
            for index, span in enumerate(self.spans):
                writer.writerow((index, span.name, repr(span.start), repr(span.end), span.parent))
