"""Per-layer tracing of qmultimeter from outside the package.

Every public function defined in a traced module is replaced, in every
``qmultimeter`` module that binds it, by a wrapper that records one span
``(name, start, end, parent, operation)``.  Rebinding the name in each
module that imports it means calls within and between modules are seen,
not only the benchmark's own calls.  Nothing under ``src/`` is edited and
:meth:`Tracer.uninstall` restores the original bindings.

Spans are recorded only while an operation is open, so generating inputs
outside operations costs nothing but the wrapper's one test.  Spans live
in compact arrays in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

#: Layers of the package, by module name under ``qmultimeter``.
MODULES = ("cli", "verify", "multimeter", "observables", "channels", "operators")

#: Functions whose calls and self time are reported one by one.  Induction
#: is split by the probe's ``ndim``: ``.pure`` for a vector, ``.mixed`` for
#: a density matrix.
REPORTED_FUNCTIONS = (
    "cli.execute",
    "cli.build_objects",
    "cli.emit_report",
    "cli.parse_report",
    "verify.counterexample_search",
    "verify.check_sharp_program_orthogonality",
    "verify.check_channel_program_orthogonality",
    "verify.check_convex_hull",
    "verify.check_purification",
    "multimeter.push_button_multimeter",
    "multimeter.shared_pointer_multimeter",
    "multimeter.minimal_dilation_multimeter",
    "multimeter.builtin_multimeter",
    "multimeter.make_multimeter",
    "multimeter.make_model",
    "multimeter.induced_observable.pure",
    "multimeter.induced_observable.mixed",
    "multimeter.induced_channel.pure",
    "multimeter.induced_channel.mixed",
    "observables.make_observable",
    "observables.is_extreme",
    "observables.sharpness_residual",
    "observables.post_process",
    "observables.observable_distance",
    "channels.make_channel",
    "channels.choi_matrix",
    "channels.multiplicativity_residual",
    "channels.is_extreme_channel",
    "channels.channel_distance",
    "channels.apply",
    "operators.haar_unitary",
    "operators.random_state_vector",
    "operators.frobenius_norm",
    "operators.tensor",
    "operators.embed_factors",
    "operators.embed_program_isometry",
    "operators.check_state_vector",
    "operators.check_density_operator",
)

_SPLIT_BY_PROBE = ("multimeter.induced_observable", "multimeter.induced_channel")
_SEARCH = "verify.counterexample_search"
_OP = "op"


def _public_functions(module) -> dict:
    """Public functions defined in ``module`` itself, by name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _probe_kind(args, kwargs) -> str:
    model = args[0] if args else kwargs["model"]
    return "pure" if model.probe.ndim == 1 else "mixed"


class Tracer:
    """Span recorder that wraps the public functions of the traced layers."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        # 1 when no enclosing span belongs to the same module (busy time).
        self.span_outer = array("b")
        self._stack: list = []
        self._module_depth: Counter = Counter()
        self._op_id = -1
        self.search_samples = 0
        self.verdicts: Counter = Counter()
        self.traced: set = set()
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name: str, module: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self._op_id)
        self.span_outer.append(self._module_depth[module] == 0)
        self._module_depth[module] += 1
        self._stack.append(idx)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, module: str) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        self._module_depth[module] -= 1

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Open the root span of one operation; spans inside it are recorded."""
        self._op_id = op_id
        idx = self._open(_OP, _OP)
        try:
            yield
        finally:
            self._close(idx, _OP)
            self._op_id = -1

    def wrap(self, qualname: str, fn):
        """Wrapper that records a span and returns exactly what ``fn`` returns."""
        module = qualname.split(".", 1)[0]
        split = qualname in _SPLIT_BY_PROBE
        search = qualname == _SEARCH
        verify = module == "verify"
        signature = inspect.signature(fn) if search else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            name = f"{qualname}.{_probe_kind(args, kwargs)}" if split else qualname
            idx = self._open(name, module)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, module)
            if search:
                self.search_samples += int(signature.bind(*args, **kwargs).arguments["trials"])
            if verify and hasattr(result, "verdict"):
                self.verdicts[result.verdict] += 1
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every public function of the traced layers to its wrapper."""
        package = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "qmultimeter" or name.startswith("qmultimeter.")
        ]
        for short in MODULES:
            module = importlib.import_module(f"qmultimeter.{short}")
            for name, fn in _public_functions(module).items():
                qualname = f"{short}.{name}"
                wrapper = self.wrap(qualname, fn)
                self.traced.add(qualname)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """Spans as arrays; ``self_s`` subtracts the duration of child spans."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        duration = end - start
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.span_op, dtype=np.int64),
            "outer": np.frombuffer(self.span_outer, dtype=np.int8).astype(bool),
            "duration": duration,
            "self_s": duration - children,
        }

    def write(self, path: Path) -> None:
        """Write every span and the name table to a compressed ``.npz`` file."""
        s = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            **{k: s[k] for k in ("name", "start", "end", "parent", "op")},
        )

    def per_name(self) -> dict:
        """``{name: (calls, self_s, busy_s, total_s)}`` over all recorded spans.

        ``busy_s`` sums only spans with no enclosing span of the same module,
        so nested calls within a layer are not counted twice.
        """
        s = self.spans()
        k = len(self.names)
        ids = s["name"]
        calls = np.bincount(ids, minlength=k)
        own = np.bincount(ids, weights=s["self_s"], minlength=k)
        busy = np.bincount(ids, weights=np.where(s["outer"], s["duration"], 0.0), minlength=k)
        total = np.bincount(ids, weights=s["duration"], minlength=k)
        return {
            name: (int(calls[i]), float(own[i]), float(busy[i]), float(total[i]))
            for i, name in enumerate(self.names)
            if name != _OP
        }

    def layer_metrics(self) -> tuple[dict, list]:
        """Per-layer metrics as ``{name: (value, unit)}`` and the missing names.

        A reported function that the package no longer defines is listed as
        missing and reported with zero calls.
        """
        rows = self.per_name()
        metrics = {}
        for module in MODULES:
            mine = [row for name, row in rows.items() if name.split(".", 1)[0] == module]
            metrics[f"{module}.busy_s"] = (sum((row[2] for row in mine), 0.0), "s")
            metrics[f"{module}.self_s"] = (sum((row[1] for row in mine), 0.0), "s")
        missing = []
        for name in REPORTED_FUNCTIONS:
            base = name.removesuffix(".pure").removesuffix(".mixed")
            if base not in self.traced:
                missing.append(name)
            calls, own, _, _ = rows.get(name, (0, 0.0, 0.0, 0.0))
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (own, "s")
        search_s = rows.get(_SEARCH, (0, 0.0, 0.0, 0.0))[3]
        metrics["verify.search_us_per_sample"] = (
            1e6 * search_s / self.search_samples if self.search_samples else 0.0,
            "us",
        )
        checked = sum(self.verdicts.values())
        applicable = self.verdicts["pass"] + self.verdicts["fail"]
        metrics["verify.applicable_ratio"] = (applicable / checked if checked else 0.0, "ratio")
        metrics["trace.missing_functions"] = (len(missing), "count")
        return metrics, missing
