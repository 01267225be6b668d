"""Per-layer tracing of cuspred, installed from outside the package.

The tracer replaces the public functions listed in LAYER_FUNCTIONS by
wrappers that record one span per call: name, start, end, parent span and
operation id.  Spans stay in memory until the run writes them out.

`from .x import f` copies a function into every importing module, so a
wrapper is bound under every name of every loaded cuspred module whose
value *is* the original function.  Calls inside the defining module go
through its globals, which are rebound too.

A generator function is timed only while it is being iterated: each
resumption is its own span, and the call is counted once.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# (module, function) pairs traced, in the order they are reported.
LAYER_FUNCTIONS = (
    ("ffpoly", "field_table"),
    ("ffpoly", "enumerate_self_dual_classes"),
    ("ffpoly", "count_self_dual_classes"),
    ("groups", "enumerate_parahorics"),
    ("cuspdata", "enumerate_signatures"),
    ("cuspdata", "signature_representative"),
    ("cuspdata", "enumerate_data"),
    ("cuspdata", "enumerate_supports"),
    ("cuspdata", "count_representations"),
    ("hecke", "ired"),
    ("hecke", "reducibility_pair"),
    ("hecke", "iteration_domain"),
    ("hecke", "verify_identity"),
    ("hecke", "reducibility_report"),
    ("hecke", "parameter_shapes"),
    ("packets", "companions"),
    ("packets", "enumerate_epsilon"),
    ("packets", "cross_form_companions"),
    ("packets", "packet_stats"),
    ("packets", "full_orthogonal_count"),
    ("packets", "q_sets"),
    ("packets", "recover_m_pair"),
    ("selfcheck", "run_selfcheck"),
    ("cli", "datum_from_obj"),
    ("cli", "datum_to_obj"),
    ("fixtures", "evaluate_entry"),
)

SUBCOMMANDS = ("validate", "describe", "packet", "crossform", "enumerate",
               "selfcheck", "examples")

# Time per selfcheck check, derived from the public functions each check
# calls directly from the sweep loop.
CHECK_FUNCTIONS = {
    "identity": ("hecke.verify_identity",),
    "recovery": ("hecke.iteration_domain", "hecke.reducibility_pair",
                 "packets.recover_m_pair"),
    "epsilon": ("packets.companions", "packets.enumerate_epsilon"),
    "census-law": ("packets.packet_stats",),
}

# Work counters: (name, unit).
COUNTERS = (
    ("ffpoly.enumerate_self_dual_classes.classes", "count"),
    ("cuspdata.enumerate_signatures.signatures", "count"),
    ("cuspdata.enumerate_data.data", "count"),
    ("packets.companions.subsets_tried", "count"),
    ("packets.companions.survivors", "count"),
    ("packets.cross_form_companions.subsets_tried", "count"),
    ("packets.cross_form_companions.survivors", "count"),
    ("packets.cross_form_companions.forms", "count"),
)


def span_names() -> list[str]:
    """Every span name the tracer can record, in report order."""
    names = [f"{module}.{func}" for module, func in LAYER_FUNCTIONS]
    names[names.index("cli.datum_from_obj"):names.index("cli.datum_from_obj")] = [
        f"cli.main.{sub}" for sub in SUBCOMMANDS]
    return names


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for name in span_names():
        specs += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"),
                  (f"{name}.self_s", "s")]
    specs += list(COUNTERS)
    specs += [("packets.companions.useful_ratio", "ratio"),
              ("packets.cross_form_companions.useful_ratio", "ratio")]
    specs += [(f"selfcheck.check.{check}.total_s", "s") for check in CHECK_FUNCTIONS]
    specs += [("trace.spans", "count"), ("trace.overhead_s", "s")]
    return specs


class Tracer:
    """Span recorder.

    Spans are kept in columns, one entry per span: name id (an index into
    self.names), start and end (perf_counter seconds), parent span index
    (-1 for none), operation id, and whether a span of the same name
    encloses it.
    """

    def __init__(self) -> None:
        self.names = span_names()
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.nested = array("b")
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {name: 0 for name, _ in COUNTERS}
        self.op = 0
        self._stack: list[int] = []
        self._open = [0] * len(self.names)  # open spans per name id
        self._restore: list[tuple[object, str, object]] = []
        self._paused = False

    # ------------------------------------------------------------ recording

    def _enter(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.nested.append(self._open[name_id] > 0)
        self.ends.append(0.0)
        self._open[name_id] += 1
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        self._open[self.name_ids[index]] -= 1

    def _count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def _wrap(self, name: str, func):
        tracer = self
        name_id = self._ids.get(name)

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                if tracer._paused:
                    yield from func(*args, **kwargs)
                    return
                tracer._count(name)
                gen = func(*args, **kwargs)
                while True:
                    index = tracer._enter(name_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(index)
                    tracer._after(name, item)
                    yield item
            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return func(*args, **kwargs)
            span, span_id = name, name_id
            if name == "cli.main":
                argv = args[0] if args else kwargs["argv"]
                span = f"cli.main.{argv[0]}"
                span_id = tracer._ids[span]
            tracer._count(span)
            index = tracer._enter(span_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(index)
            tracer._after(name, result, args)
            return result
        return wrapper

    def _after(self, name: str, result, args=()) -> None:
        """Update the work counters from a traced call's result."""
        c = self.counters
        if name == "ffpoly.enumerate_self_dual_classes":
            c["ffpoly.enumerate_self_dual_classes.classes"] += len(result)
        elif name == "cuspdata.enumerate_signatures":
            c["cuspdata.enumerate_signatures.signatures"] += 1
        elif name == "cuspdata.enumerate_data":
            c["cuspdata.enumerate_data.data"] += len(result)
        elif name == "packets.companions":
            c["packets.companions.subsets_tried"] += 2 ** result.qsets.q
            c["packets.companions.survivors"] += len(result.companions)
        elif name == "packets.cross_form_companions":
            self._paused = True
            try:
                q = self._q_sets(args[0]).q
            finally:
                self._paused = False
            c["packets.cross_form_companions.subsets_tried"] += len(result) * 2 ** q
            c["packets.cross_form_companions.survivors"] += sum(
                len(entry.companions) for entry in result)
            c["packets.cross_form_companions.forms"] += len(result)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Bind wrappers in every loaded cuspred module."""
        import cuspred.cli  # noqa: F401  loads every layer module
        import cuspred.packets

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cuspred" or n.startswith("cuspred."))]
        self._q_sets = cuspred.packets.q_sets
        for module_name, func_name in LAYER_FUNCTIONS + (("cli", "main"),):
            original = getattr(sys.modules[f"cuspred.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # ------------------------------------------------------------ reporting

    def export(self) -> dict:
        """Spans and counts as plain lists, for another process to merge."""
        return {"names": self.names, "name_ids": list(self.name_ids),
                "starts": list(self.starts), "ends": list(self.ends),
                "parents": list(self.parents), "nested": list(self.nested),
                "calls": self.calls, "counters": self.counters}

    def merge(self, other: dict) -> None:
        """Append another process's export under the current op."""
        if other["names"] != self.names:
            raise ValueError("span name tables differ")
        base = len(self.starts)
        self.name_ids.extend(other["name_ids"])
        self.starts.extend(other["starts"])
        self.ends.extend(other["ends"])
        self.parents.extend(p + base if p >= 0 else -1 for p in other["parents"])
        self.ops.extend([self.op] * len(other["starts"]))
        self.nested.extend(other["nested"])
        for name, n in other["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, n in other["counters"].items():
            self.counters[name] += n

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.starts)):
                handle.write(f"{self.names[self.name_ids[i]]}\t{self.starts[i]:.7f}\t"
                             f"{self.ends[i]:.7f}\t{self.parents[i]}\t{self.ops[i]}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate the spans into the per-layer metrics."""
        n_names = len(self.names)
        total = [0.0] * n_names
        self_time = [0.0] * n_names
        check_of = {self._ids[f]: check for check, funcs in CHECK_FUNCTIONS.items()
                    for f in funcs}
        checks = dict.fromkeys(CHECK_FUNCTIONS, 0.0)
        sweep_id = self._ids["selfcheck.run_selfcheck"]
        name_ids, parents = self.name_ids, self.parents
        for i, (start, end) in enumerate(zip(self.starts, self.ends)):
            duration = end - start
            name_id, parent = name_ids[i], parents[i]
            self_time[name_id] += duration
            if not self.nested[i]:
                total[name_id] += duration
            if parent >= 0:
                self_time[name_ids[parent]] -= duration
                if name_ids[parent] == sweep_id and name_id in check_of:
                    checks[check_of[name_id]] += duration
        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.total_s"] = total[name_id]
            out[f"{name}.self_s"] = self_time[name_id]
        out.update(self.counters)
        for search in ("companions", "cross_form_companions"):
            tried = self.counters[f"packets.{search}.subsets_tried"]
            survivors = self.counters[f"packets.{search}.survivors"]
            out[f"packets.{search}.useful_ratio"] = survivors / tried if tried else 0.0
        for check, seconds in checks.items():
            out[f"selfcheck.check.{check}.total_s"] = seconds
        out["trace.spans"] = len(self.starts)
        return out
