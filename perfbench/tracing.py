"""Spans around resotrim's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules
(the names in each module's ``__all__``) with a wrapper that records a
span: name, start, end, parent span and the operation it belongs to. A
module that bound a name itself (``from .fitting import fit_pair`` in the
CLI) gets the wrapper at that binding too, and calls inside a module go
through its globals, so nested public calls become child spans. Spans stay
in memory and are written out once, at the end.
"""

import functools
import inspect
import json
import sys
import time

TRACED_MODULES = ("pairmodel", "fitting", "planner", "transmon", "readout", "registry")


def _fit_info(args, kwargs, result):
    trace = args[0] if args else kwargs["trace"]
    return {"source": trace.source, "f_r": result.params.f_r, "f_p": result.params.f_p,
            "converged": result.converged, "iterations": result.iterations}


def _crowding_name(args, kwargs):
    pairs = args[0] if args else kwargs["pairs"]
    return f"planner.plan_crowding.n{len(pairs)}"


# per-function hooks: a span name that depends on the arguments, and
# details of the result kept with the span
_NAMERS = {"planner.plan_crowding": _crowding_name}
_INFOS = {
    "fitting.fit_pair": _fit_info,
    "planner.plan_crowding": lambda args, kwargs, plan: {"feasible": plan.feasible},
}


class Tracer:
    def __init__(self):
        # span: [name, t0, t1, parent index or -1, op, info]
        self.spans = []
        self.op = ""
        self._stack = []

    def _wrap(self, name, fn):
        namer = _NAMERS.get(name)
        info_fn = _INFOS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info_fn:
                span[5] = info_fn(args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper

    def install(self, package):
        """Wrap the public functions of the traced modules of ``package``."""
        modules = [getattr(package, m) for m in TRACED_MODULES]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and not hasattr(fn, "__wrapped_by_tracer__"):
                    replaced[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        # rebind every module-level reference to a wrapped function,
        # including names other modules imported with ``from ... import``
        prefix = package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return self

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_totals(span_lists):
    """Per-name call counts and self time, plus per-span details.

    ``span_lists`` holds one list per traced process; parent indices refer
    to positions within their own list. Self time is a span's duration
    minus the durations of its direct children.
    """
    calls, self_s, infos = {}, {}, {}
    under_crowding = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        in_crowding = [False] * len(spans)
        for i, (name, t0, t1, parent, _op, info) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += t1 - t0
                in_crowding[i] = in_crowding[parent] or spans[parent][0].startswith(
                    "planner.plan_crowding.")
        for i, (name, t0, t1, _parent, _op, info) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
            if info is not None:
                infos.setdefault(name, []).append(info)
            if in_crowding[i]:
                under_crowding[name] = under_crowding.get(name, 0) + 1
    return calls, self_s, infos, under_crowding
