"""Outside-in spans around the calls between `cbe` modules.

The layers are the modules. Every function that `cbe.container`,
`cbe.cli`, `cbe.multiset` and `cbe.codec` import from another `cbe`
module is replaced, in the importing module's namespace, by a wrapper
that records a span under the *defining* module's name. The entry
points `container.compress`, `container.decompress` and `cli.main` are
wrapped in place as well. Discovery is by module, not by function name,
so renaming internals does not break the trace.

Spans live in memory as [layer, name, start, end, parent, op, op_id],
are written out as JSON lines when the traced pass ends, and are reduced
to per-layer self time. A span's self
time is its duration minus the durations of its direct children, so the
self times under one op sum to the wall time of that op's root spans.
"""

import functools
import importlib
import inspect
import json
import time
import types

IMPORTING_MODULES = ("cbe.container", "cbe.cli", "cbe.multiset", "cbe.codec")
ENTRY_POINTS = (
    ("cbe.container", "compress"),
    ("cbe.container", "decompress"),
    ("cbe.cli", "main"),
)


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # set by the caller before each operation
        self.op_id = 0
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, layer, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        name = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.op, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _patch(self, module, attribute, layer):
        original = getattr(module, attribute)
        self._patched.append((module, attribute, original))
        setattr(module, attribute, self._wrap(layer, original))

    def install(self):
        """Wrap every cross-module import and entry point."""
        for module_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            self._patch(module, attribute, _layer(module_name))
        for module_name in IMPORTING_MODULES:
            module = importlib.import_module(module_name)
            for attribute, obj in list(vars(module).items()):
                # A generator's body runs after the call returns, so a span
                # around the call would not cover its work.
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith("cbe.")
                        and obj.__module__ != module_name
                        and not inspect.isgeneratorfunction(obj)):
                    self._patch(module, attribute, _layer(obj.__module__))

    def uninstall(self):
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def start_op(self, op):
        self.op = op
        self.op_id += 1

    def write(self, path):
        fields = ("layer", "name", "start", "end", "parent", "op", "op_id")
        with open(path, "w") as fp:
            for span in self.spans:
                fp.write(json.dumps(dict(zip(fields, span))) + "\n")

    def summarize(self):
        """Per (op, layer) self seconds and calls, and per op wall seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = {}
        calls = {}
        wall = {}
        for index, (layer, name, start, end, parent, op, _) in enumerate(spans):
            key = (op, layer)
            self_s[key] = self_s.get(key, 0.0) + (end - start) - child_time[index]
            calls[key] = calls.get(key, 0) + 1
            if parent < 0:
                wall[op] = wall.get(op, 0.0) + end - start
        return self_s, calls, wall
