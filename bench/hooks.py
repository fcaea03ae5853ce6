"""Per-layer self times and counts, hooked in from outside merw.

A hook replaces a module-level function by a timing wrapper in every loaded
``merw`` module that binds it (``from .ensemble import run_ensemble`` makes a
second binding in ``merw.montecarlo``), and puts the originals back on exit.
Wrappers keep a stack of open spans, so a layer's self time is its own
duration minus the time of the hooked calls made inside it.  A function that
no longer exists leaves its layer unhooked, reported as null; nothing in the
untraced run depends on these hooks.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

#: layer -> (module, name patterns); a pattern matches the functions the module defines.
LAYERS = {
    "ensemble.substream_setup": ("merw.ensemble", ("replica_generator",)),
    "ensemble.draw_prefetch": ("merw.ensemble", ("_draw_chunk",)),
    "ensemble.step_kernel": ("merw.ensemble", ("simulate_replicas",)),
    "ensemble.reduce": ("merw.ensemble", ("run_ensemble",)),
    "ensemble.cross_moments": ("merw.ensemble", ("_cross_moments",)),
    "montecarlo.checks": ("merw.montecarlo", ("verify_*",)),
    "theory": ("merw.theory", ("*",)),
    "cli.serialize": ("merw.cli", ("cmd_simulate",)),
}


def _targets(module_name: str, patterns) -> list:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    return [
        fn for attr, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module_name
        and any(fnmatch.fnmatchcase(attr, pat) for pat in patterns)
    ]


@contextmanager
def rebind(fn, replacement):
    """Replace every binding of ``fn`` in the loaded merw modules for the block."""
    sites = [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name == "merw" or name.startswith("merw.")
        for attr, value in list(vars(module).items())
        if value is fn
    ]
    for module, attr in sites:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module, attr in sites:
            setattr(module, attr, fn)


class Tracer:
    """Self time and entry count per layer, accumulated over traced ops."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.hooked: set[str] = set()
        self._stack: list[list] = []  # [layer, time spent in hooked children]

    def _wrap(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if outer != layer:
                    self.calls[layer] += 1

        return wrapper

    @contextmanager
    def hooks(self):
        """Install a wrapper for every layer whose functions still exist."""
        self.self_s.clear()
        self.calls.clear()
        with ExitStack() as stack:
            for layer, (module_name, names) in LAYERS.items():
                fns = _targets(module_name, names)
                if fns:
                    self.hooked.add(layer)
                for fn in fns:
                    stack.enter_context(rebind(fn, self._wrap(layer, fn)))
            yield self


@contextmanager
def capture_returns(module_name: str, name: str, sink: list):
    """Append every return value of ``module_name.name`` to ``sink``; no timing."""
    fns = _targets(module_name, (name,))
    if not fns:
        raise LookupError(f"{module_name}.{name} not found")
    fn = fns[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    with rebind(fn, wrapper):
        yield
