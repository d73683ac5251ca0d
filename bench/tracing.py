"""Span recording around weylspin's public functions, from outside the package.

A traced function is replaced by a wrapper in every loaded weylspin module
that holds a reference to it, so calls through `from .x import f` bindings
are caught as well as calls through the defining module. Each call opens a
span (name, start, end, parent); a span's self time is its duration minus the
time covered by its child spans. Spans are folded into per-name totals as
they close rather than kept, so a traced sweep of a million calls stays
small in memory.
"""

import contextlib
import functools
import sys
import time


@contextlib.contextmanager
def patched(qualname, make_wrapper):
    """Replace weylspin.<qualname> by make_wrapper(original) wherever it is bound.

    A name the package no longer defines is skipped, so the benchmark keeps
    running when a later version removes or renames a function.
    """
    modname, attr = qualname.split(".")
    module = sys.modules.get(f"weylspin.{modname}")
    original = getattr(module, attr, None)
    if original is None:
        yield
        return
    wrapper = make_wrapper(original)
    bound = []
    for name, mod in list(sys.modules.items()):
        if name == "weylspin" or name.startswith("weylspin."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    bound.append((mod, key))
    try:
        yield
    finally:
        for mod, key in bound:
            setattr(mod, key, original)


class Tracer:
    """Per-name call counts, inclusive time and self time of traced calls.

    targets names the functions to wrap, as "module.function" under weylspin.
    """

    def __init__(self, targets):
        self.targets = targets
        self.stats = {}  # name -> [calls, total_s, self_s]
        self._open = []  # child time accumulated by each open span

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
                if open_spans:
                    open_spans[-1][0] += elapsed

        return span

    @contextlib.contextmanager
    def active(self):
        """Wrap every target function while the context is open."""
        with contextlib.ExitStack() as stack:
            for name in self.targets:
                stack.enter_context(patched(name, functools.partial(self._wrap, name)))
            yield self

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_ms(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2] * 1e3

    def us_per_call(self, name):
        calls, total, _ = self.stats.get(name, [0, 0.0, 0.0])
        return total / calls * 1e6 if calls else 0.0
