"""Wrap functions from outside a package and account their time as spans.

Each wrapped call is one span. Spans are folded into per-name totals as they
close rather than kept one by one, because a traced run makes millions of
calls. A span's self time is its duration minus the time of the wrapped calls
it made; a stack of child-time accumulators carries that through nesting.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["SpanStats", "Tracer", "public_callables"]


@dataclass
class SpanStats:
    """Totals for one wrapped name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


Hook = Callable[[tuple, object, float], None]


class Tracer:
    """Wraps callables and accumulates calls, inclusive time and self time per name.

    A hook registered under a name before that name is wrapped runs after each
    of its spans closes, with the call's positional arguments, its result and
    its duration. Hook time is charged to no span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.hooks: dict[str, Hook] = {}
        self._stack: list[float] = [0.0]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return a wrapper of `fn` that records spans under `name`.

        A generator function is drained inside its span and the wrapper returns
        an iterator over the drained items; otherwise the work would run after
        the span closed and land in the caller's self time.
        """
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = self.clock
        hook = self.hooks.get(name)
        drain = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                stack[-1] += elapsed
            if hook is not None:
                hook_start = clock()
                hook(args, result, elapsed)
                stack[-1] += clock() - hook_start
            return iter(result) if drain else result

        return wrapper

    def install(self, modules: dict[str, object], targets: dict[str, tuple[object, str]]) -> None:
        """Replace each target with its wrapper wherever the modules reference it.

        `targets` maps a span name to (owner, attribute). A function imported
        into other modules by name is rebound in every module that holds it,
        so calls through those names are traced too.
        """
        for name, (owner, attr) in targets.items():
            original = inspect.getattr_static(owner, attr)
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            if inspect.isclass(owner):
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def public_callables(module_name: str, module) -> dict[str, tuple[object, str]]:
    """Every public function and public plain method a module defines.

    Public means listed in `__all__`, or, for a module without one, defined in
    it under a name without a leading underscore. Properties, class and static
    methods and dunder methods are left alone.
    """
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            n
            for n, v in vars(module).items()
            if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__
        ]
    targets: dict[str, tuple[object, str]] = {}
    for attr in names:
        value = getattr(module, attr)
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            targets[f"{module_name}.{attr}"] = (module, attr)
        elif inspect.isclass(value):
            for method, raw in vars(value).items():
                if not method.startswith("_") and inspect.isfunction(raw):
                    targets[f"{module_name}.{attr}.{method}"] = (value, method)
    return targets
