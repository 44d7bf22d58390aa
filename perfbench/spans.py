"""In-memory span recording around the program's public layer calls.

The benchmark never edits the program under test.  A traced run instead
wraps the public functions and methods each layer exposes (a class
attribute, a module-level function wherever the program imported it, or
one object's bound method) so every call records a span: its name, start,
end, parent span and the slot it belongs to.  Counts are taken at the same
boundaries by ``after`` hooks that look at a call's arguments and result.

Spans stay in memory until the run ends; :meth:`Tracer.write_jsonl` then
writes them out.  :meth:`Tracer.self_times` subtracts each span's children
from its duration, which is how the per-layer report attributes a slot.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "Patcher"]

#: ``after(args, kwargs, result)`` hook run once a wrapped call returns.
AfterHook = Callable[[tuple, dict, Any], None]


class Tracer:
    """Flat span table (parallel lists) plus per-boundary counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.slots: List[int] = []
        self.counters: Dict[Tuple[str, int], float] = defaultdict(float)
        self.slot = -1
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.slots.append(self.slot)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(name, self.slot)] += value

    def counter_totals(self, slots: set) -> Dict[str, float]:
        """Counter sums over the given slots."""
        totals: Dict[str, float] = defaultdict(float)
        for (name, slot), value in self.counters.items():
            if slot in slots:
                totals[name] += value
        return totals

    def durations(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its children cover."""
        own = self.durations()
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def totals(
        self, slots: set
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Per-name (inclusive seconds, self seconds, call count).

        A span directly nested in a span of the same name (a wrapped
        method calling itself through another public spelling) adds its
        self time but not a second inclusive interval or call.
        """
        inclusive: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for index, (name, slot, duration, self_time) in enumerate(
            zip(self.names, self.slots, self.durations(), self.self_times())
        ):
            if slot not in slots:
                continue
            own[name] += self_time
            parent = self.parents[index]
            if parent >= 0 and self.names[parent] == name:
                continue
            inclusive[name] += duration
            calls[name] += 1
        return inclusive, own, calls

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": self.starts[index],
                            "end": self.ends[index],
                            "parent": self.parents[index],
                            "slot": self.slots[index],
                        }
                    )
                    + "\n"
                )
            for (name, slot), value in self.counters.items():
                out.write(
                    json.dumps({"counter": name, "slot": slot, "value": value})
                    + "\n"
                )


class Patcher:
    """Installs span wrappers on public callables and undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def wrap(
        self, func: Callable[..., Any], span: str, after: Optional[AfterHook]
    ) -> Callable[..., Any]:
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer.begin(span)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def method(
        self, cls: type, attr: str, span: str, after: Optional[AfterHook] = None
    ) -> None:
        """Wrap ``cls.attr`` (a plain or class method) for every instance."""
        static = inspect.getattr_static(cls, attr)
        owned = attr in vars(cls)
        if isinstance(static, classmethod):
            wrapped: Any = classmethod(self.wrap(static.__func__, span, after))
        else:
            wrapped = self.wrap(static, span, after)
        setattr(cls, attr, wrapped)

        def undo() -> None:
            if owned:
                setattr(cls, attr, static)
            else:
                delattr(cls, attr)

        self._undo.append(undo)

    def function(
        self, func: Callable[..., Any], span: str, after: Optional[AfterHook] = None
    ) -> None:
        """Wrap a module-level function in every ``repro`` module bound to it."""
        wrapped = self.wrap(func, span, after)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        functools.partial(setattr, module, attr, func)
                    )

    def attribute(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr`` by ``value`` until :meth:`restore`."""
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(functools.partial(setattr, owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
