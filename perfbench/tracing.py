"""In-process span tracing of ``pipegate.cli.main``.

Timing wrappers are installed on the public functions of ``catalog``,
``metrics``, ``bounds`` and ``simulate`` (the module attributes the CLI and
the modules themselves look up at call time) and on ``cli.build_parser``,
``cli.render`` and the parser's ``parse_args``.  Spans stay in memory as
(name, start, end, parent, op id) and are written out when the run ends.
Nothing in the program is edited: removing the wrappers restores it.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the root
    op: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SimCall:
    """One traced call into the simulator, with what ran and what it cost."""

    op: int
    name: str
    config: object  # the SimConfig
    workers: int
    wall: float
    cpu: float  # process CPU seconds, all threads


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.sim_calls: list[SimCall] = []
        self.op = -1
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        sim = name.startswith("simulate.run_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            index = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            cpu0 = time.process_time() if sim else 0.0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.op)
                if sim:
                    self.sim_calls.append(SimCall(
                        self.op, name, args[0], kwargs.get("workers", 1),
                        end - start, time.process_time() - cpu0,
                    ))

        return traced

    def install(self, cli, modules) -> list[tuple[object, str, object]]:
        """Wrap the public functions; returns what ``uninstall`` restores."""
        saved = []

        def patch(module, attr, name):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in module.__all__:
                if inspect.isfunction(getattr(module, attr)):
                    patch(module, attr, f"{layer}.{attr}")
        patch(cli, "render", "cli.render")
        build_parser = cli.build_parser

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser

        saved.append((cli, "build_parser", build_parser))
        cli.build_parser = self.wrap("cli.build_parser", traced_build_parser)
        return saved

    @staticmethod
    def uninstall(saved) -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op], separators=(",", ":")) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children of one span run one after another in its thread, so they do
    not overlap and their durations add up.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]
