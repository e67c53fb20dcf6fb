"""Span tracer for the benchmark's traced runs.

The tracer replaces the public functions listed in ``LAYERS`` with timing
wrappers, in the module that defines each one and in every goalkit module
that imported it, so calls are caught from outside the program.  A span
records its op id, name and parent; its self time is its duration minus
the time covered by its child spans.  A recursive function counts its
outermost call only.  Per-function totals cover every traced op; the spans
themselves are kept in memory up to a cap and written out at the end.

Run as a script, it executes one traced ``goalkit`` command line and
writes the totals as JSON::

    python3 bench/tracer.py OUT.json OP_ID KEEP_SPANS verify --fixture shopping
"""

from __future__ import annotations

import inspect
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Optional

LAYERS = {
    "prop_logic": ("entails", "consistent", "tautology", "truth_table", "render"),
    "mental_state": ("eval_msf", "make_state", "validity_oracle",
                     "enumerate_states"),
    "capabilities": ("apply_M", "enabled_cond", "enabled_cap"),
    "executor": ("reachable", "step"),
    "verifier": ("verify_agent", "check_unless", "check_ensures",
                 "prove_leadsto", "check_leadsto", "derive_hoare",
                 "check_hoare_basic", "wlp", "render_report"),
    "agent_program": ("parse_agent",),
    "cli": ("main",),
}

SPAN_FIELDS = ("op", "id", "name", "parent", "start_s", "dur_s", "self_s")


class Tracer:
    def __init__(self, keep_spans: int = 50_000):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # result counters: executor.step.executed, executor.reachable.nodes, ...
        self.counts: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[list] = []   # open spans: [id, start, child_time]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self) -> float:
        """Close the innermost span; charge its duration to its parent."""
        frame = self._stack.pop()
        dur = perf_counter() - frame[1]
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def _parent_id(self) -> Optional[int]:
        return self._stack[-2][0] if len(self._stack) > 1 else None

    def _record(self, name: str, span_id: int, parent_id: Optional[int],
                start: float, dur: float, own: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        if len(self.spans) < self.keep_spans:
            self.spans.append((self.op_id, span_id, name, parent_id,
                               start, dur, own))

    def _close(self, name: str, frame: list) -> None:
        parent_id = self._parent_id()
        dur = self._pop()
        self._record(name, frame[0], parent_id, frame[1], dur, dur - frame[2])

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; its self time is work outside every layer."""
        self.op_id = op_id
        frame = self._open()
        try:
            yield
        finally:
            self._close("op", frame)

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        active = [False]

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            frame = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                active[0] = False
                self._close(name, frame)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        # One span per generator call, summed over the resumptions, so the
        # consumer's work between items is not charged to the generator.
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = None
            dur = own = 0.0
            try:
                while True:
                    frame = self._open()
                    if first is None:
                        first = (frame[0], self._parent_id(), frame[1])
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        step = self._pop()
                        dur += step
                        own += step - frame[2]
                    yield item
            finally:
                inner.close()
                if first is not None:
                    self._record(name, first[0], first[1], first[2], dur, own)

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever goalkit modules hold it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "goalkit" or n.startswith("goalkit.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"goalkit.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "counts": self.counts, "spans": self.spans}

    def merge(self, totals: dict) -> None:
        """Add the totals of a traced child process."""
        for name, n in totals["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, s in totals["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s
        for key, n in totals["counts"].items():
            self.count(key, n)
        room = self.keep_spans - len(self.spans)
        self.spans.extend(tuple(span) for span in totals["spans"][:room])


def _count_step(tracer: Tracer, result) -> None:
    tracer.count("executor.step.executed", int(result.executed))


def _count_reachable(tracer: Tracer, result) -> None:
    tracer.count("executor.reachable.nodes", len(result.nodes))
    tracer.count("executor.reachable.edges", len(result.edges))


def _count_ensures(tracer: Tracer, result) -> None:
    tracer.count("verifier.check_ensures.holds", int(result.holds))


_HOOKS = {
    "executor.step": _count_step,
    "executor.reachable": _count_reachable,
    "verifier.check_ensures": _count_ensures,
}


def _traced_cli(argv: list[str]) -> int:
    out, op_id, keep = Path(argv[0]), int(argv[1]), int(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import goalkit.cli

    tracer = Tracer(keep_spans=keep)
    tracer.install()
    with tracer.op(op_id):
        code = sys.modules["goalkit.cli"].main(argv[3:])
    tracer.uninstall()
    out.write_text(json.dumps(tracer.totals()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
