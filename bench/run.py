"""goalkit benchmark: time to verdict on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of shopping, ntask, oracle, wide, or ``all`` (the default),
which runs every workload untraced and then traced, one after another.
The load is a closed loop: one client in one process, one verdict job
(an op) at a time, for S seconds.  Every op's verdict is checked.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half with the span tracer installed, reports the
per-layer metrics, and writes the spans to ``bench/out/``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for why each workload exists and what each metric is
expected to show.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import generators
from tracer import LAYERS, SPAN_FIELDS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("shopping", "ntask", "oracle", "wide")
NTASK_N = 6
WIDE_W = 14
ORACLE_GENERATORS = 2
# Inputs generated during set-up; later ops generate theirs on demand.
POOL = {"ntask": 512, "wide": 512}
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 11
SHOPPING_OBLIGATIONS = 17
CHILD_TIMEOUT_S = 120
TAIL_SAMPLES = 10

CLI = [sys.executable, "-c",
       "import sys; from goalkit.cli import main; sys.exit(main())"]
SHOPPING_ARGS = ["verify", "--fixture", "shopping"]


@dataclass
class Workload:
    make: Callable[[int], Any]                 # op index -> input
    op: Callable[[Any], Any]                   # input -> program output
    check: Callable[[Any, Any], Optional[str]]  # input, output -> problem
    size: str                                  # the input size, in words
    traced_op: Optional[Callable[[Any, Tracer], Any]] = None


# ---------------------------------------------------------------------------
# Set-up: everything done once before the first timed op.


def _load_goalkit():
    if not (SRC / "goalkit" / "__init__.py").is_file():
        raise SystemExit(f"error: goalkit sources not found in {SRC}")
    sys.path.insert(0, str(SRC))
    import goalkit
    import goalkit.verifier
    return goalkit


def _pool(seed: int, make_case: Callable[[int, int], Any], size: int):
    cases = [make_case(seed, i) for i in range(size)]
    return lambda i: cases[i] if i < size else make_case(seed, i)


def _agent_workload(gk, make, size: str) -> Workload:
    def op(case):
        obligations = gk.verify_agent(gk.parse_agent(case.text))
        return obligations, gk.verifier.render_report(obligations)

    def check(case, result) -> Optional[str]:
        obligations, report = result
        verdicts = tuple(ob.verdict.holds for ob in obligations)
        if verdicts != case.expected:
            return f"verdicts {verdicts}, expected {case.expected}"
        implied = (gk.cli.EXIT_OK if all(verdicts)
                   else gk.cli.EXIT_PROPERTY_FAILED)
        if implied != case.exit_code:
            return f"exit code {implied}, expected {case.exit_code}"
        summary = (f"total: {len(verdicts)} obligations, "
                   f"{verdicts.count(False)} failing\n")
        if not report.endswith(summary):
            return f"report does not end with {summary!r}"
        return None

    return Workload(make, op, check, size)


def setup_ntask(seed: int) -> Workload:
    gk = _load_goalkit()
    make = _pool(seed, lambda s, i: generators.ntask_case(s, i, NTASK_N),
                 POOL["ntask"])
    return _agent_workload(
        gk, make, f"N={NTASK_N} tasks, {2 ** NTASK_N} reachable states, "
                  f"{2 * NTASK_N + 2} obligations per op")


def setup_wide(seed: int) -> Workload:
    gk = _load_goalkit()
    make = _pool(seed, lambda s, i: generators.wide_case(s, i, WIDE_W),
                 POOL["wide"])
    return _agent_workload(
        gk, make, f"w={WIDE_W} believed atoms (2^{WIDE_W + 1} valuations), "
                  f"2 states, 5 obligations per op")


def setup_oracle(seed: int) -> Workload:
    gk = _load_goalkit()
    atoms = generators.ORACLE_ATOMS
    states = list(gk.enumerate_states(atoms, ORACLE_GENERATORS))

    def make(i: int) -> generators.TripleCase:
        return generators.oracle_case(seed, i)

    for i in range(generators.ORACLE_CATALOGUE):  # build the catalogue
        make(i)

    def statement(kind: str, arg: str):
        phi = gk.parse_formula(arg, atoms)
        if kind == "insert":
            return gk.insert(phi)
        if kind == "remove":
            return gk.remove(phi)
        return gk.GoalAction(kind, phi)

    def op(case):
        triple = gk.HoareTriple(gk.parse_msformula(case.pre, atoms),
                                statement(*case.statement),
                                gk.parse_msformula(case.post, atoms))
        return (gk.derive_hoare(triple, atoms, ORACLE_GENERATORS),
                gk.check_hoare_basic(triple, states))

    def check(case, result) -> Optional[str]:
        wlp_route, semantic = result
        if wlp_route.holds != semantic.holds:
            return (f"wlp route says {wlp_route.holds}, semantic route "
                    f"says {semantic.holds}")
        if case.expected is not None and semantic.holds != case.expected:
            return f"verdict {semantic.holds}, expected {case.expected}"
        return None

    return Workload(make, op, check,
                    f"{len(states)}-state universe (atoms p, q; "
                    f"<= {ORACLE_GENERATORS} goal generators), one triple per op")


def _cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _shopping_problem(code: int, stdout: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    holds = sum(1 for line in stdout.splitlines() if " | holds" in line)
    summary = f"total: {SHOPPING_OBLIGATIONS} obligations, 0 failing\n"
    if holds != SHOPPING_OBLIGATIONS or not stdout.endswith(summary):
        return f"expected {SHOPPING_OBLIGATIONS} obligations that hold"
    return None


def _run_cli(argv: list[str]) -> tuple[int, str]:
    done = subprocess.run(argv, env=_cli_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=HERE.parent)
    return done.returncode, done.stdout


def setup_shopping(seed: int) -> Workload:
    # The fixture is fixed, so the seed changes nothing.  Set-up is one
    # cold CLI run whose output is the reference every op must reproduce.
    if not (SRC / "goalkit" / "cli.py").is_file():
        raise SystemExit(f"error: goalkit sources not found in {SRC}")
    _, reference = _run_cli(CLI + SHOPPING_ARGS)

    def check(_case, result) -> Optional[str]:
        code, stdout = result
        if stdout != reference:
            return "stdout differs from the reference run"
        return _shopping_problem(code, stdout)

    def traced_op(op_id: int, tracer: Tracer):
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"cli-{os.getpid()}-{op_id}.json"
        keep = tracer.keep_spans - len(tracer.spans)
        try:
            result = _run_cli([sys.executable, str(HERE / "tracer.py"),
                               str(spans_file), str(op_id), str(keep)]
                              + SHOPPING_ARGS)
            tracer.merge(json.loads(spans_file.read_text(encoding="utf-8")))
        finally:
            spans_file.unlink(missing_ok=True)
        return result

    return Workload(lambda i: i, lambda _i: _run_cli(CLI + SHOPPING_ARGS),
                    check, "shopping fixture: 9 atoms, 8 rules, 13 states, "
                           "17 obligations; one process per op",
                    traced_op)


SETUPS = {"shopping": setup_shopping, "ntask": setup_ntask,
          "oracle": setup_oracle, "wide": setup_wide}


def timed_setup(name: str, seed: int) -> tuple[Workload, float]:
    started = perf_counter()
    workload = SETUPS[name](seed)
    return workload, perf_counter() - started


def cold_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh process doing this run's set-up, so imports
    are paid cold."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        cwd=HERE.parent, check=True)
    return float(done.stdout.split()[-1])


# ---------------------------------------------------------------------------
# The closed loop.


@dataclass
class Phase:
    durations: list[float]
    attempted: int
    failed: int
    completed: int
    wall_s: float

    @staticmethod
    def join(phases: list[Phase]) -> Phase:
        return Phase([d for p in phases for d in p.durations],
                     sum(p.attempted for p in phases),
                     sum(p.failed for p in phases),
                     sum(p.completed for p in phases),
                     sum(p.wall_s for p in phases))


def measure(workload: Workload, seconds: float, first_op: int = 0,
            tracer: Optional[Tracer] = None) -> Phase:
    """Run ops from index ``first_op`` on, one at a time, for ``seconds``."""
    durations: list[float] = []
    failed = completed = 0
    started = perf_counter()
    i = first_op
    while not durations or perf_counter() - started < seconds:
        case = workload.make(i)
        t0 = perf_counter()
        try:
            if tracer is None:
                result = workload.op(case)
            elif workload.traced_op is not None:
                result = workload.traced_op(case, tracer)
            else:
                with tracer.op(i):
                    result = workload.op(case)
        except Exception as exc:  # an op that raises is a failed op
            durations.append(perf_counter() - t0)
            failed += 1
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            durations.append(perf_counter() - t0)
            completed += 1
            problem = workload.check(case, result)
            if problem is not None:
                failed += 1
                print(f"op {i} wrong: {problem}", file=sys.stderr)
        i += 1
    return Phase(durations, len(durations), failed, completed,
                 perf_counter() - started)


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of p90, or of the highest percentile that still
    has TAIL_SAMPLES samples above it when a run has fewer than 100 ops."""
    ranked = sorted(durations)
    n = len(ranked)
    rank = max(1, min(math.ceil(0.9 * n), n - TAIL_SAMPLES))
    return ranked[rank - 1], 100.0 * rank / n


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(name: str, phase: Phase, setups: list[float]) -> dict:
    value, pct = tail(phase.durations)
    metrics = {
        "verdict_s.p50": (statistics.median(phase.durations), "s"),
        "verdict_s.p90": (value, "s"),
        "verdicts_per_s": (phase.completed / phase.wall_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(children=name == "shopping"), "MB"),
    }
    print(f"# {name}: {phase.attempted} ops in {phase.wall_s:.1f} s; "
          f"verdict_s.p90 is p{pct:.0f}; set-up samples "
          + " ".join(f"{s:.4f}" for s in setups))
    print(f"{name} failed_ratio {phase.failed / phase.attempted:.4f} ratio")
    return metrics


def per_layer(name: str, plain: Phase, traced: Phase, tracer: Tracer) -> dict:
    ops = traced.attempted
    # Self times add up to the op spans' time; a shopping op is the whole
    # child process, start-up included, so its wall time is the base.
    op_time = (sum(traced.durations) if name == "shopping"
               else sum(tracer.self_s.values()))

    def share(seconds: float) -> float:
        return 100.0 * seconds / op_time

    metrics: dict[str, tuple[float, str]] = {}
    covered = 0.0
    for layer, names in LAYERS.items():
        layer_self = 0.0
        for fname in names:
            key = f"{layer}.{fname}"
            own = tracer.self_s.get(key, 0.0)
            layer_self += own
            calls = tracer.calls.get(key, 0)
            metrics[f"{key}.calls"] = (calls / ops, "count")
            metrics[f"{key}.self_s"] = (own / ops, "s")
            metrics[f"{key}.self_share"] = (share(own), "%")
        metrics[f"{layer}.self_share"] = (share(layer_self), "%")
        covered += layer_self
    metrics["other.self_share"] = (share(op_time - covered), "%")
    reach = tracer.calls.get("executor.reachable", 0)
    steps = tracer.calls.get("executor.step", 0)
    ensures = tracer.calls.get("verifier.check_ensures", 0)
    counts = tracer.counts
    metrics.update({
        "executor.reachable.nodes": (
            counts.get("executor.reachable.nodes", 0) / max(reach, 1), "count"),
        "executor.reachable.edges": (
            counts.get("executor.reachable.edges", 0) / max(reach, 1), "count"),
        "executor.step.executed_ratio": (
            counts.get("executor.step.executed", 0) / max(steps, 1), "ratio"),
        "verifier.check_ensures.hold_ratio": (
            counts.get("verifier.check_ensures.holds", 0) / max(ensures, 1),
            "ratio"),
        "trace_overhead": (statistics.median(traced.durations)
                           / statistics.median(plain.durations), "ratio"),
    })
    return metrics


def write_spans(name: str, seed: int, tracer: Tracer, metrics: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "self_s": tracer.self_s, "calls": tracer.calls, "counts": tracer.counts,
        "span_fields": SPAN_FIELDS, "spans": tracer.spans,
    }), encoding="utf-8")
    return path


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(name: str, seed: int, seconds: float, trace: bool) -> str:
    workload, own_setup = timed_setup(name, seed)
    if not trace:
        # The timed loop runs in slices with a cold set-up after each, so
        # set-up is sampled across the whole run, as the ops are: the
        # machine's speed drifts over tens of seconds.
        setups = [own_setup]
        slices: list[Phase] = []
        for _ in range(SETUP_REPEATS - 1):
            slices.append(measure(workload, seconds / (SETUP_REPEATS - 1),
                                  sum(s.attempted for s in slices)))
            setups.append(cold_setup(name, seed))
        phase = Phase.join(slices)
        metrics = end_to_end(name, phase, setups)
        attempted, failed = phase.attempted, phase.failed
    else:
        plain = measure(workload, seconds / 2)
        tracer = Tracer()
        if workload.traced_op is None:  # otherwise the op's child traces
            tracer.install()
        try:
            # continue the op sequence: ntask and wide need fresh atom names
            traced = measure(workload, seconds / 2, plain.attempted, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(name, plain, traced, tracer)
        print(f"# {name}: spans written to {write_spans(name, seed, tracer, metrics)}")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    print(f"# input size: {workload.size}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit}")
    return result_line(failed == 0, attempted, failed, metrics)


def run_all(seed: int, seconds: float) -> str:
    """Every workload, untraced then traced, each in its own process."""
    merged: dict[str, tuple[float, str]] = {}
    attempted = failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=HERE.parent, check=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for key, m in result["metrics"].items():
                merged[f"{name}.{key}"] = (m["value"], m["unit"])
    OUT.mkdir(exist_ok=True)
    summary = result_line(failed == 0, attempted, failed, merged)
    (OUT / f"all-seed{seed}.json").write_text(summary + "\n", encoding="utf-8")
    return summary


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        print(timed_setup(args.workload, args.seed)[1])
        return 0
    if args.workload == "all":
        print(run_all(args.seed, args.seconds))
    else:
        print(run_one(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
