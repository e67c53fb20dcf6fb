"""Command-line front end: run, verify, graph, and check-triple workflows.

Exit codes: 0 all checks hold / run completed; 1 a property failed;
2 usage or parse error; 3 bounds or budget exceeded.  Diagnostics go to
stderr, results to stdout, and identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .prop_logic import FormulaError, atoms_of, parse_formula
from .mental_state import (
    BoundsExceeded, Enabled, GoalAction, msf_atoms, msf_leaves,
    parse_msformula,
)
from .agent_program import Agent, AgentParseError, SHOPPING_SOURCE, parse_agent
from .executor import (
    BudgetExceeded, InvalidBudget, _non_negative, fair_picks, reachable, trace,
)
from .verifier import (
    HoareTriple, MissingAxiom, check_hoare_basic, derive_hoare, render_report,
    verify_agent,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _count(text: str) -> int:
    """argparse type for counts and limits: a non-negative integer."""
    value = _non_negative(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goalkit",
        description="Run and verify agents with beliefs and declarative goals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_agent_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("agent", nargs="?", help="path to an agent file")
        p.add_argument("--fixture", choices=["shopping"],
                       help="use a built-in agent instead of a file")

    p_run = sub.add_parser("run", help="execute an agent and dump the trace")
    add_agent_source(p_run)
    p_run.add_argument("--sched", choices=["rr", "random"], default="rr")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--steps", type=_count, default=64)
    p_run.add_argument("--unfair", action="store_true",
                       help="didactic mode: drop the fairness forcing "
                            "(random scheduling only)")

    p_verify = sub.add_parser("verify",
                              help="check the agent's declared properties")
    add_agent_source(p_verify)
    p_verify.add_argument("--budget", type=_count, default=None,
                          help="reachable-state node budget")
    p_verify.add_argument("--format", choices=["text", "records"],
                          default="text")

    p_graph = sub.add_parser("graph",
                             help="export the reachable-state graph (DOT)")
    add_agent_source(p_graph)
    p_graph.add_argument("--out", default="-",
                         help="output path, '-' for stdout")
    p_graph.add_argument("--budget", type=_count, default=None)

    p_triple = sub.add_parser(
        "check-triple",
        help="check {pre} action {post} for a capability or goal action")
    add_agent_source(p_triple)
    p_triple.add_argument("pre", help="precondition (mental-state formula)")
    p_triple.add_argument("action",
                          help="capability name, adopt(...), or drop(...)")
    p_triple.add_argument("post", help="postcondition (mental-state formula)")
    p_triple.add_argument("--mode", choices=["semantic", "wlp"],
                          default="semantic")
    p_triple.add_argument("--max-generators", type=_count, default=2)
    return parser


def _load_agent(args) -> Agent:
    if args.fixture == "shopping":
        return parse_agent(SHOPPING_SOURCE)
    if not args.agent:
        raise AgentParseError("an agent file (or --fixture) is required")
    with open(args.agent, encoding="utf-8") as handle:
        try:
            # a leading byte-order mark is dropped after decoding, so that
            # the byte positions of a diagnostic count from the file's start
            text = handle.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise AgentParseError(f"{args.agent}: not UTF-8 text ({exc.reason} "
                                  f"at byte {exc.start})") from exc
    return parse_agent(text)


def _cmd_run(args) -> int:
    if args.steps > sys.maxsize:    # no sequence of picks can be that long
        print(f"error: --steps must be at most {sys.maxsize}, "
              f"got {args.steps}", file=sys.stderr)
        return EXIT_USAGE
    agent = _load_agent(args)
    kind = "unfair" if args.unfair else args.sched

    def printed():
        """Each pick, once its step line is printed."""
        for i, (pick, st) in enumerate(
                trace(agent, kind, args.steps, args.seed)):
            print(st.line(i, agent.action_label(pick)))
            yield pick

    fair = fair_picks(printed(), len(agent.program), kind)
    print(f"scheduler: {kind} | steps: {args.steps} | "
          f"fairness surrogate: {'pass' if fair else 'fail'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    agent = _load_agent(args)
    obligations = verify_agent(agent, budget=args.budget)
    sys.stdout.write(render_report(obligations, args.format))
    ok = all(ob.verdict.holds for ob in obligations)
    return EXIT_OK if ok else EXIT_PROPERTY_FAILED


def _cmd_graph(args) -> int:
    agent = _load_agent(args)
    graph = reachable(agent, budget=args.budget)
    dot = graph.to_dot()
    if args.out == "-":
        sys.stdout.write(dot)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dot)
        print(f"wrote {len(graph.nodes)} nodes, {len(graph.edges)} edges "
              f"to {args.out}")
    return EXIT_OK


def _parse_action(agent: Agent, text: str):
    """A capability of ``agent`` by name, or ``adopt(φ)``/``drop(φ)`` over its
    atoms; a diagnostic's position counts from the start of ``text``."""
    name = text.strip()
    if name in agent.table:
        return agent.table[name]
    if not name.startswith(("adopt(", "drop(")):
        raise AgentParseError(f"unknown action {name!r}")
    arg = parse_formula(text, agent.vocab, start=2, close=")")
    return GoalAction(name[:name.index("(")], arg)


def _cmd_check_triple(args) -> int:
    agent = _load_agent(args)
    pre = parse_msformula(args.pre, agent.vocab, agent.table)
    post = parse_msformula(args.post, agent.vocab, agent.table)
    action = _parse_action(agent, args.action)
    triple = HoareTriple(pre, action, post)
    if args.mode == "wlp":
        atoms = _triple_atoms(triple)
        verdict = derive_hoare(triple, atoms, args.max_generators)
        route = "wlp + validity oracle"
    else:
        states = reachable(agent).nodes
        verdict = check_hoare_basic(triple, states)
        route = "semantic over reachable states"
    print(f"{triple}")
    print(f"route: {route}")
    print(f"verdict: {verdict.describe()}")
    return EXIT_OK if verdict.holds else EXIT_PROPERTY_FAILED


def _triple_atoms(triple: HoareTriple) -> tuple[str, ...]:
    """The oracle vocabulary: the atoms of pre and post, of the action, and
    of every capability an ``enabled(name)`` leaf of pre or post names."""
    names = set(msf_atoms(triple.pre) | msf_atoms(triple.post))
    caps = [leaf.target for phi in (triple.pre, triple.post)
            for leaf in msf_leaves(phi) if isinstance(leaf, Enabled)]
    if isinstance(triple.statement, GoalAction):
        names |= atoms_of(triple.statement.argument)
    else:
        caps.append(triple.statement)
    for cap in caps:
        for clause in cap.clauses:
            names |= atoms_of(clause.guard)
            for f in clause.add + clause.delete:
                names |= atoms_of(f)
    return tuple(sorted(names))


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "graph":
            return _cmd_graph(args)
        if args.command == "check-triple":
            return _cmd_check_triple(args)
        raise AssertionError(args.command)
    except (AgentParseError, FormulaError, MissingAxiom, InvalidBudget,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, BoundsExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
