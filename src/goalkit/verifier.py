"""Hoare-triple checking, the wlp calculus, and temporal verification.

Two independent routes are provided for most judgements: a semantic check
that quantifies over a scope of mental states (the bounded universe or the
agent's reachable graph), and a syntactic route that computes weakest
liberal preconditions and discharges the residue with the validity oracle.
Temporal properties (unless / ensures / leads-to) reduce to finitely many
Hoare obligations; graph-level trace oracles double-check the reductions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence, Union

from .prop_logic import (
    And, FALSE, Formula, Imp, Not, Or, TRUE, map_leaves, render, tautology,
)
from .mental_state import (
    Bel, Enabled, Goal, MentalState, OracleVerdict, StateSet, eval_msf,
    lowest_bit, map_goal_leaves, msf_leaves, set_bits, validity_oracle,
)
from .capabilities import (
    CapabilitySpec, ConditionalAction, GoalAction, apply_M,
)
from .agent_program import Agent, PropertyDecl
from .executor import Edge, StateGraph, reachable, step


class VerifierError(Exception):
    pass


class MissingAxiom(VerifierError):
    """A belief capability with no wlp axiom and no recognizable shape."""


class MalformedProof(VerifierError):
    """A leads-to proof tree whose node conclusions do not fit its rules."""


Statement = Union[CapabilitySpec, GoalAction, ConditionalAction]


@dataclass(frozen=True, slots=True)
class HoareTriple:
    pre: Formula
    statement: Statement
    post: Formula

    def __str__(self) -> str:
        return f"{{{render(self.pre)}}} {self.statement} {{{render(self.post)}}}"


@dataclass(frozen=True, slots=True)
class Verdict:
    holds: bool
    witness: Optional[MentalState] = None
    scope: str = ""
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        if self.holds:
            return f"holds ({self.scope})" if self.scope else "holds"
        parts = ["fails"]
        if self.detail:
            parts.append(self.detail)
        if self.witness is not None:
            parts.append(f"witness {self.witness.digest()} [{self.witness.describe()}]")
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# Semantic Hoare checking.


def _post_fails(witness: MentalState, executed: bool, idle: str) -> Verdict:
    how = "after execution" if executed else f"in place ({idle})"
    return Verdict(False, witness, detail=f"post fails {how}")


def _first_failing_step(
        pre_states: list[MentalState], post: Formula,
        advance: Callable[[MentalState], Optional[MentalState]],
) -> Optional[tuple[MentalState, bool]]:
    """Step each pre-state with ``advance``, which gives ``None`` for an
    idle step that leaves the state in place, and evaluate ``post`` over
    the images as one mask.  Returns the first pre-state whose image fails,
    and whether its step executed; ``None`` when every image satisfies it.
    """
    moved = [advance(s) for s in pre_states]
    images = StateSet(s if t is None else t for s, t in zip(pre_states, moved))
    failed = images.full & ~images.mask(post)
    if not failed:
        return None
    i = lowest_bit(failed)
    return pre_states[i], moved[i] is not None


def check_hoare_basic(triple: HoareTriple,
                      states: Iterable[MentalState]) -> Verdict:
    """Total-correctness triple over a basic action, checked statewise.

    At each in-scope state satisfying the precondition: if the action is
    enabled the postcondition must hold at its result, otherwise at the
    state itself.
    """
    action = triple.statement
    assert not isinstance(action, ConditionalAction)
    scope = StateSet(states)
    # apply_M is None exactly where the action is not enabled
    failure = _first_failing_step(scope.select(scope.mask(triple.pre)),
                                  triple.post, partial(apply_M, action))
    if failure is None:
        return Verdict(True, scope="statewise")
    return _post_fails(*failure, "not enabled")


def check_hoare_conditional(triple: HoareTriple, graph: StateGraph) -> Verdict:
    """Conditional-action triple over the agent's reachable states.

    Where the precondition holds: an executing step must reach the
    postcondition, an idle step must leave it true in place.  For an action
    of the agent's program the steps are read from the graph's index and
    the postcondition is evaluated at their targets on the graph's state
    set; any other conditional action is stepped at each pre-state.
    """
    b = triple.statement
    assert isinstance(b, ConditionalAction)
    space = graph.states
    pre = space.mask(triple.pre)
    program = graph.agent.program
    failure: Optional[tuple[MentalState, bool]] = None
    if b in program:
        a = program.index(b)
        targets = graph.targets[a]
        sources = list(set_bits(pre))
        reached = 0
        for i in sources:
            reached |= 1 << targets[i]
        post = space.mask(triple.post, within=reached)
        bad = next((i for i in sources if not post >> targets[i] & 1), None)
        if bad is not None:
            failure = graph.nodes[bad], bool(graph.executed[a] >> bad & 1)
    else:
        def advance(s: MentalState) -> Optional[MentalState]:
            st = step(s, b)
            return st.target if st.executed else None
        failure = _first_failing_step(space.select(pre), triple.post, advance)
    if failure is None:
        return Verdict(True, scope="reachable")
    return _post_fails(*failure, "idle")


# ---------------------------------------------------------------------------
# The wlp calculus.

def _subst_adopt(sigma: Formula, phi: Formula) -> Formula:
    """Replace each G-leaf G(chi) with !B(chi) when phi entails chi."""
    return map_goal_leaves(
        sigma,
        lambda chi: Not(Bel(chi)) if tautology(Imp(phi, chi)) else Goal(chi))


def _subst_drop(sigma: Formula, phi: Formula) -> Formula:
    """Replace each G-leaf G(chi) with false when chi entails phi."""
    return map_goal_leaves(
        sigma,
        lambda chi: FALSE if tautology(Imp(chi, phi)) else Goal(chi))


def subst_insert(sigma: Formula, phi: Formula) -> Formula:
    """The belief-revision substitution for adding phi to the beliefs:
    B(chi) becomes B(phi -> chi); G(chi) becomes G(chi) & !B(phi -> chi)."""

    def rewrite(leaf: Formula) -> Formula:
        match leaf:
            case Bel(arg):
                return Bel(Imp(phi, arg))
            case Goal(arg):
                return And(Goal(arg), Not(Bel(Imp(phi, arg))))
        return leaf
    return map_leaves(sigma, rewrite)


def _builtin_insert_arg(cap: CapabilitySpec) -> Optional[Formula]:
    if (len(cap.clauses) == 1 and cap.clauses[0].guard == TRUE
            and len(cap.clauses[0].add) == 1 and not cap.clauses[0].delete):
        return cap.clauses[0].add[0]
    return None


def _builtin_remove_arg(cap: CapabilitySpec) -> Optional[Formula]:
    if (len(cap.clauses) == 1 and cap.clauses[0].guard == TRUE
            and not cap.clauses[0].add and len(cap.clauses[0].delete) == 1):
        return cap.clauses[0].delete[0]
    return None


def wlp(statement: Statement, sigma: Formula) -> Formula:
    """Weakest liberal precondition of ``sigma`` under ``statement``.

    adopt/drop/conditional are computed syntactically, and so are the two
    built-in shapes of belief capability (pure single add, pure single
    delete).  adopt and drop leave the beliefs, and so every ``enabled``
    leaf, as they are.  A belief update can change whether an action is
    enabled, and no rule here regresses that, so a belief capability under
    a ``sigma`` with an ``enabled`` leaf raises :class:`MissingAxiom`.
    """
    if isinstance(statement, ConditionalAction):
        inner = wlp(statement.action, sigma)
        psi = statement.condition
        return Or(And(psi, inner), And(Not(psi), sigma))
    if isinstance(statement, GoalAction):
        if statement.kind == "adopt":
            en = Enabled(statement)
            return Or(And(en, _subst_adopt(sigma, statement.argument)),
                      And(Not(en), sigma))
        return _subst_drop(sigma, statement.argument)
    leaf = next((f for f in msf_leaves(sigma) if isinstance(f, Enabled)), None)
    if leaf is not None:
        raise MissingAxiom(f"no wlp axiom for {render(leaf)} under "
                           f"capability {statement.name!r}")
    phi = _builtin_insert_arg(statement)
    if phi is not None:
        guarded = subst_insert(sigma, phi)
        blocked = Bel(Not(phi))
        return Or(And(Not(blocked), guarded), And(blocked, sigma))
    if _builtin_remove_arg(statement) is not None:
        # Syntactic removal of a formula the canonical belief bases never
        # contain verbatim: a no-op on every oracle-universe state.
        return sigma
    raise MissingAxiom(f"no wlp axiom for capability {statement.name!r}")


def derive_hoare(triple: HoareTriple, atoms: Sequence[str],
                 max_generators: int = 2) -> Verdict:
    """Syntactic route: is pre -> wlp(statement, post) valid in bounds?"""
    weakest = wlp(triple.statement, triple.post)
    oracle: OracleVerdict = validity_oracle(
        Imp(triple.pre, weakest), atoms, max_generators)
    if oracle.valid:
        return Verdict(True, scope=oracle.describe())
    return Verdict(False, oracle.countermodel,
                   detail="pre does not entail the weakest precondition")


# ---------------------------------------------------------------------------
# unless / ensures via Hoare obligations.


def check_unless(phi: Formula, psi: Formula, agent: Agent,
                 graph: Optional[StateGraph] = None) -> Verdict:
    """phi unless psi, discharged as one triple {phi & !psi} b {phi | psi}
    per conditional action, over the reachable states."""
    if graph is None:
        graph = reachable(agent)
    pre = And(phi, Not(psi))
    post = Or(phi, psi)
    failures = []
    witness = None
    for i, b in enumerate(agent.program):
        verdict = check_hoare_conditional(HoareTriple(pre, b, post), graph)
        if not verdict.holds:
            failures.append(agent.action_label(i))
            if witness is None:
                witness = verdict.witness
    if failures:
        return Verdict(False, witness,
                       detail=f"per-action triples fail for {', '.join(failures)}")
    return Verdict(True, scope=f"reachable, {len(agent.program)} action triples")


def check_ensures(phi: Formula, psi: Formula, agent: Agent,
                  graph: Optional[StateGraph] = None) -> Verdict:
    """phi ensures psi as a sufficient condition: the unless obligations,
    plus one witness action whose triple {phi & !psi} b {psi} holds and
    which is enabled at every reachable phi & !psi state.

    The progress triple implies the enabledness: were b idle at a reachable
    phi & !psi state, its step would leave that state in place, where psi
    is false, so the triple would fail there.  Only the triple is checked.

    A false verdict means the rule does not establish the property; the
    trace-level oracle may still confirm it.
    """
    if graph is None:
        graph = reachable(agent)
    safety = check_unless(phi, psi, agent, graph)
    if not safety.holds:
        return Verdict(False, safety.witness,
                       detail=f"unless part: {safety.detail}")
    pre = And(phi, Not(psi))
    reasons = []
    for i, b in enumerate(agent.program):
        verdict = check_hoare_conditional(HoareTriple(pre, b, psi), graph)
        if verdict.holds:
            return Verdict(True,
                           scope=f"reachable, witness {agent.action_label(i)}")
        reasons.append(f"{agent.action_label(i)}: progress triple fails")
    pending = graph.states.mask(pre)
    return Verdict(False,
                   witness=graph.nodes[lowest_bit(pending)] if pending else None,
                   detail="no witness action ("
                          + ("; ".join(reasons) if reasons else "empty program")
                          + ")")


# ---------------------------------------------------------------------------
# Leads-to proofs.


@dataclass(frozen=True)
class EnsuresLeaf:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Trans:
    first: "LeadsToProof"
    second: "LeadsToProof"

    @property
    def left(self) -> Formula:
        return self.first.left

    @property
    def right(self) -> Formula:
        return self.second.right


@dataclass(frozen=True)
class Disj:
    children: tuple["LeadsToProof", ...]

    @property
    def left(self) -> Formula:
        lefts = [c.left for c in self.children]
        out = lefts[0]
        for f in lefts[1:]:
            out = Or(out, f)
        return out

    @property
    def right(self) -> Formula:
        return self.children[0].right


LeadsToProof = Union[EnsuresLeaf, Trans, Disj]


def check_leadsto(proof: LeadsToProof, agent: Agent,
                  graph: Optional[StateGraph] = None) -> Verdict:
    """Validate a leads-to proof tree: leaves by the ensures rule, inner
    nodes by transitivity (matching middle formula) or disjunction
    (matching right formulas)."""
    if graph is None:
        graph = reachable(agent)
    if isinstance(proof, EnsuresLeaf):
        verdict = check_ensures(proof.left, proof.right, agent, graph)
        if not verdict.holds:
            return Verdict(False, verdict.witness,
                           detail=f"leaf {render(proof.left)} ensures "
                                  f"{render(proof.right)}: {verdict.detail}")
        return Verdict(True, scope="ensures leaf")
    if isinstance(proof, Trans):
        if proof.first.right != proof.second.left:
            raise MalformedProof(
                f"transitivity middle mismatch: {render(proof.first.right)} "
                f"vs {render(proof.second.left)}")
        for child in (proof.first, proof.second):
            verdict = check_leadsto(child, agent, graph)
            if not verdict.holds:
                return verdict
        return Verdict(True, scope="transitivity")
    if isinstance(proof, Disj):
        if not proof.children:
            raise MalformedProof("empty disjunction node")
        rights = {c.right for c in proof.children}
        if len(rights) != 1:
            raise MalformedProof("disjunction children disagree on the conclusion")
        for child in proof.children:
            verdict = check_leadsto(child, agent, graph)
            if not verdict.holds:
                return verdict
        return Verdict(True, scope="disjunction")
    raise MalformedProof(f"not a proof node: {proof!r}")


def _or_disjuncts(phi: Formula) -> list[Formula]:
    if isinstance(phi, Or):
        return _or_disjuncts(phi.left) + _or_disjuncts(phi.right)
    return [phi]


def _scope_entails(graph: StateGraph, alpha: Formula, beta: Formula) -> bool:
    """Whether every reachable state satisfying alpha satisfies beta."""
    where = graph.states.mask(alpha)
    return graph.states.mask(beta, within=where) == where


def prove_leadsto(alpha: Formula, omega: Formula, agent: Agent,
                  steps: Sequence[tuple[Formula, Formula]],
                  graph: Optional[StateGraph] = None) -> Optional[LeadsToProof]:
    """Search for a leads-to proof of ``alpha -> omega``.

    ``steps`` are validated ensures properties used as stepping stones.
    Composition uses transitivity, disjunction over top-level disjuncts,
    and bridging leaves alpha ensures phi_i wherever alpha entails phi_i
    over the reachable states (such leaves hold vacuously).
    """
    if graph is None:
        graph = reachable(agent)

    def search(left: Formula, used: frozenset[int]) -> Optional[LeadsToProof]:
        if check_ensures(left, omega, agent, graph).holds:
            return EnsuresLeaf(left, omega)
        parts = _or_disjuncts(left)
        if len(parts) > 1:
            subs = [search(p, used) for p in parts]
            if all(s is not None for s in subs):
                return Disj(tuple(subs))  # type: ignore[arg-type]
        for i, (phi_i, psi_i) in enumerate(steps):
            if i in used:
                continue
            if not _scope_entails(graph, left, phi_i):
                continue
            rest = search(psi_i, used | {i})
            if rest is None:
                continue
            tail = Trans(EnsuresLeaf(phi_i, psi_i), rest)
            if left == phi_i:
                return tail
            return Trans(EnsuresLeaf(left, phi_i), tail)
        return None

    return search(alpha, frozenset())


# ---------------------------------------------------------------------------
# Temporal formulas over lasso traces.


class Temporal:
    pass


@dataclass(frozen=True, slots=True)
class TInit(Temporal):
    pass


@dataclass(frozen=True, slots=True)
class TState(Temporal):
    formula: Formula


@dataclass(frozen=True, slots=True)
class TNot(Temporal):
    operand: Temporal


@dataclass(frozen=True, slots=True)
class TAnd(Temporal):
    left: Temporal
    right: Temporal


@dataclass(frozen=True, slots=True)
class TOr(Temporal):
    left: Temporal
    right: Temporal


@dataclass(frozen=True, slots=True)
class TImp(Temporal):
    left: Temporal
    right: Temporal


@dataclass(frozen=True, slots=True)
class TUntil(Temporal):
    """Weak until: either the right side is eventually reached with the
    left side true before it, or the left side holds forever."""
    left: Temporal
    right: Temporal


def t_always(a: Temporal) -> Temporal:
    return TUntil(a, TState(FALSE))


def t_eventually(a: Temporal) -> Temporal:
    return TNot(t_always(TNot(a)))


def t_unless(phi: Formula, psi: Formula) -> Temporal:
    return TImp(TState(phi), TUntil(TState(phi), TState(psi)))


def t_ensures(phi: Formula, psi: Formula) -> Temporal:
    return TAnd(t_unless(phi, psi),
                TImp(TState(phi), t_eventually(TState(psi))))


UNDETERMINED = "undetermined"
Tri = Union[bool, str]


def _tri_not(a: Tri) -> Tri:
    return UNDETERMINED if a == UNDETERMINED else (not a)


def _tri_and(a: Tri, b: Tri) -> Tri:
    if a is False or b is False:
        return False
    if a == UNDETERMINED or b == UNDETERMINED:
        return UNDETERMINED
    return True


def _tri_or(a: Tri, b: Tri) -> Tri:
    if a is True or b is True:
        return True
    if a == UNDETERMINED or b == UNDETERMINED:
        return UNDETERMINED
    return True if (a or b) else False


@dataclass(frozen=True)
class LassoTrace:
    """States of a trace; ``cycle_start`` marks a lasso (the suffix from
    that index repeats forever).  ``None`` means a plain finite prefix."""

    states: tuple[MentalState, ...]
    cycle_start: Optional[int] = None

    def norm(self, i: int) -> int:
        n = len(self.states)
        if i < n:
            return i
        if self.cycle_start is None:
            raise IndexError(f"position {i} beyond a finite prefix")
        c = self.cycle_start
        return c + (i - c) % (n - c)

    def horizon(self) -> int:
        """One full cycle beyond the prefix (every normalized position is
        visited at least once below the horizon)."""
        n = len(self.states)
        if self.cycle_start is None:
            return n
        return n + (n - self.cycle_start)


def eval_temporal(trace: LassoTrace, phi: Temporal, position: int = 0) -> Tri:
    """Three-valued evaluation: booleans are exact; on a finite non-lasso
    prefix an undecided until yields the explicit undetermined verdict."""
    memo: dict[tuple[int, int], Tri] = {}

    def ev(f: Temporal, i: int) -> Tri:
        i = trace.norm(i) if (trace.cycle_start is not None
                              and i >= len(trace.states)) else i
        key = (id(f), i)
        if key in memo:
            return memo[key]
        result = _ev(f, i)
        memo[key] = result
        return result

    def _ev(f: Temporal, i: int) -> Tri:
        match f:
            case TInit():
                return i == 0
            case TState(formula):
                return eval_msf(trace.states[trace.norm(i)], formula)
            case TNot(operand):
                return _tri_not(ev(operand, i))
            case TAnd(a, b):
                return _tri_and(ev(a, i), ev(b, i))
            case TOr(a, b):
                return _tri_or(ev(a, i), ev(b, i))
            case TImp(a, b):
                return _tri_or(_tri_not(ev(a, i)), ev(b, i))
            case TUntil(a, b):
                return _until(a, b, i)
        raise VerifierError(f"not a temporal formula: {f!r}")

    def _until(a: Temporal, b: Temporal, i: int) -> Tri:
        pending = False
        lasso = trace.cycle_start is not None
        for j in range(i, max(trace.horizon(), i + 1)):
            bj = ev(b, j)
            if bj is True:
                return True
            if bj == UNDETERMINED:
                pending = True
            aj = ev(a, j)
            if aj is False:
                return UNDETERMINED if pending else False
            if aj == UNDETERMINED:
                return UNDETERMINED
        if not lasso:
            # the prefix ended with the left side still holding
            return UNDETERMINED
        return UNDETERMINED if pending else True

    return ev(phi, position)


# ---------------------------------------------------------------------------
# Graph-level trace oracles (quantification over all fair traces).


def _fair_scc_trap(graph: StateGraph, agent: Agent, avoid: Formula,
                   sources: list[MentalState]) -> Optional[tuple[MentalState, list[MentalState]]]:
    """Find a fair way to avoid ``avoid`` forever.

    Returns (start, component) where start satisfies the caller's source
    predicate, every state on the path and in the component falsifies
    ``avoid``, and every action has, somewhere in the component, a step
    that stays inside it (so cycling through the component attempts every
    action infinitely often: a fair trace).
    """
    bad = [s for s in graph.nodes if not eval_msf(s, avoid)]
    bad_set = set(bad)
    # Tarjan over the subgraph induced by the avoid-falsifying states.
    index: dict[MentalState, int] = {}
    low: dict[MentalState, int] = {}
    on_stack: set[MentalState] = set()
    stack: list[MentalState] = []
    sccs: list[list[MentalState]] = []
    counter = [0]

    def out_edges(s: MentalState) -> list[Edge]:
        return [e for e in graph.successors[s] if e.target in bad_set]

    def strongconnect(root: MentalState) -> None:
        work = [(root, iter(out_edges(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for edge in it:
                t = edge.target
                if t not in index:
                    index[t] = low[t] = counter[0]
                    counter[0] += 1
                    stack.append(t)
                    on_stack.add(t)
                    work.append((t, iter(out_edges(t))))
                    advanced = True
                    break
                if t in on_stack:
                    low[node] = min(low[node], index[t])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)

    for s in bad:
        if s not in index:
            strongconnect(s)

    traps = []
    n_actions = len(agent.program)
    for comp in sccs:
        comp_set = set(comp)
        # self-loop-only components still count: an idle attempt is a step
        ok = all(
            any(graph.successors[w][b].target in comp_set for w in comp)
            for b in range(n_actions))
        if ok:
            traps.append(comp_set)
    if not traps:
        return None

    # Can some source reach a trap through avoid-falsifying states?
    trap_union: dict[MentalState, list[MentalState]] = {}
    for comp_set in traps:
        for s in comp_set:
            trap_union.setdefault(s, sorted(comp_set, key=lambda x: x.digest()))
    for start in sources:
        seen = {start}
        queue = [start]
        while queue:
            node = queue.pop(0)
            if node in trap_union:
                return start, trap_union[node]
            for edge in out_edges(node):
                if edge.target not in seen:
                    seen.add(edge.target)
                    queue.append(edge.target)
    return None


def graph_unless(phi: Formula, psi: Formula, agent: Agent,
                 graph: Optional[StateGraph] = None) -> Verdict:
    """Trace-level oracle for phi unless psi.

    A safety property: it fails on some fair trace exactly when some
    reachable state satisfying phi & !psi has a one-step successor
    falsifying both phi and psi.
    """
    if graph is None:
        graph = reachable(agent)
    pre = And(phi, Not(psi))
    for s in graph.nodes:
        if not eval_msf(s, pre):
            continue
        for edge in graph.successors[s]:
            t = edge.target
            if not eval_msf(t, phi) and not eval_msf(t, psi):
                return Verdict(False, s,
                               detail=f"broken by {agent.action_label(edge.action_index)}")
    return Verdict(True, scope="all fair traces (graph oracle)")


def graph_eventuality(phi: Formula, psi: Formula, agent: Agent,
                      graph: Optional[StateGraph] = None) -> Verdict:
    """Trace-level oracle for phi -> eventually psi over all fair traces
    and positions: fails exactly when a phi & !psi state can reach, through
    !psi states, a component where every action can be attempted without
    leaving it."""
    if graph is None:
        graph = reachable(agent)
    sources = [s for s in graph.nodes
               if eval_msf(s, phi) and not eval_msf(s, psi)]
    trap = _fair_scc_trap(graph, agent, psi, sources)
    if trap is None:
        return Verdict(True, scope="all fair traces (graph oracle)")
    start, comp = trap
    return Verdict(False, start,
                   detail=f"fair trap of {len(comp)} state(s) avoids the target")


def graph_ensures(phi: Formula, psi: Formula, agent: Agent,
                  graph: Optional[StateGraph] = None) -> Verdict:
    if graph is None:
        graph = reachable(agent)
    safety = graph_unless(phi, psi, agent, graph)
    if not safety.holds:
        return safety
    return graph_eventuality(phi, psi, agent, graph)


# ---------------------------------------------------------------------------
# Witness lassos: concrete fair traces refuting a property, suitable for
# independent re-evaluation with eval_temporal.


def _path_states(graph: StateGraph, start: MentalState,
                 goal: Callable[[MentalState], bool],
                 allowed: Callable[[MentalState], bool]) -> Optional[list[Edge]]:
    """BFS for an edge path from start to a goal state through allowed states."""
    if goal(start):
        return []
    seen = {start}
    queue: list[tuple[MentalState, list[Edge]]] = [(start, [])]
    while queue:
        node, path = queue.pop(0)
        for edge in graph.successors[node]:
            t = edge.target
            if t in seen or not allowed(t):
                continue
            if goal(t):
                return path + [edge]
            seen.add(t)
            queue.append((t, path + [edge]))
    return None


def fair_lasso_from(agent: Agent, graph: StateGraph,
                    start: MentalState) -> LassoTrace:
    """A concrete fair lasso: reach ``start``, then loop round-robin until
    a (state, phase) pair repeats."""
    prefix = _path_states(graph, agent.initial_state,
                          lambda s: s == start, lambda s: True)
    assert prefix is not None, "start must be reachable"
    states = [agent.initial_state] + [e.target for e in prefix]
    n = len(agent.program)
    seen: dict[tuple[MentalState, int], int] = {}
    phase = 0
    while (states[-1], phase) not in seen:
        seen[(states[-1], phase)] = len(states) - 1
        nxt = graph.successors[states[-1]][phase].target
        states.append(nxt)
        phase = (phase + 1) % n
    cycle_start = seen[(states[-1], phase)]
    # the final state re-enters the cycle; drop the duplicate
    return LassoTrace(tuple(states[:-1]), cycle_start=cycle_start)


def trap_lasso(agent: Agent, graph: StateGraph, start: MentalState,
               psi: Formula) -> Optional[LassoTrace]:
    """A fair lasso witnessing that ``psi`` can be avoided forever from
    ``start``: path through !psi states into a fair trap, then a cycle
    inside the trap attempting every action."""
    trap = _fair_scc_trap(graph, agent, psi, [start])
    if trap is None:
        return None
    _, comp = trap
    comp_set = set(comp)
    not_psi = lambda s: not eval_msf(s, psi)
    into = _path_states(graph, start, lambda s: s in comp_set, not_psi)
    assert into is not None
    states = [start] + [e.target for e in into]
    # Cycle: attempt every action from a node of the trap that keeps us
    # inside, navigating within the trap between attempts.
    current = states[-1]
    cycle_start = len(states) - 1
    for b in range(len(agent.program)):
        anchor = next(w for w in comp
                      if graph.successors[w][b].target in comp_set)
        walk = _path_states(graph, current, lambda s: s == anchor,
                            lambda s: s in comp_set)
        assert walk is not None
        states.extend(e.target for e in walk)
        states.append(graph.successors[anchor][b].target)
        current = states[-1]
    back = _path_states(graph, current, lambda s: s == states[cycle_start],
                        lambda s: s in comp_set)
    assert back is not None
    states.extend(e.target for e in back)
    # states[cycle_start] recurs at the end: drop the duplicate tail state
    assert states[-1] == states[cycle_start]
    return LassoTrace(tuple(states[:-1]), cycle_start=cycle_start)


# ---------------------------------------------------------------------------
# Whole-agent verification driver and reports.


@dataclass
class Obligation:
    name: str
    rule: str
    verdict: Verdict

    def record(self) -> str:
        digest = (self.verdict.witness.digest()
                  if self.verdict.witness is not None else None)
        return json.dumps({
            "obligation": self.name,
            "rule": self.rule,
            "verdict": "holds" if self.verdict.holds else "fails",
            "witness_state_digest": digest,
        }, sort_keys=True)

    def text(self) -> str:
        return f"{self.name} | {self.rule} | {self.verdict.describe()}"


def verify_agent(agent: Agent, budget: Optional[int] = None) -> list[Obligation]:
    """Check every property declared by the agent, in declaration order.

    Ensures properties double as stepping stones for leads-to proofs.  All
    obligations are checked over one reachable graph, whose state set
    evaluates each formula once.
    """
    graph = reachable(agent, budget=budget)
    ensures_steps = [(p.left, p.right) for p in agent.properties
                     if p.kind == "ensures"]

    def check(prop: PropertyDecl) -> list[Obligation]:
        label = str(prop)
        if prop.kind == "invariant":
            init_ok = eval_msf(agent.initial_state, prop.left)
            init_verdict = Verdict(init_ok,
                                   None if init_ok else agent.initial_state,
                                   scope="initial state")
            stable = check_unless(prop.left, FALSE, agent, graph)
            return [
                Obligation(f"init -> {render(prop.left)}",
                           "invariant-initialization", init_verdict),
                Obligation(f"{render(prop.left)} unless false",
                           "unless-by-action-triples", stable),
            ]
        if prop.kind == "unless":
            assert prop.right is not None
            return [Obligation(label, "unless-by-action-triples",
                               check_unless(prop.left, prop.right, agent, graph))]
        if prop.kind == "ensures":
            assert prop.right is not None
            return [Obligation(label, "ensures-by-action-triples",
                               check_ensures(prop.left, prop.right, agent, graph))]
        if prop.kind == "leadsto":
            assert prop.right is not None
            proof = prove_leadsto(prop.left, prop.right, agent,
                                  ensures_steps, graph)
            if proof is None:
                verdict = Verdict(False, detail="no proof found from the "
                                                "declared ensures steps")
            else:
                verdict = check_leadsto(proof, agent, graph)
            return [Obligation(label, "leadsto-composition", verdict)]
        raise VerifierError(f"unknown property kind {prop.kind!r}")

    return [ob for prop in agent.properties for ob in check(prop)]


def render_report(obligations: Sequence[Obligation],
                  fmt: str = "text") -> str:
    if fmt == "records":
        return "\n".join(ob.record() for ob in obligations) + "\n"
    lines = ["verification report", "==================="]
    lines += [ob.text() for ob in obligations]
    n_bad = sum(1 for ob in obligations if not ob.verdict.holds)
    lines.append(f"total: {len(obligations)} obligations, {n_bad} failing")
    return "\n".join(lines) + "\n"
