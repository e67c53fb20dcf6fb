"""Hoare-triple checking, the wlp calculus, and temporal verification.

Two independent routes are provided for most judgements: a semantic check
that quantifies over a scope of mental states (the bounded universe or the
agent's reachable graph), and a syntactic route that computes weakest
liberal preconditions and discharges the residue with the validity oracle.
:func:`check_hoare_basic` is the one semantic triple checker: it takes any
statement, conditional actions included, over any sequence of states.
Temporal properties (unless / ensures / leads-to) reduce to finitely many
Hoare obligations, which ``verify`` reads off the reachable graph's index;
graph-level trace oracles double-check the reductions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

from .prop_logic import (
    CACHE_SIZE, And, FALSE, Formula, Iff, Imp, Not, Or, Record, TRUE, atoms_of,
    formula_for_table, map_leaves, render, tautology, truth_table,
)
from .mental_state import (
    Bel, ConditionalAction, EffectClause, Enabled, Goal, GoalAction,
    MentalState, Statement, Verdict, eval_msf, held_set, lowest_bit,
    map_goal_leaves, msf_leaves, set_bits, validity_oracle,
)
from .agent_program import Agent, PropertyDecl
from .executor import StateGraph, reachable


class VerifierError(Exception):
    pass


class MissingAxiom(VerifierError):
    """A belief capability with no wlp axiom and no recognizable shape."""


class MalformedProof(VerifierError):
    """A leads-to proof tree whose node conclusions do not fit its rules."""


class HoareTriple(Record):
    __slots__ = __match_args__ = ("pre", "statement", "post")

    def __str__(self) -> str:
        return f"{{{render(self.pre)}}} {self.statement} {{{render(self.post)}}}"


# ---------------------------------------------------------------------------
# Semantic Hoare checking.


def check_hoare_basic(triple: HoareTriple,
                      states: Iterable[MentalState]) -> Verdict:
    """Total-correctness triple over any statement, checked statewise.

    At each in-scope state satisfying the precondition: where the statement
    has a transition (:func:`apply_M`) the postcondition must hold at its
    result, otherwise at the state itself.  The scope is the one set
    :func:`held_set` holds for this sequence of states, which is also
    :func:`validity_oracle`'s set when the scope is a bounded universe, and
    the statement's image set is held on it (:meth:`StateSet.image`), so a
    repeated question is answered from masks kept on both.  The witness is
    the caller's own state.
    """
    given = tuple(states)
    scope = held_set(given)
    pre = scope.mask(triple.pre)
    images, executed = scope.image(triple.statement)
    failed = pre & ~images.mask(triple.post, within=pre)
    if not failed:
        return Verdict(True, scope="statewise")
    i = lowest_bit(failed)
    idle = ("idle" if isinstance(triple.statement, ConditionalAction)
            else "not enabled")
    how = "after execution" if executed >> i & 1 else f"in place ({idle})"
    return Verdict(False, given[i], detail=f"post fails {how}")


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


@lru_cache(maxsize=CACHE_SIZE)
def wlp(statement: Statement, sigma: Formula) -> Formula:
    """Weakest liberal precondition of ``sigma`` under ``statement``.

    adopt/drop/conditional are computed syntactically, and so are the two
    built-in shapes of belief capability: one clause, guard ``true``, with
    a single add and no delete (insert) or no add and a single delete
    (remove).  adopt and drop leave the beliefs, and so every ``enabled``
    leaf, as they are.  A belief update can change whether an action is
    enabled, and no rule here regresses that, so a belief capability under
    a ``sigma`` with an ``enabled`` leaf raises :class:`MissingAxiom`.

    The last ``CACHE_SIZE`` answers are kept, keyed by the statement (a
    record hashed by its fields) and the interned ``sigma``, so an equal
    statement built afresh gets the node a fresh computation would build.
    :class:`MissingAxiom` is raised on every call and never kept.
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
    match statement.clauses:
        case [EffectClause(guard, [phi], [])] if guard is TRUE:
            guarded = subst_insert(sigma, phi)
            blocked = Bel(Not(phi))
            return Or(And(Not(blocked), guarded), And(blocked, sigma))
        case [EffectClause(guard, [], [_])] if guard is TRUE:
            # deletion is by identity: exact wherever the beliefs do not
            # hold the formula itself (derive_hoare refuses the others)
            return sigma
    raise MissingAxiom(f"no wlp axiom for capability {statement.name!r}")


def _refuse_deleted_bases(statement: Statement, voc: tuple[str, ...]) -> None:
    """Raise :class:`MissingAxiom` if ``statement`` deletes a belief base of
    the bounded universe over ``voc``.  A non-empty base is one canonical
    formula, which mentions every atom of ``voc``."""
    if isinstance(statement, ConditionalAction):
        statement = statement.action
    if isinstance(statement, GoalAction):
        return
    for clause in statement.clauses:
        for phi in clause.delete:
            if voc and atoms_of(phi) == frozenset(voc) and formula_for_table(
                    truth_table(phi, voc), voc) is phi:
                raise MissingAxiom(
                    f"no wlp axiom for capability {statement.name!r} over "
                    f"atoms {', '.join(voc)}: it deletes {render(phi)}, "
                    f"a belief base there")


def derive_hoare(triple: HoareTriple, atoms: Sequence[str],
                 max_generators: int = 2) -> Verdict:
    """Syntactic route: is pre -> wlp(statement, post) valid in bounds?
    wlp's remove rule misses the state whose belief base is the removed
    formula, so removing a base of the universe raises :class:`MissingAxiom`."""
    weakest = wlp(triple.statement, triple.post)
    voc = tuple(sorted(atoms))
    # the oracle first, so that a universe out of bounds says so
    verdict = validity_oracle(Imp(triple.pre, weakest), voc, max_generators)
    _refuse_deleted_bases(triple.statement, voc)
    if verdict.holds:
        return verdict
    return Verdict(False, verdict.witness,
                   detail="pre does not entail the weakest precondition")


# ---------------------------------------------------------------------------
# unless / ensures via Hoare obligations.


def _failing_sources(graph: StateGraph, pre: Formula,
                     post: Formula) -> Iterator[Optional[int]]:
    """For each action of the graph's program, in order: the lowest
    position where ``pre`` holds and the action's step ends outside
    ``post``, or ``None`` where the triple {pre} b {post} holds.

    The steps are read from the graph's index, the pre mask is computed
    once, and ``post`` is evaluated on the graph's state set only at the
    targets of the pre-states, so the actions share its kept values.
    """
    sources = list(set_bits(graph.states.mask(pre)))
    for targets in graph.targets:
        reached = 0
        for i in sources:
            reached |= 1 << targets[i]
        holds = graph.states.mask(post, within=reached)
        yield next((i for i in sources if not holds >> targets[i] & 1), None)


def check_unless(phi: Formula, psi: Formula, agent: Agent,
                 graph: Optional[StateGraph] = None) -> Verdict:
    """phi unless psi, discharged as one triple {phi & !psi} b {phi | psi}
    per conditional action, over the reachable states."""
    if graph is None:
        graph = reachable(agent)
    failures = []
    witness = None
    for a, bad in enumerate(_failing_sources(graph, And(phi, Not(psi)),
                                             Or(phi, psi))):
        if bad is not None:
            failures.append(agent.action_label(a))
            if witness is None:
                witness = graph.nodes[bad]
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
    for a, bad in enumerate(_failing_sources(graph, pre, psi)):
        if bad is None:
            return Verdict(True,
                           scope=f"reachable, witness {agent.action_label(a)}")
        reasons.append(f"{agent.action_label(a)}: progress triple fails")
    pending = graph.states.mask(pre)
    return Verdict(False,
                   witness=graph.nodes[lowest_bit(pending)] if pending else None,
                   detail="no witness action ("
                          + ("; ".join(reasons) if reasons else "empty program")
                          + ")")


# ---------------------------------------------------------------------------
# Leads-to proofs.


class EnsuresLeaf(Record):
    __slots__ = __match_args__ = ("left", "right")


class Trans(Record):
    __slots__ = __match_args__ = ("first", "second")

    @property
    def left(self) -> Formula:
        return self.first.left

    @property
    def right(self) -> Formula:
        return self.second.right


class Disj(Record):
    """Disjunction: one child per top-level disjunct of ``left``, in order."""

    __slots__ = __match_args__ = ("left", "children")

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
        children, rule = (proof.first, proof.second), "transitivity"
    elif isinstance(proof, Disj):
        if not proof.children:
            raise MalformedProof("empty disjunction node")
        if [c.left for c in proof.children] != _or_disjuncts(proof.left):
            raise MalformedProof(
                f"disjunction children do not split {render(proof.left)}")
        if len({c.right for c in proof.children}) != 1:
            raise MalformedProof("disjunction children disagree on the conclusion")
        children, rule = proof.children, "disjunction"
    else:
        raise MalformedProof(f"not a proof node: {proof!r}")
    for child in children:
        verdict = check_leadsto(child, agent, graph)
        if not verdict.holds:
            return verdict
    return Verdict(True, scope=rule)


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
                return Disj(left, tuple(subs))  # type: ignore[arg-type]
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


class Until(Formula):
    """Weak until: either the right side is eventually reached with the
    left side true before it, or the left side holds forever."""

    __slots__ = __match_args__ = ("left", "right")

    def __post_init__(self) -> None:
        self._seal(None, max(self.left.depth, self.right.depth) + 1)


def t_always(a: Formula) -> Formula:
    return Until(a, FALSE)


def t_eventually(a: Formula) -> Formula:
    return Not(t_always(Not(a)))


def t_unless(phi: Formula, psi: Formula) -> Formula:
    return Imp(phi, Until(phi, psi))


def t_ensures(phi: Formula, psi: Formula) -> Formula:
    return And(t_unless(phi, psi), Imp(phi, t_eventually(psi)))


class LassoTrace(Record):
    """An infinite trace: ``states``, after which the suffix from
    ``cycle_start`` repeats forever."""

    __slots__ = __match_args__ = ("states", "cycle_start")

    def successor(self, i: int) -> int:
        return i + 1 if i + 1 < len(self.states) else self.cycle_start


def eval_temporal(trace: LassoTrace, phi: Formula, position: int = 0) -> bool:
    """Whether ``phi`` holds at index ``position`` of the lasso.

    The connectives and :class:`Until` are read here; every other node is a
    state formula, which :func:`eval_msf` decides at the state.  Every
    position of a lasso has a successor, so the evaluation is two-valued: a
    weak until walks positions until one repeats, and holds if its left
    side held at each of them.
    """
    return _holds(trace, phi, position, {})


# _holds and _at pass the memo along instead of closing over it: two
# closures that call each other form a reference cycle, which would keep
# the memo and the lasso alive until the cyclic garbage collector runs.

def _holds(trace: LassoTrace, f: Formula, i: int,
           memo: dict[tuple[Formula, int], bool]) -> bool:
    key = (f, i)
    if key not in memo:
        memo[key] = _at(trace, f, i, memo)
    return memo[key]


def _at(trace: LassoTrace, f: Formula, i: int,
        memo: dict[tuple[Formula, int], bool]) -> bool:
    match f:
        case Not(operand):
            return not _holds(trace, operand, i, memo)
        case And(a, b):
            return _holds(trace, a, i, memo) and _holds(trace, b, i, memo)
        case Or(a, b):
            return _holds(trace, a, i, memo) or _holds(trace, b, i, memo)
        case Imp(a, b):
            return not _holds(trace, a, i, memo) or _holds(trace, b, i, memo)
        case Iff(a, b):
            return _holds(trace, a, i, memo) == _holds(trace, b, i, memo)
        case Until(a, b):
            seen = set()
            while i not in seen:
                if _holds(trace, b, i, memo):
                    return True
                if not _holds(trace, a, i, memo):
                    return False
                seen.add(i)
                i = trace.successor(i)
            return True
    return eval_msf(trace.states[i], f)


# ---------------------------------------------------------------------------
# Graph-level trace oracles (quantification over all fair traces).  They
# walk the graph's position index but evaluate formulas one state at a time
# with eval_msf, never with the graph's StateSet, so that they stay an
# independent check of the Hoare-triple rules.


def _truth(graph: StateGraph, phi: Formula) -> int:
    """The nodes where ``phi`` holds, as a position mask, state by state."""
    return sum(1 << i for i, s in enumerate(graph.nodes) if eval_msf(s, phi))


def shortest_path(graph: StateGraph, start: int, goal: int,
                  within: int = -1) -> Optional[list[int]]:
    """A shortest position path from ``start`` to a position in the mask
    ``goal``, every later position in the mask ``within``; ``None`` when
    there is none.  Breadth-first, expanding actions in program order."""
    parent = {start: start}
    queue = [start]
    for node in queue:      # queue grows as the search finds positions
        if goal >> node & 1:
            path = [node]
            while node != start:
                node = parent[node]
                path.append(node)
            return path[::-1]
        for row in graph.targets:
            t = row[node]
            if t not in parent and within >> t & 1:
                parent[t] = node
                queue.append(t)
    return None


def _closure(adjacent: list[int], mask: int, within: int) -> int:
    """The positions reached from ``mask`` along ``adjacent`` (one mask of
    neighbours per position) without leaving ``within``."""
    reached = frontier = mask
    while frontier:
        out = 0
        for i in set_bits(frontier):
            out |= adjacent[i]
        frontier = out & within & ~reached
        reached |= frontier
    return reached


def _fair_trap(graph: StateGraph, avoid: int,
               starts: int) -> Optional[tuple[list[int], int]]:
    """Find a fair way to stay inside the position mask ``avoid`` forever.

    A trap is a strongly connected component of the nodes in ``avoid``
    where every action has a step that stays inside it, so that cycling
    through it attempts every action infinitely often: a fair trace.  Each
    component is the forward closure of a position intersected with its
    backward closure inside ``avoid`` (Emerson and Lei's fair-cycle
    detection).  Returns a shortest path through ``avoid`` from the first
    of ``starts`` that reaches a trap, and that trap, or ``None``.
    """
    succ = [0] * len(graph.nodes)
    pred = [0] * len(graph.nodes)
    for row in graph.targets:
        for i, t in enumerate(row):
            succ[i] |= 1 << t
            pred[t] |= 1 << i
    traps = []
    rest = avoid
    while rest:
        pivot = rest & -rest
        comp = _closure(succ, pivot, avoid) & _closure(pred, pivot, avoid)
        rest &= ~comp
        # self-loop-only components still count: an idle attempt is a step
        if all(any(comp >> row[w] & 1 for w in set_bits(comp))
               for row in graph.targets):
            traps.append(comp)
    trapped = sum(traps)    # the components are disjoint
    for start in set_bits(starts):
        path = shortest_path(graph, start, trapped, avoid)
        if path is not None:
            return path, next(c for c in traps if c >> path[-1] & 1)
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
    holds_phi, holds_psi = _truth(graph, phi), _truth(graph, psi)
    broken = graph.states.full & ~(holds_phi | holds_psi)
    for i in set_bits(holds_phi & ~holds_psi):
        for a, row in enumerate(graph.targets):
            if broken >> row[i] & 1:
                return Verdict(False, graph.nodes[i],
                               detail=f"broken by {agent.action_label(a)}")
    return Verdict(True, scope="all fair traces (graph oracle)")


def graph_eventuality(phi: Formula, psi: Formula, agent: Agent,
                      graph: Optional[StateGraph] = None) -> Verdict:
    """Trace-level oracle for phi -> eventually psi over all fair traces
    and positions: fails exactly when a phi & !psi state can reach, through
    !psi states, a component where every action can be attempted without
    leaving it."""
    if graph is None:
        graph = reachable(agent)
    avoid = graph.states.full & ~_truth(graph, psi)
    trap = _fair_trap(graph, avoid, _truth(graph, phi) & avoid)
    if trap is None:
        return Verdict(True, scope="all fair traces (graph oracle)")
    path, comp = trap
    return Verdict(False, graph.nodes[path[0]],
                   detail=f"fair trap of {comp.bit_count()} state(s) "
                          f"avoids the target")


def graph_ensures(phi: Formula, psi: Formula, agent: Agent,
                  graph: Optional[StateGraph] = None) -> Verdict:
    if graph is None:
        graph = reachable(agent)
    safety = graph_unless(phi, psi, agent, graph)
    if not safety.holds:
        return safety
    return graph_eventuality(phi, psi, agent, graph)


# ---------------------------------------------------------------------------
# Witness lassos: concrete fair traces, suitable for independent
# re-evaluation with eval_temporal.


def fair_lasso(graph: StateGraph, path: Sequence[int]) -> LassoTrace:
    """Extend a position path into a fair lasso: from its last position,
    attempt the actions round-robin until a (position, action) pair
    repeats."""
    n = len(graph.targets)
    trace = list(path)
    seen: dict[tuple[int, int], int] = {}
    phase = 0
    while (trace[-1], phase) not in seen:
        seen[(trace[-1], phase)] = len(trace) - 1
        trace.append(graph.targets[phase][trace[-1]])
        phase = (phase + 1) % n
    # the final position re-enters the cycle; drop the duplicate
    return LassoTrace(tuple(graph.nodes[i] for i in trace[:-1]),
                      seen[(trace[-1], phase)])


def fair_lasso_from(agent: Agent, graph: StateGraph,
                    start: MentalState) -> LassoTrace:
    """A concrete fair lasso: reach ``start`` from the initial state along
    a shortest path, then loop round-robin."""
    path = shortest_path(graph, graph.position[agent.initial_state],
                         1 << graph.position[start])
    assert path is not None, "start must be reachable"
    return fair_lasso(graph, path)


def trap_lasso(agent: Agent, graph: StateGraph, start: MentalState,
               psi: Formula) -> Optional[LassoTrace]:
    """A fair lasso witnessing that ``psi`` can be avoided forever from
    ``start``: a path through !psi states into a fair trap, then a cycle
    inside the trap attempting every action.  ``None`` when there is none,
    which includes every ``start`` that satisfies ``psi``."""
    avoid = graph.states.full & ~_truth(graph, psi)
    trap = _fair_trap(graph, avoid, 1 << graph.position[start] & avoid)
    if trap is None:
        return None
    trace, comp = trap
    cycle_start = len(trace) - 1
    # attempt each action at the first node of the trap where it stays
    # inside, walking inside the trap between attempts
    for row in graph.targets:
        anchor = next(w for w in set_bits(comp) if comp >> row[w] & 1)
        walk = shortest_path(graph, trace[-1], 1 << anchor, comp)
        assert walk is not None
        trace += walk[1:] + [row[anchor]]
    back = shortest_path(graph, trace[-1], 1 << trace[cycle_start], comp)
    assert back is not None
    trace += back[1:]
    # the cycle's first position recurs at the end: drop the duplicate
    return LassoTrace(tuple(graph.nodes[i] for i in trace[:-1]), cycle_start)


# ---------------------------------------------------------------------------
# Whole-agent verification driver and reports.


class Obligation(Record):
    """One checked obligation of a property, under the rule that checked it."""

    __slots__ = __match_args__ = ("name", "rule", "verdict")

    def record(self) -> str:
        import json   # records mode only, so other runs do not load it
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
