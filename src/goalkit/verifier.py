"""Hoare-triple checking, the wlp calculus, and temporal verification.

Two independent routes are provided for most judgements: a semantic check
that quantifies over a scope of mental states (the bounded universe or the
agent's reachable graph), and a syntactic route that computes weakest
liberal preconditions and discharges the residue with the validity oracle.
:func:`check_hoare_basic` is the one semantic triple checker: it takes any
statement, conditional actions included, over any sequence of states.
Temporal properties (unless / ensures / leads-to) reduce to finitely many
Hoare obligations, which ``verify`` reads off the reachable graph's index.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Generator, Iterable, Iterator, Optional, Sequence, Union

from .prop_logic import (
    CACHE_SIZE, And, FALSE, Formula, Imp, Not, Or, Record, TRUE, atoms_of,
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
        node = self.first
        while isinstance(node, Trans):
            node = node.first
        return node.left

    @property
    def right(self) -> Formula:
        return _conclusion(self)


class Disj(Record):
    """Disjunction: one child per top-level disjunct of ``left``, in order."""

    __slots__ = __match_args__ = ("left", "children")

    @property
    def right(self) -> Formula:
        return _conclusion(self)


LeadsToProof = Union[EnsuresLeaf, Trans, Disj]

_RULES = {EnsuresLeaf: "ensures leaf", Trans: "transitivity",
          Disj: "disjunction"}


def _conclusion(node: LeadsToProof) -> Formula:
    """The right formula of a proof node: down the last premise of each
    transitivity and the first child of each disjunction, in a loop, so
    that a long proof is read without recursion."""
    while isinstance(node, (Trans, Disj)):
        node = node.second if isinstance(node, Trans) else node.children[0]
    return node.right


def check_leadsto(proof: LeadsToProof, agent: Agent,
                  graph: Optional[StateGraph] = None) -> Verdict:
    """Validate a leads-to proof tree: leaves by the ensures rule, inner
    nodes by transitivity (matching middle formula) or disjunction
    (matching right formulas).

    The nodes are visited in pre-order from an explicit stack, so a proof
    of any length is checked without recursion.  A malformed node raises
    when it is reached, the first failing leaf's verdict is returned, and
    a valid proof holds under its root's rule.
    """
    if graph is None:
        graph = reachable(agent)
    pending = [proof]
    while pending:
        node = pending.pop()
        if isinstance(node, EnsuresLeaf):
            verdict = check_ensures(node.left, node.right, agent, graph)
            if not verdict.holds:
                return Verdict(False, verdict.witness,
                               detail=f"leaf {render(node.left)} ensures "
                                      f"{render(node.right)}: {verdict.detail}")
        elif isinstance(node, Trans):
            if node.first.right != node.second.left:
                raise MalformedProof(
                    f"transitivity middle mismatch: {render(node.first.right)} "
                    f"vs {render(node.second.left)}")
            pending += (node.second, node.first)
        elif isinstance(node, Disj):
            if not node.children:
                raise MalformedProof("empty disjunction node")
            if [c.left for c in node.children] != _or_disjuncts(node.left):
                raise MalformedProof(
                    f"disjunction children do not split {render(node.left)}")
            if len({c.right for c in node.children}) != 1:
                raise MalformedProof("disjunction children disagree on the conclusion")
            pending += reversed(node.children)
        else:
            raise MalformedProof(f"not a proof node: {node!r}")
    return Verdict(True, scope=_RULES[type(proof)])


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

    ``steps`` are ensures properties used as stepping stones, unchecked:
    ``verify`` passes every declared one, failing ones included, and
    :func:`check_leadsto` then reports the proof's first failing leaf.
    Composition uses transitivity, disjunction over top-level disjuncts,
    and bridging leaves alpha ensures phi_i wherever alpha entails phi_i
    over the reachable states (such leaves hold vacuously).

    ``search`` is a pure function of its question, a formula and the
    steps used so far, so each question is answered once per call.  Its
    frames are generators that yield their sub-questions to a loop over
    an explicit stack, so a long chain of steps does not recurse.
    """
    if graph is None:
        graph = reachable(agent)

    def search(left: Formula, used: frozenset[int]) -> Generator[
            tuple[Formula, frozenset[int]], Optional[LeadsToProof],
            Optional[LeadsToProof]]:
        if check_ensures(left, omega, agent, graph).holds:
            return EnsuresLeaf(left, omega)
        parts = _or_disjuncts(left)
        if len(parts) > 1:
            subs = []
            for p in parts:
                subs.append((yield p, used))
            if all(s is not None for s in subs):
                return Disj(left, tuple(subs))  # type: ignore[arg-type]
        for i, (phi_i, psi_i) in enumerate(steps):
            if i in used:
                continue
            if not _scope_entails(graph, left, phi_i):
                continue
            rest = yield psi_i, used | {i}
            if rest is None:
                continue
            tail = Trans(EnsuresLeaf(phi_i, psi_i), rest)
            if left == phi_i:
                return tail
            return Trans(EnsuresLeaf(left, phi_i), tail)
        return None

    answers: dict[tuple[Formula, frozenset[int]], Optional[LeadsToProof]] = {}
    root = (alpha, frozenset())
    frames = [(root, search(*root))]
    answer = None
    while frames:
        question, frame = frames[-1]
        try:
            sub = frame.send(answer)
        except StopIteration as done:
            answers[question] = answer = done.value
            frames.pop()
            continue
        if sub in answers:
            answer = answers[sub]
        else:
            frames.append((sub, search(*sub)))
            answer = None
    return answer


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
