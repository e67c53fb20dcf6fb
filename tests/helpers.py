"""Shared test utilities: the enabledness rule and one execution attempt,
a seeded micro-agent generator, and the reference lexer and parsers.

The last sections hold reference code that no command runs, kept as test
oracles: temporal formulas over lasso traces (``Until``, ``t_always`` and
the rest, ``eval_temporal``), the graph-level trace oracles
(``graph_unless``, ``graph_eventuality``, ``graph_ensures``) and witness
lassos (``fair_lasso``, ``fair_lasso_from``, ``trap_lasso``), the agent
pretty-printer, the shopping fixture as an agent, formula equivalence, and
the recursive leads-to search and proof check.
"""

from __future__ import annotations

import random
from itertools import count
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from goalkit.prop_logic import (
    And, Atom, Const, FALSE, Formula, FormulaError, Iff, Imp, MAX_DEPTH, Not,
    Or, Record, TRUE, atoms_of, consistent, entails, formula_for_table,
    leaves, parse_formula, render, tautology, truth_table,
)
from goalkit.mental_state import (
    Action, Bel, CapabilitySpec, ConditionalAction, EffectClause, Enabled,
    Goal, GoalAction, MentalState, MentalStateError, Verdict, apply_M,
    apply_T, eval_msf, insert, msf_atoms, parse_msformula, remove, set_bits,
)
from goalkit.executor import StateGraph, reachable
from goalkit.verifier import (
    Disj, EnsuresLeaf, HoareTriple, LeadsToProof, MalformedProof, Trans,
    _or_disjuncts, _scope_entails, check_ensures,
)
from goalkit.agent_program import (
    Agent, AgentParseError, PropertyDecl, SHOPPING_SOURCE, _expand_name,
    _is_schema, parse_agent,
)


def reference_enabled(action: Action, state: MentalState) -> bool:
    """Enabledness by the paper's rules, without ``apply_M``: drop is always
    enabled, adopt needs a satisfiable argument that is not believed, and a
    capability needs its belief update ``apply_T`` to be defined."""
    if isinstance(action, GoalAction):
        return action.kind == "drop" or (
            consistent((action.argument,))
            and not entails(state.beliefs, action.argument))
    return apply_T(action, state.beliefs) is not None


def attempt(action: Action, state: MentalState) -> MentalState:
    """One execution attempt: the successor when enabled, else in place."""
    return apply_M(action, state) if reference_enabled(action, state) else state


def random_formula(rng: random.Random, vocab: tuple[str, ...],
                   depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.85:
            return Atom(rng.choice(vocab))
        return TRUE if roll < 0.925 else FALSE
    op = rng.randrange(5)
    if op == 0:
        return Not(random_formula(rng, vocab, depth - 1))
    a = random_formula(rng, vocab, depth - 1)
    b = random_formula(rng, vocab, depth - 1)
    return (And, Or, Imp, Iff)[op - 1](a, b)


def random_formula_for_table(rng: random.Random, table: int,
                             vocab: tuple[str, ...], tries: int = 40) -> Formula:
    """A randomized formula with the given truth table: random rewrites of
    the canonical form, falling back to the canonical form itself."""
    base = formula_for_table(table, vocab)
    for _ in range(tries):
        candidate = _mutate(rng, base, rounds=rng.randrange(1, 4))
        if truth_table(candidate, vocab) == table:
            return candidate
    return base


def _mutate(rng: random.Random, phi: Formula, rounds: int) -> Formula:
    for _ in range(rounds):
        roll = rng.randrange(4)
        if roll == 0:
            phi = Not(Not(phi))
        elif roll == 1:
            phi = And(phi, TRUE)
        elif roll == 2:
            phi = Or(phi, FALSE)
        else:
            phi = And(phi, Or(phi, phi))
    return phi


# ---------------------------------------------------------------------------
# Seeded micro-agents for the temporal-reduction tests.

_MICRO_VOCAB = ("p", "q")


def _random_prop(rng: random.Random) -> Formula:
    return random_formula(rng, _MICRO_VOCAB, 2)


def _random_condition(rng: random.Random) -> Formula:
    leaves = [Bel(Atom("p")), Bel(Atom("q")), Goal(Atom("p")),
              Goal(Atom("q")), Bel(And(Atom("p"), Atom("q"))),
              Goal(Or(Atom("p"), Atom("q"))), TRUE]
    a = rng.choice(leaves)
    if rng.random() < 0.4:
        a = Not(a)
    if rng.random() < 0.5:
        b = rng.choice(leaves)
        if rng.random() < 0.4:
            b = Not(b)
        return rng.choice((And, Or))(a, b)
    return a


def _random_capability(rng: random.Random, tag: int) -> CapabilitySpec:
    clauses = []
    for _ in range(rng.randrange(1, 3)):
        guard = _random_prop(rng) if rng.random() < 0.6 else TRUE
        adds = tuple(Atom(a) for a in rng.sample(_MICRO_VOCAB,
                                                 rng.randrange(0, 3)))
        dels = tuple(Atom(a) for a in rng.sample(_MICRO_VOCAB,
                                                 rng.randrange(0, 3)))
        clauses.append(EffectClause(guard, adds, dels))
    return CapabilitySpec(f"cap{tag}", tuple(clauses))


def micro_agent(seed: int) -> Optional[Agent]:
    """A small random agent over atoms p, q; None when the draw is not a
    legal agent (inconsistent or already-believed initial goals)."""
    rng = random.Random(seed)
    beliefs = frozenset(Atom(a) for a in _MICRO_VOCAB if rng.random() < 0.4)
    goal_pool = [Atom("p"), Atom("q"), And(Atom("p"), Atom("q")),
                 Or(Atom("p"), Atom("q")), Not(Atom("p"))]
    goals = frozenset(g for g in rng.sample(goal_pool, rng.randrange(0, 3)))
    capabilities = [_random_capability(rng, i) for i in range(2)]
    program = []
    for _ in range(rng.randrange(1, 4)):
        roll = rng.random()
        if roll < 0.6:
            action = rng.choice(capabilities)
        elif roll < 0.8:
            action = GoalAction("adopt", rng.choice(goal_pool))
        else:
            action = GoalAction("drop", rng.choice(goal_pool))
        program.append(ConditionalAction(_random_condition(rng), action))
    try:
        from goalkit.mental_state import MentalState
        initial = MentalState(beliefs, goals)
    except Exception:
        return None
    return Agent(_MICRO_VOCAB, (), tuple(capabilities), tuple(program),
                 initial, ())


def with_actions(agent: Agent, *actions: ConditionalAction) -> Agent:
    """``agent`` with ``actions`` appended to its program."""
    return Agent(agent.vocab, agent.books, agent.capabilities,
                 agent.program + actions, agent.initial_state,
                 agent.properties)


def oracle_triple(case, atoms: tuple[str, ...]) -> HoareTriple:
    """A triple of the benchmark's ``oracle`` catalogue, built as
    ``bench/run.py``'s op builds it: a fresh statement on every call."""
    kind, arg = case.statement
    phi = parse_formula(arg, atoms)
    builders = {"insert": insert, "remove": remove}
    statement = (builders[kind](phi) if kind in builders
                 else GoalAction(kind, phi))
    return HoareTriple(parse_msformula(case.pre, atoms), statement,
                       parse_msformula(case.post, atoms))


# ---------------------------------------------------------------------------
# The fairness rules that ``executor.fair_picks`` and
# ``executor.max_omission_streak`` replaced, and the streak loop that the
# ``random`` schedule replaced, kept as their reference.

def window_fair(picks: Sequence[int], n: int) -> bool:
    """Every ``n`` consecutive picks cover all ``n`` actions; fewer than
    ``n`` picks always pass."""
    if len(picks) < n:
        return True
    for start in range(len(picks) - n + 1):
        if set(picks[start:start + n]) != set(range(n)):
            return False
    return True


def reference_omission_streak(picks: Iterable[int], n_actions: int) -> int:
    """The longest run of consecutive picks omitting some single action,
    with one streak counter per action updated at every pick."""
    streaks = [0] * n_actions
    worst = 0
    for pick in picks:
        for i in range(n_actions):
            streaks[i] = 0 if i == pick else streaks[i] + 1
        worst = max(worst, max(streaks))
    return worst


def reference_forcing(n: int, rng: random.Random) -> Iterator[int]:
    """The ``random`` schedule with one omission-streak counter per action,
    all updated at every pick, and an argmax over them."""
    opening = rng.sample(range(n), n)
    streaks = [0] * n
    for k in count():
        if k < n:
            choice = opening[k]
        else:
            worst = max(range(n), key=streaks.__getitem__)
            choice = worst if streaks[worst] >= n else rng.randrange(n)
        for i in range(n):
            streaks[i] = 0 if i == choice else streaks[i] + 1
        yield choice


# ---------------------------------------------------------------------------
# The valuation-by-valuation evaluator that ``prop_logic.truth_table`` and
# the entailment memos are checked against.

def valuations(vocab: Sequence[str]) -> Iterator[frozenset[str]]:
    """All valuations of ``vocab``, as sets of true atoms, in index order."""
    voc = tuple(vocab)
    for i in range(1 << len(voc)):
        yield frozenset(a for k, a in enumerate(voc) if (i >> k) & 1)


def satisfies(valuation: frozenset[str], phi: Formula) -> bool:
    match phi:
        case Atom(name):
            return name in valuation
        case Const(value):
            return value
        case Not(operand):
            return not satisfies(valuation, operand)
        case And(a, b):
            return satisfies(valuation, a) and satisfies(valuation, b)
        case Or(a, b):
            return satisfies(valuation, a) or satisfies(valuation, b)
        case Imp(a, b):
            return (not satisfies(valuation, a)) or satisfies(valuation, b)
        case Iff(a, b):
            return satisfies(valuation, a) == satisfies(valuation, b)
    raise FormulaError(f"not a propositional formula: {phi!r}")


# ---------------------------------------------------------------------------
# The character-by-character lexer that ``prop_logic.lex`` replaced, kept as
# the reference its compiled pattern and ``token_start`` are checked against.

_PUNCT = ("<->", "->", "(", ")", "{", "}", ";", ",", "!", "&", "|")


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) of each token of ``text``, the last one
    ``("eof", "", len(text))``; raises FormulaError as lex does."""
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(("punct", punct, i))
                i += len(punct)
                break
        else:
            raise FormulaError(f"unexpected character {c!r} at position {i}")
    tokens.append(("eof", "", n))
    return tokens


# ---------------------------------------------------------------------------
# The parsers that ``prop_logic.parse_tokens`` replaced: a token stream read
# by method calls, a precedence parser with a leaf hook for B(...), G(...)
# and enabled(...), the post-parse walks for bare atoms and atom names, and
# the agent-file reader over the stream.  They read ``reference_tokenize``'s
# tokens and are kept as the reference the one-pass parser is checked
# against: the same input must give the same node or the same message.


class RefToken:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def ref_tokens(text: str) -> list[RefToken]:
    return [RefToken(*t) for t in reference_tokenize(text)]


_REF_PREC = {Iff: 1, Imp: 2, Or: 3, And: 4, Not: 5}


class RefStream:
    def __init__(self, tokens: list[RefToken], pos: int = 0):
        self.tokens = tokens
        self.pos = pos

    def peek(self) -> RefToken:
        return self.tokens[self.pos]

    def next(self) -> RefToken:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> RefToken:
        tok = self.next()
        if tok.text != text:
            raise FormulaError(
                f"expected {text!r} at position {tok.pos}, found {tok.text or 'end of input'!r}")
        return tok


# Connectives by token; precedences are _REF_PREC's, and -> and <->
# associate to the right.
_CONNECTIVES = {"!": Not, "&": And, "|": Or, "->": Imp, "<->": Iff}


def _ref_checked(phi: Formula) -> Formula:
    if phi.depth > MAX_DEPTH:
        raise FormulaError(f"formula nested more than {MAX_DEPTH} levels deep")
    return phi


def ref_parse_prop(stream: RefStream, leaf_hook=None) -> Formula:
    """Parse a formula from ``stream`` by operator precedence.

    ``!`` binds tightest, then ``&``, ``|``, ``->`` and ``<->``.  The parse
    keeps explicit operand and operator stacks, so deep input costs no
    Python stack, and it rejects any node nested more than
    :data:`MAX_DEPTH` levels deep.  ``leaf_hook`` may claim a name token
    and parse a special leaf from the stream (mental-state formulas use it
    for ``B(...)``, ``G(...)`` and ``enabled(...)``).
    """
    operands: list[Formula] = []
    operators: list[str] = []       # "(" or a key of _CONNECTIVES
    open_groups = 0

    def reduce() -> None:
        cls = _CONNECTIVES[operators.pop()]
        if cls is Not:
            node = Not(operands.pop())
        else:
            right = operands.pop()
            node = cls(operands.pop(), right)
        operands.append(_ref_checked(node))

    while True:
        while stream.peek().text in ("!", "("):
            tok = stream.next()
            operators.append(tok.text)
            open_groups += tok.text == "("
        operands.append(_ref_checked(_ref_parse_leaf(stream, leaf_hook)))
        tok = stream.peek()
        while tok.text == ")" and open_groups:
            while operators[-1] != "(":
                reduce()
            operators.pop()
            open_groups -= 1
            stream.next()
            tok = stream.peek()
        cls = _CONNECTIVES.get(tok.text)
        if cls is None or cls is Not:
            break
        prec = _REF_PREC[cls]
        while operators and operators[-1] != "(":
            top = _REF_PREC[_CONNECTIVES[operators[-1]]]
            if top < prec or (top == prec and cls in (Imp, Iff)):
                break
            reduce()
        operators.append(stream.next().text)
    while operators:
        if operators[-1] == "(":
            stream.expect(")")  # raises: the group is unclosed
        reduce()
    return operands[0]


def _ref_parse_leaf(stream: RefStream, leaf_hook) -> Formula:
    tok = stream.peek()
    if tok.kind == "name":
        if leaf_hook is not None:
            special = leaf_hook(stream)
            if special is not None:
                return special
        stream.next()
        if tok.text == "true":
            return TRUE
        if tok.text == "false":
            return FALSE
        return Atom(tok.text)
    raise FormulaError(f"expected a formula at position {tok.pos}, found {tok.text!r}")




def ref_parse_formula(text: str, vocab: Optional[Iterable[str]] = None) -> Formula:
    """Parse ``text`` as a propositional formula.

    When ``vocab`` is given, atoms outside it are rejected.
    """
    stream = RefStream(ref_tokens(text))
    phi = ref_parse_prop(stream)
    tail = stream.peek()
    if tail.kind != "eof":
        raise FormulaError(f"unexpected {tail.text!r} at position {tail.pos}")
    if vocab is not None:
        unknown = atoms_of(phi) - set(vocab)
        if unknown:
            raise FormulaError(f"unknown atoms: {', '.join(sorted(unknown))}")
    return phi


def ref_parse_msf_stream(stream: RefStream,
                     resolve: Callable[[str], CapabilitySpec]) -> Formula:
    """Parse a mental-state formula from ``stream``.

    ``resolve`` binds the name of each ``enabled(name)`` leaf to its
    capability, and raises for a name it does not accept.
    """

    def leaf_hook(stream: RefStream) -> Optional[Formula]:
        tok = stream.peek()
        nxt = (stream.tokens[stream.pos + 1]
               if stream.pos + 1 < len(stream.tokens) else None)
        if nxt is None or nxt.text != "(":
            return None
        if tok.text in ("B", "G"):
            stream.next()
            stream.expect("(")
            inner = ref_parse_prop(stream)
            stream.expect(")")
            return Bel(inner) if tok.text == "B" else Goal(inner)
        if tok.text == "enabled":
            stream.next()
            stream.expect("(")
            name = stream.next()
            if name.kind != "name":
                raise FormulaError(
                    f"expected a capability name at position {name.pos}")
            stream.expect(")")
            return Enabled(resolve(name.text))
        return None

    return ref_parse_prop(stream, leaf_hook)


def ref_parse_msformula(text: str, vocab: Optional[Iterable[str]] = None,
                    capabilities: Optional[Mapping[str, CapabilitySpec]] = None
                    ) -> Formula:
    """Parse a mental-state formula (B/G/enabled leaves plus connectives).

    With ``vocab``, atoms outside it are rejected.  Each ``enabled(name)``
    leaf is bound to ``capabilities[name]``; a name outside
    ``capabilities``, or any name when it is not given, is rejected.
    """

    def resolve(name: str) -> CapabilitySpec:
        if capabilities is None or name not in capabilities:
            raise FormulaError(f"unknown capability {name!r}")
        return capabilities[name]

    stream = RefStream(ref_tokens(text))
    phi = ref_parse_msf_stream(stream, resolve)
    tail = stream.peek()
    if tail.kind != "eof":
        raise FormulaError(f"unexpected {tail.text!r} at position {tail.pos}")
    bare = next((leaf for leaf in leaves(phi) if isinstance(leaf, Atom)), None)
    if bare is not None:
        raise FormulaError(
            f"bare atom {bare.name!r}; atoms must appear inside B(...) or G(...)")
    if vocab is not None:
        unknown = msf_atoms(phi) - set(vocab)
        if unknown:
            raise FormulaError(f"unknown atoms: {', '.join(sorted(unknown))}")
    return phi




def _span_has_schema(tokens: list[RefToken]) -> bool:
    return any(t.kind == "name" and _is_schema(t.text) for t in tokens)


def _bind(tokens: list[RefToken], book: str) -> list[RefToken]:
    return [RefToken(t.kind, _expand_name(t.text, book), t.pos)
            if t.kind == "name" else t for t in tokens]


def _stream(tokens: list[RefToken]) -> RefStream:
    end = tokens[-1].pos if tokens else 0
    return RefStream(tokens + [RefToken("eof", "", end)])


# ---------------------------------------------------------------------------


class _FileReader:
    """Splits the token stream into section spans and parses them."""

    def __init__(self, text: str):
        self.stream = RefStream(ref_tokens(text))

    def take_block(self) -> list[RefToken]:
        """Consume a brace-balanced ``{ ... }`` block; return inner tokens."""
        self.stream.expect("{")
        depth = 1
        inner: list[RefToken] = []
        while True:
            tok = self.stream.next()
            if tok.kind == "eof":
                raise AgentParseError("unexpected end of file inside a block")
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
                if depth == 0:
                    return inner
            inner.append(tok)

    @staticmethod
    def split(tokens: list[RefToken], sep: str) -> list[list[RefToken]]:
        """Split ``tokens`` on ``sep`` at brace depth zero; drops empty runs."""
        parts: list[list[RefToken]] = []
        current: list[RefToken] = []
        depth = 0
        for tok in tokens:
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
            if tok.text == sep and depth == 0:
                if current:
                    parts.append(current)
                current = []
            else:
                current.append(tok)
        if current:
            parts.append(current)
        return parts


def _parse_formula_span(
        tokens: list[RefToken],
        resolve: Optional[Callable[[str], CapabilitySpec]] = None) -> Formula:
    """A propositional formula, or with ``resolve`` a mental-state formula
    whose ``enabled(name)`` leaves ``resolve`` binds."""
    stream = _stream(tokens)
    msf = resolve is not None
    phi = ref_parse_msf_stream(stream, resolve) if msf else ref_parse_prop(stream)
    tail = stream.peek()
    if tail.kind != "eof":
        raise AgentParseError(f"unexpected {tail.text!r} at position {tail.pos}")
    if msf:
        bare = next((leaf for leaf in leaves(phi) if isinstance(leaf, Atom)),
                    None)
        if bare is not None:
            raise AgentParseError(
                f"bare atom {bare.name!r}; wrap atoms in B(...) or G(...)")
    return phi


def ref_parse_agent(text: str) -> Agent:
    """Parse and validate an agent file."""
    reader = _FileReader(text)
    stream = reader.stream

    # vocab
    stream.expect("vocab")
    vocab_tokens = reader.take_block()
    books: list[str] = []
    atom_entries: list[list[RefToken]] = []
    for entry in reader.split(vocab_tokens, ";"):
        if entry[0].text == "book":
            if len(entry) != 2 or entry[1].kind != "name":
                raise AgentParseError("book declarations have the form 'book NAME;'")
            books.append(entry[1].text)
        else:
            atom_entries.append(entry)
    vocab: list[str] = []
    for entry in atom_entries:
        if len(entry) != 1 or entry[0].kind != "name":
            raise AgentParseError(
                f"bad vocab entry near position {entry[0].pos}")
        name = entry[0].text
        if _is_schema(name) and not books:
            raise AgentParseError(
                f"atom {name!r} uses the 'book' placeholder but no books are declared")
        targets = ([_expand_name(name, b) for b in books]
                   if _is_schema(name) else [name])
        for target in targets:
            if target in vocab:
                raise AgentParseError(f"duplicate atom {target!r}")
            vocab.append(target)
    vocab_set = set(vocab)
    caps_by_name: dict[str, CapabilitySpec] = {}

    def check_names(phi: Formula, where: str) -> None:
        """Atoms must be in the vocab."""
        unknown = msf_atoms(phi) - vocab_set
        if unknown:
            raise AgentParseError(
                f"{where}: undeclared atoms {', '.join(sorted(unknown))}")

    def capability(name: str) -> CapabilitySpec:
        """The capability an ``enabled(name)`` leaf of a property names
        (capabilities precede the properties)."""
        if name not in caps_by_name:
            raise AgentParseError(f"property: unknown capability {name!r}")
        return caps_by_name[name]

    def expansions(span: list[RefToken]) -> list[list[RefToken]]:
        if _span_has_schema(span):
            if not books:
                raise AgentParseError(
                    "schema uses the 'book' placeholder but no books are declared")
            return [_bind(span, b) for b in books]
        return [span]

    # beliefs
    stream.expect("beliefs")
    beliefs: list[Formula] = []
    for span in reader.split(reader.take_block(), ";"):
        for bound in expansions(span):
            phi = _parse_formula_span(bound)
            check_names(phi, "beliefs")
            beliefs.append(phi)

    # goals
    stream.expect("goals")
    goals: list[Formula] = []
    for span in reader.split(reader.take_block(), ";"):
        for bound in expansions(span):
            phi = _parse_formula_span(bound)
            check_names(phi, "goals")
            goals.append(phi)

    # capabilities
    while stream.peek().text == "capability":
        stream.next()
        name_tok = stream.next()
        if name_tok.kind != "name":
            raise AgentParseError("capability name expected")
        body = reader.take_block()
        spans = reader.split(body, ";")
        bindings = ([None] if not (_is_schema(name_tok.text) or _span_has_schema(body))
                    else list(books))
        if bindings == [] :
            raise AgentParseError("schema capability needs declared books")
        for book in bindings:
            cap_name = (name_tok.text if book is None
                        else _expand_name(name_tok.text, book))
            if cap_name in caps_by_name:
                raise AgentParseError(f"duplicate capability {cap_name!r}")
            clauses = []
            for span in spans:
                bound = span if book is None else _bind(span, book)
                clauses.append(_parse_clause(bound, reader, check_names))
            caps_by_name[cap_name] = CapabilitySpec(cap_name, tuple(clauses))

    # program
    stream.expect("program")
    program: list[ConditionalAction] = []
    for span in reader.split(reader.take_block(), ";"):
        for bound in expansions(span):
            program.append(_parse_rule(bound, reader, caps_by_name, check_names))
    if not program:
        raise AgentParseError("the program section must declare at least one action")

    # properties (optional)
    properties: list[PropertyDecl] = []
    if stream.peek().text == "properties":
        stream.next()
        for span in reader.split(reader.take_block(), ";"):
            for bound in expansions(span):
                properties.append(
                    _parse_property(bound, reader, check_names, capability))

    tail = stream.peek()
    if tail.kind != "eof":
        raise AgentParseError(f"unexpected {tail.text!r} at position {tail.pos}")

    if not consistent(beliefs):
        raise AgentParseError("initial beliefs are inconsistent")
    for g in goals:
        if not consistent((g,)):
            raise AgentParseError(
                f"initial goal {render(g)} is inconsistent (clause (ii))")
        if entails(beliefs, g):
            raise AgentParseError(
                f"initial goal {render(g)} is already entailed by the "
                f"initial beliefs (clause (i))")
    try:
        initial = MentalState(frozenset(beliefs), frozenset(goals))
    except MentalStateError as exc:  # pragma: no cover - guarded above
        raise AgentParseError(str(exc)) from exc

    return Agent(tuple(vocab), tuple(books), tuple(caps_by_name.values()),
                 tuple(program), initial, tuple(properties))


def _parse_clause(tokens: list[RefToken], reader: _FileReader,
                  check_names) -> EffectClause:
    stream = _stream(tokens)
    stream.expect("when")
    guard = ref_parse_prop(stream)
    check_names(guard, "capability guard")
    add: list[Formula] = []
    delete: list[Formula] = []
    while stream.peek().kind != "eof":
        word = stream.next()
        if word.text not in ("add", "del"):
            raise AgentParseError(
                f"expected 'add' or 'del' at position {word.pos}")
        stream.expect("{")
        inner: list[RefToken] = []
        while stream.peek().text != "}":
            tok = stream.next()
            if tok.kind == "eof":
                raise AgentParseError("unterminated add/del list")
            inner.append(tok)
        stream.expect("}")
        formulas = []
        for span in reader.split(inner, ","):
            phi = _parse_formula_span(span)
            check_names(phi, f"capability {word.text} list")
            formulas.append(phi)
        (add if word.text == "add" else delete).extend(formulas)
    return EffectClause(guard, tuple(add), tuple(delete))


def _parse_rule(tokens: list[RefToken], reader: _FileReader,
                caps_by_name: dict[str, CapabilitySpec],
                check_names) -> ConditionalAction:
    # The rule shape is "<msformula> -> do(<action>)"; the "->" before
    # "do(" is the separator (the condition itself may contain "->").
    split_at = None
    for i in range(len(tokens) - 2):
        if (tokens[i].text == "->" and tokens[i + 1].text == "do"
                and tokens[i + 2].text == "("):
            split_at = i
    if split_at is None:
        raise AgentParseError("program rules have the form '<condition> -> do(<action>)'")
    condition = _parse_formula_span(tokens[:split_at], _no_enabled)
    check_names(condition, "program condition")
    action_tokens = tokens[split_at + 1:]
    stream = _stream(action_tokens)
    stream.expect("do")
    stream.expect("(")
    head = stream.next()
    if head.text in ("adopt", "drop"):
        stream.expect("(")
        arg_tokens: list[RefToken] = []
        depth = 1
        while depth:
            tok = stream.next()
            if tok.kind == "eof":
                raise AgentParseError("unterminated adopt/drop argument")
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1
                if depth == 0:
                    break
            arg_tokens.append(tok)
        arg = _parse_formula_span(arg_tokens)
        check_names(arg, f"{head.text} argument")
        action = GoalAction(head.text, arg)
    elif head.kind == "name":
        if head.text not in caps_by_name:
            raise AgentParseError(f"undeclared capability {head.text!r}")
        action = caps_by_name[head.text]
    else:
        raise AgentParseError(f"bad action at position {head.pos}")
    stream.expect(")")
    if stream.peek().kind != "eof":
        raise AgentParseError("trailing tokens after program rule")
    return ConditionalAction(condition, action)


def _no_enabled(name: str) -> CapabilitySpec:
    raise AgentParseError(
        "program conditions range over B and G only (no enabled(...))")


def _parse_property(tokens: list[RefToken], reader: _FileReader, check_names,
                    capability: Callable[[str], CapabilitySpec]) -> PropertyDecl:
    head = tokens[0]
    if head.text not in ("unless", "ensures", "leadsto", "invariant"):
        raise AgentParseError(f"unknown property kind {head.text!r}")
    rest = tokens[1:]
    if head.text == "invariant":
        left = _parse_formula_span(rest, capability)
        check_names(left, "property")
        return PropertyDecl("invariant", left)
    parts = reader.split(rest, ",")
    if len(parts) != 2:
        raise AgentParseError(f"{head.text} takes two formulas separated by ','")
    left = _parse_formula_span(parts[0], capability)
    right = _parse_formula_span(parts[1], capability)
    check_names(left, "property")
    check_names(right, "property")
    return PropertyDecl(head.text, left, right)


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
# Pretty printing (canonical, already-expanded form).


def pretty_print(agent: Agent) -> str:
    lines: list[str] = ["vocab {"]
    for book in agent.books:
        lines.append(f"  book {book};")
    for atom in agent.vocab:
        lines.append(f"  {atom};")
    lines.append("}")
    lines.append("beliefs {")
    for phi in sorted(agent.initial_state.beliefs, key=render):
        lines.append(f"  {render(phi)};")
    lines.append("}")
    lines.append("goals {")
    for phi in sorted(agent.initial_state.goals, key=render):
        lines.append(f"  {render(phi)};")
    lines.append("}")
    for cap in agent.capabilities:
        lines.append(f"capability {cap.name} {{")
        for clause in cap.clauses:
            add = ", ".join(render(f) for f in clause.add)
            delete = ", ".join(render(f) for f in clause.delete)
            lines.append(f"  when {render(clause.guard)} "
                         f"add {{ {add} }} del {{ {delete} }};")
        lines.append("}")
    lines.append("program {")
    for rule in agent.program:
        lines.append(f"  {rule};")
    lines.append("}")
    if agent.properties:
        lines.append("properties {")
        for prop in agent.properties:
            lines.append(f"  {prop};")
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The shipped fixture as an agent, and the equivalence of two formulas.


def ground_shopping_fixture() -> Agent:
    """The propositionalized book-buying agent (8 conditional actions)."""
    return parse_agent(SHOPPING_SOURCE)


def equivalent(phi: Formula, psi: Formula) -> bool:
    return tautology(Iff(phi, psi))


# ---------------------------------------------------------------------------
# The leads-to search and proof check as first written: one Python frame
# per question and per proof node, and every order of the applicable
# steps searched afresh.  The verifier's own keep an explicit stack and
# answer each question once, and must give the same proofs and verdicts.


def reference_check_leadsto(proof: LeadsToProof, agent: Agent,
                            graph: Optional[StateGraph] = None) -> Verdict:
    """``check_leadsto`` by recursion over the proof tree.  ``Trans`` and
    ``Disj`` refuse a malformed node when it is built, so only the leaves
    are checked here."""
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
        children, rule = (proof.first, proof.second), "transitivity"
    elif isinstance(proof, Disj):
        children, rule = proof.children, "disjunction"
    else:
        raise MalformedProof(f"not a proof node: {proof!r}")
    for child in children:
        verdict = reference_check_leadsto(child, agent, graph)
        if not verdict.holds:
            return verdict
    return Verdict(True, scope=rule)


def reference_prove_leadsto(
        alpha: Formula, omega: Formula, agent: Agent,
        steps: Sequence[tuple[Formula, Formula]],
        graph: Optional[StateGraph] = None) -> Optional[LeadsToProof]:
    """``prove_leadsto`` by recursion, with no memo."""
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
