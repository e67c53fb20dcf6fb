"""Agent programs: the on-disk format, validation, and the shopping fixture.

An agent file has the sections ``vocab``, ``beliefs``, ``goals``, one or
more ``capability`` blocks, ``program``, and an optional ``properties``
block, in that order.  Identifiers may use the placeholder segment ``book``
(as in ``bought_book``); such schemata are expanded over the book universe
declared in the vocab section (``book T;``) when the file is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .prop_logic import (
    Atom, Formula, Token, TokenStream, consistent, entails, leaves,
    parse_prop, render, tokenize,
)
from .mental_state import (
    MentalState, MentalStateError, msf_atoms, parse_msf_stream,
)
from .capabilities import (
    CapabilitySpec, ConditionalAction, EffectClause, GoalAction,
)


class AgentParseError(Exception):
    """Raised for malformed agent files and initial-state violations."""


@dataclass(frozen=True, slots=True)
class PropertyDecl:
    kind: str  # "unless" | "ensures" | "leadsto" | "invariant"
    left: Formula
    right: Optional[Formula] = None

    def __str__(self) -> str:
        if self.right is None:
            return f"{self.kind} {render(self.left)}"
        return f"{self.kind} {render(self.left)}, {render(self.right)}"


@dataclass(frozen=True)
class Agent:
    vocab: tuple[str, ...]
    books: tuple[str, ...]
    capabilities: tuple[CapabilitySpec, ...]
    program: tuple[ConditionalAction, ...]
    initial_state: MentalState
    properties: tuple[PropertyDecl, ...] = ()
    table: dict[str, CapabilitySpec] = field(init=False, compare=False,
                                             repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "table",
                           {c.name: c for c in self.capabilities})

    def action_label(self, index: int) -> str:
        return f"b{index}:{self.program[index].action}"


# ---------------------------------------------------------------------------
# Schema expansion helpers.

_PLACEHOLDER = "book"


def _is_schema(name: str) -> bool:
    return _PLACEHOLDER in name.split("_")


def _expand_name(name: str, book: str) -> str:
    return "_".join(book if p == _PLACEHOLDER else p for p in name.split("_"))


def _span_has_schema(tokens: list[Token]) -> bool:
    return any(t.kind == "name" and _is_schema(t.text) for t in tokens)


def _bind(tokens: list[Token], book: str) -> list[Token]:
    return [Token(t.kind, _expand_name(t.text, book), t.pos)
            if t.kind == "name" else t for t in tokens]


def _stream(tokens: list[Token]) -> TokenStream:
    end = tokens[-1].pos if tokens else 0
    return TokenStream(tokens + [Token("eof", "", end)])


# ---------------------------------------------------------------------------


class _FileReader:
    """Splits the token stream into section spans and parses them."""

    def __init__(self, text: str):
        self.stream = TokenStream(tokenize(text))

    def take_block(self) -> list[Token]:
        """Consume a brace-balanced ``{ ... }`` block; return inner tokens."""
        self.stream.expect("{")
        depth = 1
        inner: list[Token] = []
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
    def split(tokens: list[Token], sep: str) -> list[list[Token]]:
        """Split ``tokens`` on ``sep`` at brace depth zero; drops empty runs."""
        parts: list[list[Token]] = []
        current: list[Token] = []
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
        tokens: list[Token],
        resolve: Optional[Callable[[str], CapabilitySpec]] = None) -> Formula:
    """A propositional formula, or with ``resolve`` a mental-state formula
    whose ``enabled(name)`` leaves ``resolve`` binds."""
    stream = _stream(tokens)
    msf = resolve is not None
    phi = parse_msf_stream(stream, resolve) if msf else parse_prop(stream)
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


def parse_agent(text: str) -> Agent:
    """Parse and validate an agent file."""
    reader = _FileReader(text)
    stream = reader.stream

    # vocab
    stream.expect("vocab")
    vocab_tokens = reader.take_block()
    books: list[str] = []
    atom_entries: list[list[Token]] = []
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

    def expansions(span: list[Token]) -> list[list[Token]]:
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


def _parse_clause(tokens: list[Token], reader: _FileReader,
                  check_names) -> EffectClause:
    stream = _stream(tokens)
    stream.expect("when")
    guard = parse_prop(stream)
    check_names(guard, "capability guard")
    add: list[Formula] = []
    delete: list[Formula] = []
    while stream.peek().kind != "eof":
        word = stream.next()
        if word.text not in ("add", "del"):
            raise AgentParseError(
                f"expected 'add' or 'del' at position {word.pos}")
        stream.expect("{")
        inner: list[Token] = []
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


def _parse_rule(tokens: list[Token], reader: _FileReader,
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
        arg_tokens: list[Token] = []
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


def _parse_property(tokens: list[Token], reader: _FileReader, check_names,
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
# The shopping fixture.
#
# Sites are mutually exclusive page atoms: every page-changing clause
# deletes the other page atoms, so "exactly one page" is maintained by
# construction and is provable as an invariant.

_PAGES = "hpage_user, Am_com, page_T, page_I, ContentCart"


def _pages_except(keep: str) -> str:
    return ", ".join(p.strip() for p in _PAGES.split(",") if p.strip() != keep)


_INV = ("(B(hpage_user) | B(Am_com) | B(page_T) | B(page_I) | B(ContentCart))"
        + "".join(
            f" & !(B({a}) & B({b}))"
            for i, a in enumerate(p.strip() for p in _PAGES.split(","))
            for b in [q.strip() for q in _PAGES.split(",")][i + 1:]))

_STATUS_T = "((B(in_cart_T) & G(bought_T)) | B(bought_T))"
_STATUS_I = "((B(in_cart_I) & G(bought_I)) | B(bought_I))"

SHOPPING_SOURCE = f"""
# A book-buying agent: visit the store, search each wanted book, put it in
# the cart, and pay.  Pages are mutually exclusive atoms.

vocab {{
  book T; book I;
  hpage_user; Am_com; ContentCart;
  page_book; in_cart_book; bought_book;
}}

beliefs {{ hpage_user; }}

goals {{ bought_T & bought_I; }}

capability goto_Am_com {{
  when true add {{ Am_com }} del {{ {_pages_except("Am_com")} }};
}}

capability search_book {{
  when Am_com add {{ page_book }} del {{ {_pages_except("")} }};
}}

capability put_in_cart_book {{
  when page_book add {{ in_cart_book, ContentCart }} del {{ {_pages_except("ContentCart")} }};
}}

capability pay_cart {{
  when in_cart_T & in_cart_I & ContentCart
    add {{ bought_T, bought_I, Am_com }}
    del {{ in_cart_T, in_cart_I, {_pages_except("Am_com")} }};
  when in_cart_T & ContentCart
    add {{ bought_T, Am_com }}
    del {{ in_cart_T, {_pages_except("Am_com")} }};
  when in_cart_I & ContentCart
    add {{ bought_I, Am_com }}
    del {{ in_cart_I, {_pages_except("Am_com")} }};
}}

program {{
  B(hpage_user) & G(bought_book) -> do(goto_Am_com);
  B(Am_com) & !B(in_cart_book) & G(bought_book) -> do(search_book);
  B(page_book) & G(bought_book) -> do(put_in_cart_book);
  B(in_cart_book) & G(bought_book) -> do(pay_cart);
}}

properties {{
  invariant {_INV};
  unless {_STATUS_T}, false;
  unless {_STATUS_I}, false;

  ensures B(hpage_user) & !B(in_cart_T) & G(bought_T) & !B(in_cart_I) & G(bought_I),
          B(Am_com) & !B(in_cart_T) & G(bought_T) & !B(in_cart_I) & G(bought_I);
  ensures B(Am_com) & !B(in_cart_T) & G(bought_T) & !B(in_cart_I) & G(bought_I),
          (B(page_T) & G(bought_T) & !B(in_cart_I) & G(bought_I))
          | (B(page_I) & G(bought_I) & !B(in_cart_T) & G(bought_T));

  ensures B(page_T) & G(bought_T) & !B(in_cart_I) & G(bought_I),
          B(in_cart_T) & G(bought_T) & !B(in_cart_I) & G(bought_I) & B(ContentCart);
  ensures B(in_cart_T) & G(bought_T) & !B(in_cart_I) & G(bought_I),
          B(Am_com) & !B(in_cart_I) & G(bought_I) & {_STATUS_T};
  ensures B(Am_com) & !B(in_cart_I) & G(bought_I) & {_STATUS_T},
          B(page_I) & G(bought_I) & {_STATUS_T};
  ensures B(page_I) & G(bought_I) & {_STATUS_T},
          B(in_cart_I) & G(bought_I) & B(ContentCart) & {_STATUS_T};
  ensures B(in_cart_I) & G(bought_I) & B(ContentCart) & {_STATUS_T},
          B(bought_T) & B(bought_I);

  ensures B(page_I) & G(bought_I) & !B(in_cart_T) & G(bought_T),
          B(in_cart_I) & G(bought_I) & !B(in_cart_T) & G(bought_T) & B(ContentCart);
  ensures B(in_cart_I) & G(bought_I) & !B(in_cart_T) & G(bought_T),
          B(Am_com) & !B(in_cart_T) & G(bought_T) & {_STATUS_I};
  ensures B(Am_com) & !B(in_cart_T) & G(bought_T) & {_STATUS_I},
          B(page_T) & G(bought_T) & {_STATUS_I};
  ensures B(page_T) & G(bought_T) & {_STATUS_I},
          B(in_cart_T) & G(bought_T) & B(ContentCart) & {_STATUS_I};
  ensures B(in_cart_T) & G(bought_T) & B(ContentCart) & {_STATUS_I},
          B(bought_T) & B(bought_I);

  leadsto B(hpage_user) & !B(in_cart_T) & !B(in_cart_I) & G(bought_T & bought_I),
          B(bought_T & bought_I);
}}
"""


def ground_shopping_fixture() -> Agent:
    """The propositionalized book-buying agent (8 conditional actions)."""
    return parse_agent(SHOPPING_SOURCE)
