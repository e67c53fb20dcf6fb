"""Agent programs: the on-disk format, validation, and the shopping fixture.

An agent file has the sections ``vocab``, ``beliefs``, ``goals``, one or
more ``capability`` blocks, ``program``, and an optional ``properties``
block, in that order.  Identifiers may use the placeholder segment ``book``
(as in ``bought_book``); such schemata are expanded over the book universe
declared in the vocab section (``book T;``) when the file is loaded.
"""

from __future__ import annotations

from typing import Callable, Optional

from .prop_logic import (
    PUNCT, Formula, Record, consistent, entails, expected, lex, parse_tokens,
    render, token_start,
)
from .mental_state import (
    CapabilitySpec, ConditionalAction, EffectClause, GoalAction, MentalState,
    MentalStateError, msf_syntax,
)


class AgentParseError(Exception):
    """Raised for malformed agent files and initial-state violations."""


class PropertyDecl(Record):
    # kind: unless | ensures | leadsto | invariant
    __slots__ = __match_args__ = ("kind", "left", "right")
    _defaults = {"right": None}

    def __str__(self) -> str:
        if self.right is None:
            return f"{self.kind} {render(self.left)}"
        return f"{self.kind} {render(self.left)}, {render(self.right)}"


class Agent(Record):
    """A parsed agent; ``table`` (capability name -> capability) is derived."""

    __match_args__ = ("vocab", "books", "capabilities", "program",
                      "initial_state", "properties")
    __slots__ = (*__match_args__, "table")
    _defaults = {"properties": ()}

    def __post_init__(self) -> None:
        object.__setattr__(self, "table",
                           {c.name: c for c in self.capabilities})

    def action_label(self, index: int) -> str:
        return f"b{index}:{self.program[index].action}"


# ---------------------------------------------------------------------------
# Reading.  The reader indexes the token texts that ``lex`` gives: a span is
# a ``range`` of token indices, and a token's position is found only for a
# diagnostic.  Names with the placeholder segment ``book`` are bound to a
# book when a span is read.

_PLACEHOLDER = "book"


def _is_schema(name: str) -> bool:
    return _PLACEHOLDER in name.split("_")


def _expand_name(name: str, book: str) -> str:
    return "_".join(book if p == _PLACEHOLDER else p for p in name.split("_"))


def _is_name(text: str) -> bool:
    return bool(text) and text not in PUNCT


class _Reader:
    """The token texts of an agent file, read span by span."""

    def __init__(self, text: str):
        self.text = text
        self.toks = lex(text)

    def pos(self, k: int) -> int:
        return token_start(self.text, k)

    def has_schema(self, span: range) -> bool:
        return any(_is_schema(self.toks[k]) for k in span)

    def read(self, span: range, book: Optional[str] = None
             ) -> tuple[list[str], Callable[[int], int]]:
        """The texts of ``span``, names bound to ``book``, ending in "", and
        the position of each; the end of a span is placed at its last token."""
        texts = self.toks[span.start:span.stop]
        if book is not None:
            texts = [_expand_name(t, book) for t in texts]
        texts.append("")
        last = len(span) - 1
        return texts, lambda k: self.pos(span[min(k, last)]) if span else 0

    def block(self, at: int,
              keyword: Optional[str] = None) -> tuple[range, int]:
        """The tokens inside the brace-balanced ``{ ... }`` block at ``at``,
        after ``keyword`` when it is given, and the index after the block."""
        toks = self.toks
        for want in (keyword, "{") if keyword else ("{",):
            if toks[at] != want:
                raise expected(want, toks[at], self.pos(at))
            at += 1
        start, depth = at, 1
        while True:
            tok = toks[at]
            if not tok:
                raise AgentParseError("unexpected end of file inside a block")
            at += 1
            if tok == "{":
                depth += 1
            elif tok == "}":
                depth -= 1
                if depth == 0:
                    return range(start, at - 1), at

    def split(self, span: range, sep: str) -> list[range]:
        """Split ``span`` on ``sep`` at brace depth zero; drops empty runs."""
        parts: list[range] = []
        start, depth = span.start, 0
        for k in span:
            tok = self.toks[k]
            depth += (tok == "{") - (tok == "}")
            if tok == sep and depth == 0:
                parts.append(range(start, k))
                start = k + 1
        parts.append(range(start, span.stop))
        return [part for part in parts if part]

    def formula(self, span: range, book: Optional[str] = None,
                special: Optional[dict[str, Callable]] = None
                ) -> tuple[Formula, set[str]]:
        """A propositional formula, or with ``special`` (:func:`msf_syntax`)
        a mental-state formula, and the names of its atoms."""
        texts, where = self.read(span, book)
        phi, end, bare, names = parse_tokens(texts, 0, where, special)
        if texts[end]:
            raise AgentParseError(
                f"unexpected {texts[end]!r} at position {where(end)}")
        if bare is not None:
            raise AgentParseError(
                f"bare atom {bare.name!r}; wrap atoms in B(...) or G(...)")
        return phi, names

    def clause(self, span: range, book: Optional[str],
               check_names) -> EffectClause:
        texts, where = self.read(span, book)
        if texts[0] != "when":
            raise expected("when", texts[0], where(0))
        guard, at, _, names = parse_tokens(texts, 1, where)
        check_names(names, "capability guard")
        add: list[Formula] = []
        delete: list[Formula] = []
        while texts[at]:
            word = texts[at]
            if word not in ("add", "del"):
                raise AgentParseError(
                    f"expected 'add' or 'del' at position {where(at)}")
            if texts[at + 1] != "{":
                raise expected("{", texts[at + 1], where(at + 1))
            # a clause is a depth-0 piece of a balanced block, so the "{"
            # has its "}" in it
            start = at + 2
            at = texts.index("}", start)
            listed = add if word == "add" else delete
            for part in self.split(span[start:at], ","):
                phi, names = self.formula(part, book)
                check_names(names, f"capability {word} list")
                listed.append(phi)
            at += 1
        return EffectClause(guard, tuple(add), tuple(delete))

    def rule(self, span: range, book: Optional[str],
             caps_by_name: dict[str, CapabilitySpec],
             check_names) -> ConditionalAction:
        # The rule shape is "<msformula> -> do(<action>)"; the last "->"
        # before "do(" is the separator (the condition may contain "->").
        toks = self.toks
        split_at = next((k for k in reversed(span[:-2]) if toks[k] == "->"
                         and toks[k + 1] == "do" and toks[k + 2] == "("), None)
        if split_at is None:
            raise AgentParseError("program rules have the form '<condition> -> do(<action>)'")
        condition, names = self.formula(range(span.start, split_at), book,
                                        msf_syntax(_no_enabled))
        check_names(names, "program condition")
        action_span = range(split_at + 1, span.stop)   # "do" "(" action ")"
        texts, where = self.read(action_span, book)
        head, at = texts[2], 3
        if head in ("adopt", "drop"):
            if texts[at] != "(":
                raise expected("(", texts[at], where(at))
            start = at = at + 1
            depth = 1
            while True:
                if not texts[at]:
                    raise AgentParseError("unterminated adopt/drop argument")
                depth += (texts[at] == "(") - (texts[at] == ")")
                if depth == 0:
                    break
                at += 1
            arg, names = self.formula(action_span[start:at], book)
            check_names(names, f"{head} argument")
            action = GoalAction(head, arg)
            at += 1
        elif _is_name(head):
            if head not in caps_by_name:
                raise AgentParseError(f"undeclared capability {head!r}")
            action = caps_by_name[head]
        else:
            raise AgentParseError(f"bad action at position {where(2)}")
        if texts[at] != ")":
            raise expected(")", texts[at], where(at))
        if texts[at + 1]:
            raise AgentParseError("trailing tokens after program rule")
        return ConditionalAction(condition, action)

    def property(self, span: range, book: Optional[str], check_names,
                 capability: Callable[[str], CapabilitySpec]) -> PropertyDecl:
        kind = self.toks[span[0]]
        if book is not None:
            kind = _expand_name(kind, book)
        if kind not in ("unless", "ensures", "leadsto", "invariant"):
            raise AgentParseError(f"unknown property kind {kind!r}")
        rest = span[1:]
        special = msf_syntax(capability)
        if kind == "invariant":
            left, names = self.formula(rest, book, special)
            check_names(names, "property")
            return PropertyDecl("invariant", left)
        parts = self.split(rest, ",")
        if len(parts) != 2:
            raise AgentParseError(f"{kind} takes two formulas separated by ','")
        left, left_names = self.formula(parts[0], book, special)
        right, right_names = self.formula(parts[1], book, special)
        check_names(left_names, "property")
        check_names(right_names, "property")
        return PropertyDecl(kind, left, right)


def _no_enabled(name: str) -> CapabilitySpec:
    raise AgentParseError(
        "program conditions range over B and G only (no enabled(...))")


def parse_agent(text: str) -> Agent:
    """Parse and validate an agent file."""
    src = _Reader(text)
    toks = src.toks

    # vocab
    vocab_span, at = src.block(0, "vocab")
    books: list[str] = []
    atom_entries: list[range] = []
    for entry in src.split(vocab_span, ";"):
        if toks[entry[0]] == "book":
            if len(entry) != 2 or not _is_name(toks[entry[1]]):
                raise AgentParseError("book declarations have the form 'book NAME;'")
            books.append(toks[entry[1]])
        else:
            atom_entries.append(entry)
    vocab: list[str] = []
    for entry in atom_entries:
        if len(entry) != 1 or not _is_name(toks[entry[0]]):
            raise AgentParseError(
                f"bad vocab entry near position {src.pos(entry[0])}")
        name = toks[entry[0]]
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

    def check_names(names: set[str], where: str) -> None:
        """Atoms must be in the vocab."""
        unknown = names - vocab_set
        if unknown:
            raise AgentParseError(
                f"{where}: undeclared atoms {', '.join(sorted(unknown))}")

    def capability(name: str) -> CapabilitySpec:
        """The capability an ``enabled(name)`` leaf of a property names
        (capabilities precede the properties)."""
        if name not in caps_by_name:
            raise AgentParseError(f"property: unknown capability {name!r}")
        return caps_by_name[name]

    def expansions(span: range) -> list[Optional[str]]:
        """The books ``span`` is bound to, ``[None]`` without schema names."""
        if not src.has_schema(span):
            return [None]
        if not books:
            raise AgentParseError(
                "schema uses the 'book' placeholder but no books are declared")
        return books

    def bases(section: str) -> list[Formula]:
        nonlocal at
        block, at = src.block(at, section)
        formulas = []
        for span in src.split(block, ";"):
            for book in expansions(span):
                phi, names = src.formula(span, book)
                check_names(names, section)
                formulas.append(phi)
        return formulas

    beliefs = bases("beliefs")
    goals = bases("goals")

    # capabilities
    while toks[at] == "capability":
        name = toks[at + 1]
        if not _is_name(name):
            raise AgentParseError("capability name expected")
        body, at = src.block(at + 2)
        spans = src.split(body, ";")
        bindings = ([None] if not (_is_schema(name) or src.has_schema(body))
                    else books)
        if not bindings:
            raise AgentParseError("schema capability needs declared books")
        for book in bindings:
            cap_name = name if book is None else _expand_name(name, book)
            if cap_name in caps_by_name:
                raise AgentParseError(f"duplicate capability {cap_name!r}")
            clauses = [src.clause(span, book, check_names) for span in spans]
            caps_by_name[cap_name] = CapabilitySpec(cap_name, tuple(clauses))

    # program
    block, at = src.block(at, "program")
    program = [src.rule(span, book, caps_by_name, check_names)
               for span in src.split(block, ";") for book in expansions(span)]
    if not program:
        raise AgentParseError("the program section must declare at least one action")

    # properties (optional)
    properties: list[PropertyDecl] = []
    if toks[at] == "properties":
        block, at = src.block(at, "properties")
        properties = [src.property(span, book, check_names, capability)
                      for span in src.split(block, ";")
                      for book in expansions(span)]

    if toks[at]:
        raise AgentParseError(
            f"unexpected {toks[at]!r} at position {src.pos(at)}")

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
