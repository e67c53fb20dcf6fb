"""Propositional formulas, their parser, and classical consequence.

Consequence is decided by model enumeration: vocabularies stay small
(a dozen atoms at most), so a formula's truth table fits comfortably in
a Python integer, with bit ``i`` giving the formula's value under the
``i``-th valuation of the vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence


class FormulaError(Exception):
    """Raised for malformed formula text or out-of-vocabulary atoms."""


# Formulas nested deeper than this are rejected by the parser.  The structural
# walkers (leaves, map_leaves) keep their own stacks, but the evaluators
# (truth_table, satisfies, render, eval_msf, StateSet.mask) recurse once per
# level, and the limit keeps them well inside Python's recursion limit.
MAX_DEPTH = 200

# The intern table: (class, *fields) -> the one node with that structure.
_nodes: dict[tuple, "Formula"] = {}


class _HashConsed(type):
    """Metaclass that hash-conses formula nodes.

    Constructing a node returns the one existing instance with the same
    class and fields, so structural equality is identity and the hash is the
    identity hash (Filliâtre & Conchon, "Type-safe modular hash-consing",
    2006).  Children are interned already, so a lookup key hashes in time
    proportional to the number of fields, not to the size of the tree.
    """

    def __call__(cls, *args, **kwargs):
        if kwargs:
            node = super().__call__(*args, **kwargs)
            key = (cls, *(getattr(node, name) for name in cls.__match_args__))
            return _nodes.setdefault(key, node)
        key = (cls, *args)
        node = _nodes.get(key)
        if node is None:
            # setdefault keeps a single instance even if two threads race here
            node = _nodes.setdefault(key, super().__call__(*args))
        return node


class Formula(metaclass=_HashConsed):
    """Base class of all formula AST nodes (propositional and modal).

    Nodes are hash-consed, so equality is identity.  Each node carries its
    nesting ``depth`` and its atom set (``None`` on a node that is not purely
    propositional), both computed once at construction.
    """

    __slots__ = ("_atoms", "depth")

    def _seal(self, atoms: Optional[frozenset[str]], depth: int) -> None:
        object.__setattr__(self, "_atoms", atoms)
        object.__setattr__(self, "depth", depth)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, so they intern too
        return type(self), tuple(getattr(self, name)
                                 for name in self.__match_args__)

    def render_leaf(self) -> str:
        """The text of a leaf that :func:`render` does not know itself."""
        raise FormulaError(f"cannot render {self!r}")

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True, eq=False)
class Atom(Formula):
    name: str

    def __post_init__(self) -> None:
        self._seal(frozenset((self.name,)), 1)


@dataclass(frozen=True, slots=True, eq=False)
class Const(Formula):
    value: bool

    def __post_init__(self) -> None:
        self._seal(frozenset(), 1)


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True, slots=True, eq=False)
class Not(Formula):
    operand: Formula

    def __post_init__(self) -> None:
        self._seal(self.operand._atoms, self.operand.depth + 1)


class _Binary(Formula):
    __slots__ = ()
    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        a, b = self.left._atoms, self.right._atoms
        if a is None or b is None:
            atoms = None
        else:
            atoms = a if b <= a else b if a <= b else a | b
        self._seal(atoms, max(self.left.depth, self.right.depth) + 1)


@dataclass(frozen=True, slots=True, eq=False)
class And(_Binary):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Or(_Binary):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Imp(_Binary):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Iff(_Binary):
    left: Formula
    right: Formula


def conj(parts: Sequence[Formula]) -> Formula:
    """Right-nested conjunction of ``parts`` (``true`` when empty)."""
    if not parts:
        return TRUE
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = And(part, out)
    return out


def disj(parts: Sequence[Formula]) -> Formula:
    if not parts:
        return FALSE
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = Or(part, out)
    return out


def _operands(node: Formula) -> tuple[Formula, ...]:
    """The operands of a connective; empty for every other node."""
    if isinstance(node, Not):
        return (node.operand,)
    if isinstance(node, _Binary):
        return (node.left, node.right)
    return ()


def leaves(phi: Formula) -> Iterator[Formula]:
    """The non-connective nodes of ``phi``, left to right, each once.

    The walk keeps its own stack and enters a shared subformula once, so it
    costs no Python stack and time linear in the number of distinct nodes.
    """
    seen: set[Formula] = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        parts = _operands(node)
        if parts:
            stack.extend(reversed(parts))
        else:
            yield node


def map_leaves(phi: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """``phi`` with each non-connective node ``leaf`` replaced by ``fn(leaf)``.

    The connectives are rebuilt over the rewritten operands, so the result
    is the interned node a recursive rewrite would build.  Like
    :func:`leaves` it keeps its own stack and meets each distinct node once.
    """
    done: dict[Formula, Formula] = {}
    stack = [phi]
    while stack:
        node = stack.pop()
        if node in done:
            continue
        parts = _operands(node)
        todo = [p for p in parts if p not in done]
        if todo:
            stack.append(node)
            stack.extend(reversed(todo))
        else:
            done[node] = (type(node)(*map(done.__getitem__, parts)) if parts
                          else fn(node))
    return done[phi]


def atoms_of(phi: Formula) -> frozenset[str]:
    """Atom names occurring in a purely propositional formula."""
    atoms = phi._atoms
    if atoms is None:
        raise FormulaError(f"not a propositional formula: {phi!r}")
    return atoms


# ---------------------------------------------------------------------------
# Truth tables over a fixed vocabulary.
#
# For a vocabulary (a0 < a1 < ... < a_{n-1}) valuation i makes atom a_k true
# iff bit k of i is set.  A formula's table is the integer whose bit i is the
# formula's value under valuation i.

# Entries kept by each of the formula caches below: truth tables and the
# entailment and consistency memos.  It covers the working set of the
# bounded-universe oracle (about 2,700 distinct entailment questions) while
# keeping memory flat when every query brings fresh atoms.
CACHE_SIZE = 1 << 13


def _atom_pattern(vocab: tuple[str, ...], name: str) -> int:
    # Atom k is false at the first 2^k valuations of every period of 2·2^k
    # and true at the next 2^k.  ``block`` is one period; the quotient has a
    # 1 at the start of every period, so the product repeats the block.
    run = 1 << vocab.index(name)
    block = ((1 << run) - 1) << run
    full = (1 << (1 << len(vocab))) - 1
    return block * (full // ((1 << 2 * run) - 1))


@lru_cache(maxsize=CACHE_SIZE)
def truth_table(phi: Formula, vocab: tuple[str, ...]) -> int:
    """The truth table of ``phi`` as a bit mask over valuations of ``vocab``."""
    full = (1 << (1 << len(vocab))) - 1
    match phi:
        case Atom(name):
            if name not in vocab:
                raise FormulaError(f"atom {name!r} not in vocabulary")
            return _atom_pattern(vocab, name)
        case Const(value):
            return full if value else 0
        case Not(operand):
            return full & ~truth_table(operand, vocab)
        case And(a, b):
            return truth_table(a, vocab) & truth_table(b, vocab)
        case Or(a, b):
            return truth_table(a, vocab) | truth_table(b, vocab)
        case Imp(a, b):
            return (full & ~truth_table(a, vocab)) | truth_table(b, vocab)
        case Iff(a, b):
            return full & ~(truth_table(a, vocab) ^ truth_table(b, vocab))
    raise FormulaError(f"not a propositional formula: {phi!r}")


def shared_vocab(formulas: Iterable[Formula]) -> tuple[str, ...]:
    names: set[str] = set()
    for phi in formulas:
        names |= atoms_of(phi)
    return tuple(sorted(names))


def _conj_table(premises: Iterable[Formula], vocab: tuple[str, ...]) -> int:
    table = (1 << (1 << len(vocab))) - 1
    for phi in premises:
        table &= truth_table(phi, vocab)
    return table


def entails(premises: Iterable[Formula], phi: Formula,
            vocab: Optional[Sequence[str]] = None) -> bool:
    """Classical consequence: every model of all premises satisfies ``phi``.

    Without ``vocab`` the answer comes from a bounded memo keyed by the
    premise set; a miss builds truth tables over the shared vocabulary.
    """
    if vocab is None:
        return _entails_memo(frozenset(premises), phi)
    voc = tuple(vocab)
    return _conj_table(premises, voc) & ~truth_table(phi, voc) == 0


def consistent(formulas: Iterable[Formula],
               vocab: Optional[Sequence[str]] = None) -> bool:
    """True iff some valuation satisfies every member."""
    if vocab is None:
        return _consistent_memo(frozenset(formulas))
    return _conj_table(formulas, tuple(vocab)) != 0


# Conjunction is commutative and idempotent, so a premise set answers for
# every sequence of its members.  Errors propagate and are never memoized.

@lru_cache(maxsize=CACHE_SIZE)
def _entails_memo(premises: frozenset[Formula], phi: Formula) -> bool:
    return entails(premises, phi, shared_vocab((*premises, phi)))


@lru_cache(maxsize=CACHE_SIZE)
def _consistent_memo(formulas: frozenset[Formula]) -> bool:
    return consistent(formulas, shared_vocab(formulas))


def tautology(phi: Formula) -> bool:
    return entails((), phi)


def equivalent(phi: Formula, psi: Formula) -> bool:
    return tautology(Iff(phi, psi))


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


def minterm(index: int, vocab: tuple[str, ...]) -> Formula:
    """The conjunction of literals picking out valuation ``index``."""
    lits: list[Formula] = []
    for k, name in enumerate(vocab):
        atom: Formula = Atom(name)
        lits.append(atom if (index >> k) & 1 else Not(atom))
    return conj(lits)


def formula_for_table(table: int, vocab: tuple[str, ...]) -> Formula:
    """A canonical formula (minterm disjunction) with the given truth table."""
    if table == 0:
        return FALSE
    if table == (1 << (1 << len(vocab))) - 1:
        return TRUE
    terms = [minterm(i, vocab) for i in range(1 << len(vocab)) if (table >> i) & 1]
    return disj(terms)


# ---------------------------------------------------------------------------
# Rendering.  Parenthesization follows the grammar's precedence, so parsing
# the rendered text reproduces the AST.

_PREC = {Iff: 1, Imp: 2, Or: 3, And: 4, Not: 5}


def render(phi: Formula) -> str:
    def go(f: Formula, parent: int) -> str:
        match f:
            case Atom(name):
                return name
            case Const(value):
                return "true" if value else "false"
            case Not(operand):
                return "!" + go(operand, _PREC[Not])
            case And(a, b):
                # & and | associate to the left; -> and <-> to the right
                text = f"{go(a, _PREC[And])} & {go(b, _PREC[And] + 1)}"
                prec = _PREC[And]
            case Or(a, b):
                text = f"{go(a, _PREC[Or])} | {go(b, _PREC[Or] + 1)}"
                prec = _PREC[Or]
            case Imp(a, b):
                text = f"{go(a, _PREC[Imp] + 1)} -> {go(b, _PREC[Imp])}"
                prec = _PREC[Imp]
            case Iff(a, b):
                text = f"{go(a, _PREC[Iff] + 1)} <-> {go(b, _PREC[Iff])}"
                prec = _PREC[Iff]
            case _:
                return f.render_leaf()
        return f"({text})" if prec < parent else text

    return go(phi, 0)


# ---------------------------------------------------------------------------
# Lexing and parsing.

_PUNCT = ("<->", "->", "(", ")", "{", "}", ";", ",", "!", "&", "|")


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "name", "punct", "eof"
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
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
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(Token("punct", punct, i))
                i += len(punct)
                break
        else:
            raise FormulaError(f"unexpected character {c!r} at position {i}")
    tokens.append(Token("eof", "", n))
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token], pos: int = 0):
        self.tokens = tokens
        self.pos = pos

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise FormulaError(
                f"expected {text!r} at position {tok.pos}, found {tok.text or 'end of input'!r}")
        return tok


# Connectives by token; precedences are _PREC's, and -> and <-> associate
# to the right.
_CONNECTIVES = {"!": Not, "&": And, "|": Or, "->": Imp, "<->": Iff}


def _checked(phi: Formula) -> Formula:
    if phi.depth > MAX_DEPTH:
        raise FormulaError(f"formula nested more than {MAX_DEPTH} levels deep")
    return phi


def parse_prop(stream: TokenStream, leaf_hook=None) -> Formula:
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
        operands.append(_checked(node))

    while True:
        while stream.peek().text in ("!", "("):
            tok = stream.next()
            operators.append(tok.text)
            open_groups += tok.text == "("
        operands.append(_checked(_parse_leaf(stream, leaf_hook)))
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
        prec = _PREC[cls]
        while operators and operators[-1] != "(":
            top = _PREC[_CONNECTIVES[operators[-1]]]
            if top < prec or (top == prec and cls in (Imp, Iff)):
                break
            reduce()
        operators.append(stream.next().text)
    while operators:
        if operators[-1] == "(":
            stream.expect(")")  # raises: the group is unclosed
        reduce()
    return operands[0]


def _parse_leaf(stream: TokenStream, leaf_hook) -> Formula:
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


def parse_formula(text: str, vocab: Optional[Iterable[str]] = None) -> Formula:
    """Parse ``text`` as a propositional formula.

    When ``vocab`` is given, atoms outside it are rejected.
    """
    stream = TokenStream(tokenize(text))
    phi = parse_prop(stream)
    tail = stream.peek()
    if tail.kind != "eof":
        raise FormulaError(f"unexpected {tail.text!r} at position {tail.pos}")
    if vocab is not None:
        unknown = atoms_of(phi) - set(vocab)
        if unknown:
            raise FormulaError(f"unknown atoms: {', '.join(sorted(unknown))}")
    return phi
