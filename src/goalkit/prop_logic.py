"""Propositional formulas, their parser, and classical consequence.

Consequence is decided by model enumeration: vocabularies stay small
(a dozen atoms at most), so a formula's truth table fits comfortably in
a Python integer, with bit ``i`` giving the formula's value under the
``i``-th valuation of the vocabulary.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence


class FormulaError(Exception):
    """Raised for malformed formula text or out-of-vocabulary atoms."""


class Record:
    """Base of goalkit's immutable records: a subclass names its fields in
    ``__slots__`` and ``__match_args__``, and ``_defaults`` maps trailing
    fields to defaults.  Records are built by position or keyword, equal by
    class and fields, hashed by fields, and print as ``Name(field=value)``;
    ``__post_init__`` checks or derives once the fields are set.  No code is
    generated at import, which keeps each run's start-up short."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = _bind(type(self), args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self.__post_init__()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # slot setters for __init__, and one C getter of every field
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls.__match_args__)
        if cls.__match_args__:
            cls._fields = attrgetter(*cls.__match_args__)

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, so nodes intern
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


def _bind(cls: type, args: tuple, kwargs: dict) -> tuple:
    """The field values of ``cls(*args, **kwargs)``, in field order."""
    names, defaults = cls.__match_args__, cls._defaults
    try:
        values = args + tuple([kwargs.pop(n) if n in kwargs else defaults[n]
                               for n in names[len(args):]])
    except KeyError:    # a field with neither a value nor a default
        values = ()
    if kwargs or len(values) != len(names):
        raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
    return values


# Formulas nested deeper than this are rejected by the parser.  The structural
# walkers (leaves, map_leaves) keep their own stacks, but the evaluators
# (truth_table, render, eval_msf, StateSet.mask) recurse once per
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
        if kwargs or len(args) != len(cls.__match_args__):
            args = _bind(cls, args, kwargs)
        key = (cls, *args)
        node = _nodes.get(key)
        if node is None:
            # setdefault keeps a single instance even if two threads race here
            node = _nodes.setdefault(key, super().__call__(*args))
        return node


class Formula(Record, metaclass=_HashConsed):
    """Base class of all formula AST nodes (propositional and modal).

    Nodes are hash-consed, so equality is identity.  Each node carries its
    nesting ``depth`` and its atom set (``None`` on a node that is not purely
    propositional), both computed once at construction by ``__post_init__``.
    """

    __slots__ = ("_atoms", "depth")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def _seal(self, atoms: Optional[frozenset[str]], depth: int) -> None:
        object.__setattr__(self, "_atoms", atoms)
        object.__setattr__(self, "depth", depth)

    def render_leaf(self) -> str:
        """The text of a leaf that :func:`render` does not know itself."""
        raise FormulaError(f"cannot render {self!r}")

    def __str__(self) -> str:
        return render(self)


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)

    def __post_init__(self) -> None:
        self._seal(frozenset((self.name,)), 1)


class Const(Formula):
    __slots__ = __match_args__ = ("value",)

    def __post_init__(self) -> None:
        self._seal(frozenset(), 1)


TRUE = Const(True)
FALSE = Const(False)


class Not(Formula):
    __slots__ = __match_args__ = ("operand",)

    def __post_init__(self) -> None:
        self._seal(self.operand._atoms, self.operand.depth + 1)


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __post_init__(self) -> None:
        a, b = self.left._atoms, self.right._atoms
        if a is None or b is None:
            atoms = None
        else:
            atoms = a if b <= a else b if a <= b else a | b
        self._seal(atoms, max(self.left.depth, self.right.depth) + 1)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


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


# The operands of each connective class, read by one getter; a node whose
# class has none is a leaf.
_OPERANDS: dict[type, Callable[[Formula], tuple[Formula, ...]]] = {
    Not: lambda node: (node.operand,),
    **dict.fromkeys((And, Or, Imp, Iff), attrgetter("left", "right")),
}


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
        operands = _OPERANDS.get(type(node))
        if operands is None:
            yield node
        else:
            stack.extend(reversed(operands(node)))


def map_leaves(phi: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """``phi`` with each non-connective node ``leaf`` replaced by ``fn(leaf)``.

    The connectives are rebuilt over the rewritten operands, each looked up
    in the intern table first, so the result is the interned node a
    recursive rewrite would build.  Like :func:`leaves` it keeps its own
    stack and meets each distinct node once.
    """
    done: dict[Formula, Formula] = {}
    stack = [phi]
    while stack:
        node = stack.pop()
        if node in done:
            continue
        cls = type(node)
        operands = _OPERANDS.get(cls)
        if operands is None:
            done[node] = fn(node)
            continue
        parts = operands(node)
        if all(map(done.__contains__, parts)):
            key = (cls, *map(done.__getitem__, parts))
            done[node] = _nodes.get(key) or cls(*key[1:])
        else:               # operands done already are skipped when popped
            stack.append(node)
            stack.extend(reversed(parts))
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

# One lexeme, in group 1, and the white space and comments after it (so the
# end of the text, "", matches once): a punctuation mark or a name.  Any
# other character matches outside the group and reads as "" too.  \s is
# str.isspace and \w str.isalnum plus "_".  A name starts with a letter
# (str.isalpha) or "_": [^\W\d] rules out decimal digits, and lex the other
# numerals, which only text outside ASCII has.
_SKIP = re.compile(r"(?:\s+|#[^\n]*)*")
_LEXEME = re.compile(r"(?:(<->|->|[(){};,!&|]|[^\W\d]\w*|\Z)|.)"
                     + _SKIP.pattern)

PUNCT = frozenset(("<->", "->", "(", ")", "{", "}", ";", ",", "!", "&", "|"))


def lex(text: str) -> list[str]:
    """The text of each token of ``text``, the last one "" at its end;
    :func:`token_start` finds a token's position when a diagnostic needs it.
    Raises :class:`FormulaError` at the first character no token starts:
    one that reads as "" before the end or, outside ASCII, a name starting
    with a numeral."""
    texts = _LEXEME.findall(text, _SKIP.match(text).end())
    bad = texts.index("")
    if not text.isascii():
        bad = next(k for k, t in enumerate(texts) if not (
            t in PUNCT or t[:1].isalpha() or t[:1] == "_"))
    if bad != len(texts) - 1:
        pos = token_start(text, bad)
        raise FormulaError(
            f"unexpected character {text[pos]!r} at position {pos}")
    return texts


def token_start(text: str, k: int) -> int:
    """The position in ``text`` of the start of its token ``k``."""
    m = next(islice(_LEXEME.finditer(text, _SKIP.match(text).end()), k, None))
    return m.start(1) if m.start(1) >= 0 else m.start()


def expected(want: str, found: str, pos: int) -> FormulaError:
    """The error for token ``found`` at ``pos`` where ``want`` must be."""
    return FormulaError(f"expected {want!r} at position {pos}, "
                        f"found {found or 'end of input'!r}")


# The operator stack holds (precedence, class) entries.  "(" and "B(" / "G("
# push a precedence-0 marker, and one sits at the bottom, so applying
# operators stops at either with no test of its own.  ! (5) is unary, and so
# is a B/G marker once its argument is read: it becomes its class's entry (6).
_OPEN = (0, None)
_PREFIX = {"(": _OPEN, "!": (5, Not)}
_CONSTANTS = {"true": TRUE, "false": FALSE}
# What the token after an operand asks for: the least precedence an
# operator on the stack must have to be applied now, and the entry to push.
# & and | associate to the left, -> and <-> to the right; any other token
# ends a group, a B/G argument or the formula.
_BINARY = {"&": (4, (4, And)), "|": (3, (3, Or)), "->": (3, (2, Imp)),
           "<->": (2, (1, Iff))}
_END = (1, None)


def parse_tokens(texts: Sequence[str], i: int, where: Callable[[int], int],
                 special: Optional[Mapping[str, Callable]] = None
                 ) -> tuple[Formula, int, Optional[Formula], set[str]]:
    """Parse a formula from the token texts ``texts[i:]``, which end in "".

    ``!`` binds tightest, then ``&``, ``|``, ``->`` and ``<->``.  Explicit
    operand and operator stacks keep deep input off the Python stack.  An
    operator is applied when the token after its operands calls for it:
    its node is taken from the intern table, built only when it is new, and
    rejected, found or built, when nested more than :data:`MAX_DEPTH` levels
    deep.  ``where(k)``, the position of token ``k``, is asked only for an
    error.  With ``special`` it is a mental-state formula, where a name
    ``special`` maps, followed by ``(``, is a leaf: ``"B"`` and ``"G"`` map
    to the leaf's class, with a propositional argument, and ``"enabled"`` to
    a function from a capability name to the leaf.  Returns the formula, the
    index after it, its leftmost atom outside ``B``/``G`` (``None`` without
    ``special``) and the names of its atoms.
    """
    operands: list[Formula] = []
    operators: list = [_OPEN]
    groups = 0                  # open "(" of the formula being read
    inside = None               # in a B/G argument: its class, outer groups
    active = special            # None inside a B/G argument
    bare: Optional[Formula] = None
    names: set[str] = set()
    while True:
        t = texts[i]
        while t in _PREFIX:
            operators.append(_PREFIX[t])
            groups += t == "("
            i += 1
            t = texts[i]
        if not t or t in PUNCT:
            raise FormulaError(
                f"expected a formula at position {where(i)}, found {t!r}")
        if t in _CONSTANTS:
            leaf = _CONSTANTS[t]
        elif active is not None and t in active and texts[i + 1] == "(":
            if t != "enabled":
                operators.append(_OPEN)
                inside, active, groups = (active[t], groups), None, 0
                i += 2
                continue
            name = texts[i + 2]
            if not name or name in PUNCT:
                raise FormulaError(
                    f"expected a capability name at position {where(i + 2)}")
            if texts[i + 3] != ")":
                raise expected(")", texts[i + 3], where(i + 3))
            leaf = active[t](name)
            i += 3
        else:
            leaf = _nodes.get((Atom, t)) or Atom(t)
            names.add(t)
            if bare is None and active is not None:
                bare = leaf
        i += 1
        operands.append(leaf)
        while True:
            t = texts[i]
            least, entry = _BINARY.get(t, _END)
            while operators[-1][0] >= least:
                prec, cls = operators.pop()
                key = ((cls, operands[-1]) if prec > 4
                       else (cls, operands[-2], operands.pop()))
                node = _nodes.get(key) or cls(*key[1:])
                if node.depth > MAX_DEPTH:
                    raise FormulaError(
                        f"formula nested more than {MAX_DEPTH} levels deep")
                operands[-1] = node
            if entry is not None:
                operators.append(entry)
                i += 1
                break
            if t == ")" and groups:
                operators.pop()
                groups -= 1
            elif groups or (inside is not None and t != ")"):
                raise expected(")", t, where(i))
            elif inside is None:
                return operands.pop(), i, bare, names
            else:               # B/G's entry is applied at the next token
                cls, groups = inside
                inside, active = None, special
                operators[-1] = (6, cls)
            i += 1


def parse_formula(text: str, vocab: Optional[Iterable[str]] = None,
                  special: Optional[Mapping[str, Callable]] = None, *,
                  start: int = 0, close: str = "") -> Formula:
    """Parse ``text`` as a propositional formula, or with ``special`` as a
    mental-state formula, which must have no atom outside B/G leaves (see
    :func:`parse_tokens`).  When ``vocab`` is given, atoms outside it are
    rejected.  The formula starts at token ``start`` and is followed by the
    token ``close``, if one is given, and then the end of the text; error
    positions count from the start of ``text``.
    """
    texts, where = lex(text), partial(token_start, text)
    phi, end, bare, names = parse_tokens(texts, start, where, special)
    if close:
        if texts[end] != close:
            raise expected(close, texts[end], where(end))
        end += 1
    if texts[end]:
        raise FormulaError(f"unexpected {texts[end]!r} at position {where(end)}")
    if bare is not None:
        raise FormulaError(
            f"bare atom {bare.name!r}; atoms must appear inside B(...) or G(...)")
    unknown = names - set(vocab) if vocab is not None else ()
    if unknown:
        raise FormulaError(f"unknown atoms: {', '.join(sorted(unknown))}")
    return phi
