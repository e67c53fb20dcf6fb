"""Mental states and mental-state formulas.

A mental state pairs a consistent belief base with a goal base.  The goal
base is kept as a finite set of generator formulas; the agent has psi as a
goal exactly when psi is consistent, not believed, and entailed by some
single generator.  That realizes the closure condition on goal bases while
keeping states finite.  Goal actions and belief capabilities are defined
here too: an ``enabled(...)`` leaf holds its action and asks it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import (
    Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union,
)

from .prop_logic import (
    CACHE_SIZE, And, Atom, Const, Formula, FormulaError, Iff, Imp, Not, Or,
    Record, TokenStream, atoms_of, consistent, entails, formula_for_table, leaves,
    map_leaves, parse_prop, render, tautology, tokenize, truth_table,
)


class MentalStateError(Exception):
    """Raised when a state (or construction thereof) breaks its invariants."""


class BoundsExceeded(Exception):
    """Raised when an enumeration request is outside the supported bounds."""


# ---------------------------------------------------------------------------
# Mental-state formula leaves.  Connectives are shared with prop_logic.


class Bel(Formula):
    __slots__ = __match_args__ = ("arg",)

    def __post_init__(self) -> None:
        self._seal(None, self.arg.depth + 1)

    def render_leaf(self) -> str:
        return f"B({render(self.arg)})"


class Goal(Formula):
    __slots__ = __match_args__ = ("arg",)

    def __post_init__(self) -> None:
        self._seal(None, self.arg.depth + 1)

    def render_leaf(self) -> str:
        return f"G({render(self.arg)})"


class GoalAction(Record):
    __slots__ = __match_args__ = ("kind", "argument")  # kind: adopt | drop

    def __str__(self) -> str:
        return f"{self.kind}({render(self.argument)})"

    def enabled_at(self, state: "MentalState") -> bool:
        """drop is always enabled; adopt requires a satisfiable,
        not-yet-believed argument.  Reads only ``state.beliefs``."""
        if self.kind == "drop":
            return True
        return (not tautology(Not(self.argument))
                and not state.believes(self.argument))


class EffectClause(Record):
    __slots__ = __match_args__ = ("guard", "add", "delete")


class CapabilitySpec(Record):
    __slots__ = __match_args__ = ("name", "clauses")

    def __str__(self) -> str:
        return self.name

    def enabled_at(self, state: "MentalState") -> bool:
        """A belief capability is enabled exactly when its update is
        defined.  Reads only ``state.beliefs``."""
        return apply_T(self, state.beliefs) is not None


def apply_T(cap: CapabilitySpec,
            beliefs: frozenset[Formula]) -> Optional[frozenset[Formula]]:
    """The partial belief-update function.

    Returns the updated base, or ``None`` when no clause applies or the
    update would be inconsistent.
    """
    for clause in cap.clauses:
        if entails(beliefs, clause.guard):
            updated = (beliefs - frozenset(clause.delete)) | frozenset(clause.add)
            if not consistent(updated):
                return None
            return updated
    return None


# A basic action: a goal action or a belief capability.
Action = Union[GoalAction, CapabilitySpec]


class Enabled(Formula):
    """Enabledness atom of a goal action or of a belief capability."""

    __slots__ = __match_args__ = ("target",)

    def __post_init__(self) -> None:
        if not isinstance(self.target, (GoalAction, CapabilitySpec)):
            raise TypeError(
                f"enabled(...) needs a goal action or a capability, "
                f"not {self.target!r}")
        self._seal(None, 1)

    def render_leaf(self) -> str:
        return f"enabled({self.target})"


# ---------------------------------------------------------------------------


class MentalState(Record):
    """Pair of belief base and goal-generator base.

    Invariants (checked on construction): the belief base is consistent,
    every generator is consistent, and no generator is entailed by the
    beliefs.  The hash is kept from construction: scopes hash every state.
    """

    __match_args__ = ("beliefs", "goals")
    __slots__ = (*__match_args__, "_hash")

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.beliefs, self.goals)))
        if not consistent(self.beliefs):
            raise MentalStateError("belief base is inconsistent")
        for gamma in self.goals:
            if not consistent((gamma,)):
                raise MentalStateError(
                    f"goal generator {render(gamma)} is inconsistent (clause (ii))")
            if entails(self.beliefs, gamma):
                raise MentalStateError(
                    f"goal generator {render(gamma)} is already believed (clause (i))")

    def __hash__(self) -> int:
        return self._hash

    def believes(self, phi: Formula) -> bool:
        return entails(self.beliefs, phi)

    def digest(self) -> str:
        import hashlib
        text = " / ".join(
            (";".join(sorted(render(f) for f in self.beliefs)),
             ";".join(sorted(render(g) for g in self.goals))))
        return hashlib.sha1(text.encode()).hexdigest()[:12]

    def describe(self) -> str:
        bels = ", ".join(sorted(render(f) for f in self.beliefs)) or "-"
        gens = ", ".join(sorted(render(g) for g in self.goals)) or "-"
        return f"beliefs: {bels} | goals: {gens}"


def make_state(beliefs: Iterable[Formula], goals: Iterable[Formula]) -> MentalState:
    """Build a state, pruning generator candidates that the beliefs entail.

    Transformer code uses this: pruning achieved goals is part of every
    belief update, so the result always satisfies the state invariants.
    """
    bels = frozenset(beliefs)
    gens = frozenset(g for g in goals if not entails(bels, g))
    return MentalState(bels, gens)


def goal_holds(state: MentalState, psi: Formula) -> bool:
    """Whether ``psi`` is in the closure of the goal base of ``state``."""
    return (consistent((psi,)) and not state.believes(psi)
            and generates(state.goals, psi))


def generates(goals: Iterable[Formula], psi: Formula) -> bool:
    """Whether some single generator in ``goals`` entails ``psi``."""
    return any(entails((gamma,), psi) for gamma in goals)


def eval_msf(state: MentalState, phi: Formula) -> bool:
    """Truth of a mental-state formula at ``state``."""
    match phi:
        case Bel(arg):
            return state.believes(arg)
        case Goal(arg):
            return goal_holds(state, arg)
        case Enabled(target):
            return target.enabled_at(state)
        case Const(value):
            return value
        case Not(operand):
            return not eval_msf(state, operand)
        case And(a, b):
            return eval_msf(state, a) and eval_msf(state, b)
        case Or(a, b):
            return eval_msf(state, a) or eval_msf(state, b)
        case Imp(a, b):
            return (not eval_msf(state, a)) or eval_msf(state, b)
        case Iff(a, b):
            return eval_msf(state, a) == eval_msf(state, b)
        case Atom(name):
            raise MentalStateError(
                f"bare atom {name!r} in a mental-state formula; wrap it in B(...) or G(...)")
    raise MentalStateError(f"cannot evaluate {phi!r}")


# Image sets held per state set: a constant well above the actions asked
# about one scope (the oracle benchmark's catalogue has 44).
HELD_IMAGES = 256


class StateSet:
    """A fixed sequence of states over which formulas evaluate as bit masks.

    Bit i of ``mask(phi)`` is the truth of ``phi`` at ``states[i]``.
    Connectives are integer bit operations.  A leaf is evaluated only at
    the states where :func:`eval_msf` itself would reach it: the right side
    of ``&``, ``|`` and ``->`` is evaluated only where the left side leaves
    the result open.  Leaves are evaluated once per class of states, not
    once per state: ``B`` and ``enabled`` leaves read only the belief base,
    so each is evaluated with :func:`eval_msf` at the lowest state of each
    belief class among those asked for, and its value is given to the whole
    class; ``G(psi)`` is ``psi`` being consistent, ``B(psi)`` failing, and
    :func:`generates` holding, which reads only the goal base and so is
    decided once per goal class.  Other leaves are evaluated state by
    state.  A truth value depends only on the formula and the state, so the
    values computed are kept on the set between calls, for at most
    ``CACHE_SIZE`` subformulas: a full memo is emptied and its values are
    computed again when asked.

    A set also holds, per action, its image set (:meth:`image`), for at
    most ``HELD_IMAGES`` actions.  :func:`held_set` holds one set per
    distinct state sequence, so the bounded universe of
    :func:`validity_oracle` and the scope of
    :func:`~goalkit.verifier.check_hoare_basic` are one set, whose masks and
    image sets serve every later call of either.
    """

    __slots__ = ("states", "full", "_known", "_same_beliefs", "_same_goals",
                 "_images", "_bases")

    def __init__(self, states: Iterable[MentalState]):
        self.states: tuple[MentalState, ...] = tuple(states)
        self.full = (1 << len(self.states)) - 1
        # per subformula: (states evaluated so far, where it holds among them)
        self._known: dict[Formula, tuple[int, int]] = {}
        # per state: the mask of the states with equal beliefs (goals);
        # each built when first needed
        self._same_beliefs: Optional[list[int]] = None
        self._same_goals: Optional[list[int]] = None
        # per action: its image set and the mask where it executes
        self._images: dict[Action, tuple[StateSet, int]] = {}
        # the one object kept for each belief or goal base of those images
        self._bases: dict[frozenset[Formula], frozenset[Formula]] = {}

    def _belief_classes(self) -> list[int]:
        if self._same_beliefs is None:
            self._same_beliefs = _classes([s.beliefs for s in self.states])
        return self._same_beliefs

    def _goal_classes(self) -> list[int]:
        if self._same_goals is None:
            self._same_goals = _classes([s.goals for s in self.states])
        return self._same_goals

    def mask(self, phi: Formula, within: Optional[int] = None) -> int:
        """The states where ``phi`` holds, as a bit mask.

        With ``within``, only the states whose bits are set in it are
        evaluated, and the result is a subset of it.
        """
        return self._go(phi, self.full if within is None else within)

    # _go and _at are methods, not closures inside mask: two closures that
    # call each other form a reference cycle, which would keep each set's
    # states and memo alive until the cyclic garbage collector runs.

    def _go(self, f: Formula, care: int) -> int:
        """Where ``f`` holds among the states in ``care``."""
        if not care:
            return 0
        done, holds = self._known.get(f, (0, 0))
        todo = care & ~done
        if todo:
            holds |= self._at(f, todo)
            done |= todo
            if len(self._known) >= CACHE_SIZE:
                self._known.clear()
            self._known[f] = (done, holds)
        return holds & care

    def _at(self, f: Formula, care: int) -> int:
        go = self._go
        match f:
            case Const(value):
                return care if value else 0
            case Not(operand):
                return care & ~go(operand, care)
            case And(a, b):
                return go(b, go(a, care))
            case Or(a, b):
                left = go(a, care)
                return left | go(b, care & ~left)
            case Imp(a, b):
                left = go(a, care)
                return (care & ~left) | go(b, left)
            case Iff(a, b):
                return care & ~(go(a, care) ^ go(b, care))
            case Bel() | Enabled():
                return self._per_class(self._belief_classes(), care,
                                       lambda s: eval_msf(s, f))
            case Goal(arg):
                if not consistent((arg,)):
                    return 0
                return self._per_class(self._goal_classes(),
                                       care & ~go(Bel(arg), care),
                                       lambda s: generates(s.goals, arg))
        out = 0
        for i in set_bits(care):
            if eval_msf(self.states[i], f):
                out |= 1 << i
        return out

    def _per_class(self, classes: list[int], care: int,
                   holds: Callable[[MentalState], bool]) -> int:
        """Where ``holds`` is true among the states in ``care``, asked at
        the lowest state of each class in ``care`` for the whole class."""
        out = 0
        while care:
            i = (care & -care).bit_length() - 1
            members = classes[i] & care
            if holds(self.states[i]):
                out |= members
            care &= ~members
        return out

    def image(self, action: Action,
              transform: Callable[[Action, MentalState], Optional[MentalState]]
              ) -> tuple[StateSet, int]:
        """The set whose state i is ``transform(action, states[i])``, or
        ``states[i]`` itself where that is ``None``, and the mask of the
        positions where it is not ``None``.

        Both are built at every state on the first call for ``action`` and
        held on this set, so they live no longer than it does.  An image
        equal to its source is the source object, one equal to another
        state of this set is that state, other equal images of one action
        are one object, and equal belief or goal bases among all the images
        held on this set are one object.  If ``transform`` raises, no image
        set is kept.

        ``transform`` must give states with equal beliefs images with equal
        beliefs, as ``capabilities.apply_M`` does (an update, and whether
        it is defined, read only the beliefs), so the image set uses this
        set's belief classes instead of building its own.
        """
        held = self._images.get(action)
        if held is not None:
            return held
        if len(self._images) >= HELD_IMAGES:
            self._images.clear()
            self._bases.clear()
        kept = {s: s for s in self.states}
        images: list[MentalState] = []
        executed = 0
        for i, s in enumerate(self.states):
            t = transform(action, s)
            if t is not None:
                executed |= 1 << i
                if t != s:
                    s = _share(t, kept, self._bases)
            images.append(s)
        image_set = StateSet(images)
        image_set._same_beliefs = self._belief_classes()
        held = self._images[action] = (image_set, executed)
        return held


def _share(state: MentalState, kept: dict[MentalState, MentalState],
           bases: dict[frozenset[Formula], frozenset[Formula]]) -> MentalState:
    """The state ``kept`` holds equal to ``state``; a state new to it
    shares its belief and goal bases with the equal ones in ``bases``."""
    found = kept.get(state)
    if found is None:
        beliefs = bases.setdefault(state.beliefs, state.beliefs)
        goals = bases.setdefault(state.goals, state.goals)
        if beliefs is not state.beliefs or goals is not state.goals:
            state = MentalState(beliefs, goals)
        found = kept[state] = state
    return found


def _classes(keys: Sequence[object]) -> list[int]:
    """For each position, the mask of the positions with an equal key."""
    masks: dict[object, int] = {}
    for i, key in enumerate(keys):
        masks[key] = masks.get(key, 0) | 1 << i
    return [masks[key] for key in keys]


def set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest_bit(mask: int) -> int:
    """Index of the lowest set bit of a non-zero ``mask``."""
    return next(set_bits(mask))


def msf_leaves(phi: Formula) -> Iterator[Formula]:
    """All Bel/Goal/Enabled leaves of ``phi`` (with repetition collapsed)."""
    return (leaf for leaf in leaves(phi)
            if isinstance(leaf, (Bel, Goal, Enabled)))


def msf_atoms(phi: Formula) -> frozenset[str]:
    """Atoms of a propositional or mental-state formula, inside B/G leaves."""
    names: set[str] = set()
    for leaf in leaves(phi):
        match leaf:
            case Bel(arg) | Goal(arg):
                names |= atoms_of(arg)
            case Enabled():
                pass
            case _:
                names |= atoms_of(leaf)
    return frozenset(names)


def map_goal_leaves(phi: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """Rewrite every G-leaf G(chi) of ``phi`` to ``fn(chi)``."""
    return map_leaves(
        phi, lambda leaf: fn(leaf.arg) if isinstance(leaf, Goal) else leaf)


# ---------------------------------------------------------------------------
# Parsing mental-state formulas.


def parse_msf_stream(stream: TokenStream,
                     resolve: Callable[[str], CapabilitySpec]) -> Formula:
    """Parse a mental-state formula from ``stream``.

    ``resolve`` binds the name of each ``enabled(name)`` leaf to its
    capability, and raises for a name it does not accept.
    """

    def leaf_hook(stream: TokenStream) -> Optional[Formula]:
        tok = stream.peek()
        nxt = (stream.tokens[stream.pos + 1]
               if stream.pos + 1 < len(stream.tokens) else None)
        if nxt is None or nxt.text != "(":
            return None
        if tok.text in ("B", "G"):
            stream.next()
            stream.expect("(")
            inner = parse_prop(stream)
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

    return parse_prop(stream, leaf_hook)


def parse_msformula(text: str, vocab: Optional[Iterable[str]] = None,
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

    stream = TokenStream(tokenize(text))
    phi = parse_msf_stream(stream, resolve)
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


# ---------------------------------------------------------------------------
# Bounded enumeration of mental states and the validity oracle.

MAX_ORACLE_ATOMS = 4
MAX_ORACLE_GENERATORS = 3


def canonical_formulas(vocab: tuple[str, ...],
                       include_false: bool = False) -> list[Formula]:
    """Canonical representatives of all semantic classes over ``vocab``.

    Ordered from weakest (true) to strongest, numerically within a size.
    """
    n_vals = 1 << len(vocab)
    tables = sorted(range(0 if include_false else 1, 1 << n_vals),
                    key=lambda t: (-bin(t).count("1"), t))
    return [formula_for_table(t, vocab) for t in tables]


def enumerate_states(vocab: Sequence[str],
                     max_generators: int = 2) -> Iterator[MentalState]:
    """All mental states over ``vocab``, one per semantic class.

    Belief bases range over nonempty valuation sets (weakest theory first);
    generators over canonical consistent formulas, up to ``max_generators``
    per state, skipping candidates the beliefs entail.  The order is fixed,
    so "first countermodel" is well defined.
    """
    voc = tuple(sorted(vocab))
    if len(voc) > MAX_ORACLE_ATOMS:
        raise BoundsExceeded(f"at most {MAX_ORACLE_ATOMS} atoms supported")
    if max_generators > MAX_ORACLE_GENERATORS:
        raise BoundsExceeded(f"at most {MAX_ORACLE_GENERATORS} generators supported")
    yield from _state_space(voc, max_generators)


@lru_cache(maxsize=16)
def _state_space(voc: tuple[str, ...],
                 max_generators: int) -> tuple[MentalState, ...]:
    n_vals = 1 << len(voc)
    full = (1 << n_vals) - 1
    candidates = canonical_formulas(voc)
    theory_tables = sorted(range(1, 1 << n_vals),
                           key=lambda t: (-bin(t).count("1"), t))
    out = []
    for sigma_table in theory_tables:
        beliefs: frozenset[Formula]
        if sigma_table == full:
            beliefs = frozenset()
        else:
            beliefs = frozenset((formula_for_table(sigma_table, voc),))
        usable = [g for g in candidates
                  if sigma_table & ~truth_table(g, voc) != 0]
        for size in range(max_generators + 1):
            for gens in combinations(usable, size):
                out.append(MentalState(beliefs, frozenset(gens)))
    return tuple(out)


@lru_cache(maxsize=16)
def held_set(states: tuple[MentalState, ...]) -> StateSet:
    """One state set per distinct state sequence, held with its memo and
    image sets for the 16 sequences used last."""
    return StateSet(states)


@lru_cache(maxsize=16)
def _universe(voc: tuple[str, ...], max_generators: int) -> StateSet:
    """The bounded universe's set, taken from :func:`held_set` when first
    asked for, so it is the set ``check_hoare_basic`` uses for the same
    states for as long as :func:`held_set` keeps it too.  An out-of-bounds
    request raises on every call."""
    return held_set(tuple(enumerate_states(voc, max_generators)))


class OracleVerdict(Record):
    __slots__ = __match_args__ = ("valid", "countermodel", "atoms",
                                  "max_generators")

    def __bool__(self) -> bool:
        return self.valid

    def describe(self) -> str:
        if self.valid:
            return (f"valid-within-bounds (atoms={','.join(self.atoms)}, "
                    f"generators<={self.max_generators})")
        assert self.countermodel is not None
        return f"countermodel: {self.countermodel.describe()}"


def validity_oracle(phi: Formula, atoms: Sequence[str],
                    max_generators: int = 2) -> OracleVerdict:
    """Decide ``phi`` over all bounded mental states.

    Refutations are exact (the countermodel is the least in enumeration
    order); the positive verdict claims validity only within the bounds.
    Every call over the same atoms and generator bound evaluates on one
    held :class:`StateSet`, the one :func:`held_set` holds for the
    universe's states, which ``check_hoare_basic`` also evaluates its
    preconditions on and holds its image sets on; so the class indexes
    and the truth values either route computed serve later calls of both.
    """
    voc = tuple(sorted(atoms))
    space = _universe(voc, max_generators)
    refuted = space.full & ~space.mask(phi)
    if refuted:
        return OracleVerdict(False, space.states[lowest_bit(refuted)], voc,
                             max_generators)
    return OracleVerdict(True, None, voc, max_generators)
