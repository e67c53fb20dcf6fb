"""Mental states and mental-state formulas.

A mental state pairs a consistent belief base with a goal base.  The goal
base is kept as a finite set of generator formulas; the agent has psi as a
goal exactly when psi is consistent, not believed, and entailed by some
single generator.  That realizes the closure condition on goal bases while
keeping states finite.  The actions (``insert`` and ``remove`` build two)
and the transformer ``apply_M`` are defined here too: an action is
enabled exactly where ``apply_M`` is defined.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import (
    Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union,
)

from .prop_logic import (
    CACHE_SIZE, And, Atom, Const, Formula, FormulaError, Iff, Imp, Not, Or,
    Record, TRUE, atoms_of, consistent, entails, formula_for_table, leaves,
    map_leaves, parse_formula, render, tautology, truth_table,
)


class MentalStateError(Exception):
    """Raised when a state (or construction thereof) breaks its invariants."""


class BoundsExceeded(Exception):
    """Raised when an enumeration request is outside the supported bounds."""


# ---------------------------------------------------------------------------
# Mental-state formula leaves.  Connectives are shared with prop_logic.


class _Modal(Formula):
    """A B(...) or G(...) leaf: the subclasses differ only in the letter."""

    __slots__ = __match_args__ = ("arg",)

    def __post_init__(self) -> None:
        self._seal(None, self.arg.depth + 1)

    def render_leaf(self) -> str:
        return f"{self.letter}({render(self.arg)})"


class Bel(_Modal):
    __slots__, letter = (), "B"


class Goal(_Modal):
    __slots__, letter = (), "G"


class GoalAction(Record):
    __slots__ = __match_args__ = ("kind", "argument")  # kind: adopt | drop

    def __str__(self) -> str:
        return f"{self.kind}({render(self.argument)})"


class EffectClause(Record):
    __slots__ = __match_args__ = ("guard", "add", "delete")


class CapabilitySpec(Record):
    __slots__ = __match_args__ = ("name", "clauses")

    def __str__(self) -> str:
        return self.name


def insert(phi: Formula) -> CapabilitySpec:
    """The built-in capability that adds ``phi`` to the beliefs."""
    return CapabilitySpec(f"ins({render(phi)})",
                          (EffectClause(TRUE, (phi,), ()),))


def remove(phi: Formula) -> CapabilitySpec:
    """The built-in capability that removes the formula ``phi`` (by identity)."""
    return CapabilitySpec(f"del({render(phi)})",
                          (EffectClause(TRUE, (), (phi,)),))


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


class ConditionalAction(Record):
    """A guarded action: the condition is a mental-state formula over B/G."""

    __slots__ = __match_args__ = ("condition", "action")

    def __str__(self) -> str:
        return f"{render(self.condition)} -> do({self.action})"


# What a transition is defined for: a basic or a conditional action.
Statement = Union[GoalAction, CapabilitySpec, ConditionalAction]


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

    # a run prints the state after every step but visits few distinct ones
    @lru_cache(maxsize=CACHE_SIZE)
    def describe(self) -> str:
        bels = ", ".join(sorted(render(f) for f in self.beliefs)) or "-"
        gens = ", ".join(sorted(render(g) for g in self.goals)) or "-"
        return f"beliefs: {bels} | goals: {gens}"


class Verdict(Record):
    """The answer of a check: whether it holds, a state where it fails, the
    scope it was decided over, and what failed."""

    __slots__ = __match_args__ = ("holds", "witness", "scope", "detail")
    _defaults = {"witness": None, "scope": "", "detail": ""}

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


def make_state(beliefs: Iterable[Formula], goals: Iterable[Formula]) -> MentalState:
    """Build a state, pruning generator candidates that the beliefs entail.

    Transformer code uses this: pruning achieved goals is part of every
    belief update, so the result always satisfies the state invariants.
    """
    bels = frozenset(beliefs)
    gens = frozenset(g for g in goals if not entails(bels, g))
    return MentalState(bels, gens)


def apply_M(action: Statement,
            state: MentalState) -> Optional[MentalState]:
    """The mental-state transformer, ``None`` exactly where not enabled.

    Belief updates are undefined where ``apply_T`` is, and prune every goal
    generator the new beliefs entail (the blind-commitment strategy: a goal
    is dropped exactly when believed achieved).  drop removes the
    generators entailing its argument; adopt adds a satisfiable, unbelieved
    argument as a new generator.  A conditional action ``psi -> do(a)`` is
    ``a``'s transformer where ``psi`` holds, and ``None`` elsewhere: the one
    transition of every action.
    """
    if isinstance(action, ConditionalAction):
        if not eval_msf(state, action.condition):
            return None
        action = action.action
    if isinstance(action, GoalAction):
        if action.kind == "drop":
            kept: list[Formula] = []
            for g in state.goals:
                if entails((g,), action.argument):
                    kept.extend(_weakenings(g, action.argument))
                else:
                    kept.append(g)
            return make_state(state.beliefs, kept)
        if tautology(Not(action.argument)) or state.believes(action.argument):
            return None
        return MentalState(state.beliefs, state.goals | {action.argument})
    updated = apply_T(action, state.beliefs)
    if updated is None:
        return None
    return make_state(updated, state.goals)


@lru_cache(maxsize=CACHE_SIZE)
def _weakenings(gamma: Formula, phi: Formula) -> tuple[Formula, ...]:
    """Generators covering the consequences of ``gamma`` that survive drop(phi).

    The goal base is closed under consequence, so dropping phi removes only
    the consequences that entail phi; a consequence chi of gamma survives
    exactly when it has a model outside phi.  The strongest survivors are
    gamma-or-one-extra-model, one per non-phi valuation.  Both arguments
    are interned, so the answer is kept for every later drop.
    """
    vocab = tuple(sorted(atoms_of(gamma) | atoms_of(phi)))
    if not vocab:
        return ()
    g_table = truth_table(gamma, vocab)
    p_table = truth_table(phi, vocab)
    return tuple(formula_for_table(g_table | (1 << v), vocab)
                 for v in range(1 << len(vocab)) if not (p_table >> v) & 1)


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
            return apply_M(target, state) is not None
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
    once per state: a ``B`` leaf reads only the belief base, and so does an
    ``enabled`` leaf, since whether ``apply_M`` is defined for a basic
    action reads only the beliefs; each is evaluated with :func:`eval_msf`
    at the lowest state of each belief class among those asked for, and
    its value is given to the whole class; ``G(psi)`` is ``psi`` being
    consistent, ``B(psi)`` failing, and :func:`generates` holding, which
    reads only the goal base and so is decided once per goal class.  Other
    leaves are evaluated state by state.  A truth value depends only on the
    formula and the state, so the values computed are kept on the set
    between calls, for at most ``CACHE_SIZE`` subformulas: a full memo is
    emptied and its values are computed again when asked.

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
        self._images: dict[Statement, tuple[StateSet, int]] = {}
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

    def image(self, action: Statement) -> tuple[StateSet, int]:
        """The set whose state i is ``apply_M(action, states[i])``, or
        ``states[i]`` itself where that is ``None``, and the mask of the
        positions where the action executes.

        Both are built at every state on the first call for ``action`` and
        held on this set, so they live no longer than it does.  An image
        equal to its source is the source object, one equal to another
        state of this set is that state, other equal images of one action
        are one object, and equal belief or goal bases among all the images
        held on this set are one object.  If ``apply_M`` raises, no image
        set is kept.  Whether ``apply_M`` is defined for a basic action,
        and the beliefs it gives, read only the beliefs, so its image set
        uses this set's belief classes.  A condition may read the goals and
        step only one of two states with equal beliefs, so a conditional
        action's does not.
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
            t = apply_M(action, s)
            if t is not None:
                executed |= 1 << i
                if t != s:
                    s = _share(t, kept, self._bases)
            images.append(s)
        image_set = StateSet(images)
        if not isinstance(action, ConditionalAction):
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


def msf_syntax(resolve: Callable[[str], CapabilitySpec]) -> dict[str, Callable]:
    """The leaves :func:`~goalkit.prop_logic.parse_tokens` reads in a
    mental-state formula: ``B(...)``, ``G(...)``, and ``enabled(name)``
    bound to ``resolve(name)``, which raises for a name it does not accept.
    """
    return {"B": Bel, "G": Goal,
            "enabled": lambda name: Enabled(resolve(name))}


def _unknown_capability(name: str) -> CapabilitySpec:
    raise FormulaError(f"unknown capability {name!r}")


# The leaves of a formula read without capabilities.
_NO_CAPABILITIES = msf_syntax(_unknown_capability)


def parse_msformula(text: str, vocab: Optional[Iterable[str]] = None,
                    capabilities: Optional[Mapping[str, CapabilitySpec]] = None
                    ) -> Formula:
    """Parse a mental-state formula (B/G/enabled leaves plus connectives).

    With ``vocab``, atoms outside it are rejected.  Each ``enabled(name)``
    leaf is bound to ``capabilities[name]``; a name outside
    ``capabilities``, or any name when it is not given, is rejected.
    """
    return parse_formula(text, vocab, _NO_CAPABILITIES if capabilities is None
                         else msf_syntax(lambda name: capabilities.get(name)
                                         or _unknown_capability(name)))


# ---------------------------------------------------------------------------
# Bounded enumeration of mental states and the validity oracle.

MAX_ORACLE_ATOMS = 3
MAX_ORACLE_GENERATORS = 3
# The work of building a universe: its states plus the theory x candidate
# checks.  Twice the largest universe decided, 3 atoms with 1 generator
# (124,000); the next larger one, 3 atoms with 2 generators, has 6.9 M states,
# and the checks alone over 4 atoms are 65,535^2, so no 4-atom universe fits.
MAX_ORACLE_WORK = 250_000


def canonical_formulas(vocab: tuple[str, ...]) -> list[Formula]:
    """Canonical representatives of the satisfiable classes over ``vocab``.

    Ordered from weakest (true) to strongest, numerically within a size.
    """
    n_vals = 1 << len(vocab)
    tables = sorted(range(1, 1 << n_vals),
                    key=lambda t: (-bin(t).count("1"), t))
    return [formula_for_table(t, vocab) for t in tables]


def enumerate_states(vocab: Sequence[str],
                     max_generators: int = 2) -> tuple[MentalState, ...]:
    """All mental states over ``vocab``, one per semantic class.

    Belief bases range over nonempty valuation sets (weakest theory first);
    generators over canonical consistent formulas, up to ``max_generators``
    per state, skipping candidates the beliefs entail.  The order is fixed,
    so "first countermodel" is well defined.  The result is the universe's
    one cached tuple, the same object on every call while it is cached, so
    :func:`held_set` finds its set by identity.  A universe whose states and
    theory x candidate checks exceed :data:`MAX_ORACLE_WORK` is refused
    with :class:`BoundsExceeded` on every call, before it is built.
    """
    return _state_space(tuple(sorted(vocab)), max_generators)


def universe_size(n_atoms: int, max_generators: int) -> int:
    """The number of states :func:`enumerate_states` gives over ``n_atoms``
    atoms.  With V = 2^n_atoms valuations, a theory true at m of them leaves
    the 2^V - 1 - 2^(V-m) canonical formulas it does not entail as
    generators, and a state takes at most ``max_generators`` of them."""
    v = 1 << n_atoms
    return sum(comb(v, m) * sum(comb((1 << v) - 1 - (1 << v - m), k)
                                for k in range(max_generators + 1))
               for m in range(1, v + 1))


@lru_cache(maxsize=16)
def _state_space(voc: tuple[str, ...],
                 max_generators: int) -> tuple[MentalState, ...]:
    # the bounds are checked ahead of any build; a raise is never cached
    if len(voc) > MAX_ORACLE_ATOMS:
        raise BoundsExceeded(f"at most {MAX_ORACLE_ATOMS} atoms supported")
    if max_generators > MAX_ORACLE_GENERATORS:
        raise BoundsExceeded(f"at most {MAX_ORACLE_GENERATORS} generators supported")
    work = (universe_size(len(voc), max_generators)
            + ((1 << (1 << len(voc))) - 1) ** 2)
    if work > MAX_ORACLE_WORK:
        raise BoundsExceeded(
            f"the universe over {len(voc)} atoms and {max_generators} "
            f"generators is too large ({work:,} units of work, at most "
            f"{MAX_ORACLE_WORK:,} supported)")
    # the theories are the canonical formulas too, in the same order
    candidates = canonical_formulas(voc)
    tables = [truth_table(g, voc) for g in candidates]
    out = []
    for sigma, sigma_table in zip(candidates, tables):
        beliefs = frozenset() if sigma is TRUE else frozenset((sigma,))
        usable = [g for g, table in zip(candidates, tables)
                  if sigma_table & ~table]
        for size in range(max_generators + 1):
            for gens in combinations(usable, size):
                out.append(MentalState(beliefs, frozenset(gens)))
    return tuple(out)


def is_universe_base(phi: Formula, voc: tuple[str, ...]) -> bool:
    """Whether ``phi`` is a non-empty belief base of the universe over
    ``voc``: a canonical formula (:func:`_state_space`) over every atom."""
    return (bool(voc) and atoms_of(phi) == frozenset(voc)
            and formula_for_table(truth_table(phi, voc), voc) is phi)


# The held state sets, least recently used first.
HELD_SETS = 16
_held: list[StateSet] = []


def held_set(states: Sequence[MentalState]) -> StateSet:
    """One state set per distinct state sequence, held with its memo and
    image sets for the :data:`HELD_SETS` sequences used last.  A held set
    is found by identity or by equal length and ``==``, which is quick
    where the states are the same objects."""
    given = tuple(states)
    for k in range(len(_held) - 1, -1, -1):
        held = _held[k].states
        if held is given or len(held) == len(given) and held == given:
            _held.append(_held.pop(k))
            return _held[-1]
    _held.append(StateSet(given))
    del _held[:-HELD_SETS]
    return _held[-1]


def validity_oracle(phi: Formula, atoms: Sequence[str],
                    max_generators: int = 2) -> Verdict:
    """Decide ``phi`` over all bounded mental states.

    A refutation is exact: its witness is the least countermodel in
    enumeration order, the very object :func:`enumerate_states` gives.  A
    holding verdict claims validity only within the bounds its scope names.
    Every call evaluates on the held :class:`StateSet` of the universe's
    cached tuple, which ``check_hoare_basic`` also evaluates on when its
    scope is that universe, so the class indexes, truth values and image
    sets either route computed serve later calls of both.
    """
    voc = tuple(sorted(atoms))
    states = enumerate_states(voc, max_generators)
    space = held_set(states)
    refuted = space.full & ~space.mask(phi)
    if refuted:
        return Verdict(False, states[lowest_bit(refuted)])
    return Verdict(True, scope=f"valid-within-bounds (atoms={','.join(voc)}, "
                               f"generators<={max_generators})")
