"""The leaf walker and leaf rewriter against the recursions they replace.

``prop_logic.leaves`` and ``prop_logic.map_leaves`` keep their own stacks
and enter a shared subformula once.  The recursive functions below are the
former bodies of ``msf_leaves``, ``map_goal_leaves``, ``_bare_atoms``,
``subst_insert`` and ``_formula_atoms`` (now ``msf_atoms``); on seeded
random mental-state formulas with shared subterms the helpers must give the
same leaves in the same order and the identical rewritten node.
"""

import random
import sys

import pytest

from goalkit import prop_logic
from goalkit.prop_logic import (
    And, Atom, FALSE, FormulaError, Iff, Imp, Not, Or, TRUE, atoms_of, conj,
    leaves, map_leaves, tautology,
)
from goalkit.mental_state import (
    Bel, CapabilitySpec, Enabled, Goal, GoalAction, map_goal_leaves,
    msf_atoms, msf_leaves, parse_msformula,
)
from goalkit.agent_program import AgentParseError, parse_agent
from goalkit.verifier import _subst_adopt, _subst_drop, subst_insert

P, Q, R = Atom("p"), Atom("q"), Atom("r")
EN_C = Enabled(CapabilitySpec("c", ()))
EN_D = Enabled(CapabilitySpec("d", ()))


# ---------------------------------------------------------------------------
# The former recursive bodies, kept as references.


def ref_leaves(phi):
    seen, out = set(), []

    def go(f):
        match f:
            case Not(operand):
                go(operand)
            case And(a, b) | Or(a, b) | Imp(a, b) | Iff(a, b):
                go(a)
                go(b)
            case _:
                if f not in seen:
                    seen.add(f)
                    out.append(f)
    go(phi)
    return out


def ref_msf_leaves(phi):
    seen = set()

    def go(f):
        match f:
            case Bel() | Goal() | Enabled():
                if f not in seen:
                    seen.add(f)
                    yield f
            case Not(operand):
                yield from go(operand)
            case And(a, b) | Or(a, b) | Imp(a, b) | Iff(a, b):
                yield from go(a)
                yield from go(b)
            case _:
                return

    return go(phi)


def ref_map_goal_leaves(phi, fn):
    match phi:
        case Goal(arg):
            return fn(arg)
        case Not(operand):
            return Not(ref_map_goal_leaves(operand, fn))
        case And(a, b):
            return And(ref_map_goal_leaves(a, fn), ref_map_goal_leaves(b, fn))
        case Or(a, b):
            return Or(ref_map_goal_leaves(a, fn), ref_map_goal_leaves(b, fn))
        case Imp(a, b):
            return Imp(ref_map_goal_leaves(a, fn), ref_map_goal_leaves(b, fn))
        case Iff(a, b):
            return Iff(ref_map_goal_leaves(a, fn), ref_map_goal_leaves(b, fn))
        case _:
            return phi


def ref_bare_atoms(phi):
    match phi:
        case Bel() | Goal() | Enabled():
            return
        case Atom(name):
            yield name
        case Not(operand):
            yield from ref_bare_atoms(operand)
        case And(a, b) | Or(a, b) | Imp(a, b) | Iff(a, b):
            yield from ref_bare_atoms(a)
            yield from ref_bare_atoms(b)


def ref_subst_insert(sigma, phi):
    def walk(f):
        match f:
            case Bel(arg):
                return Bel(Imp(phi, arg))
            case Goal(arg):
                return And(Goal(arg), Not(Bel(Imp(phi, arg))))
            case Not(operand):
                return Not(walk(operand))
            case And(a, b):
                return And(walk(a), walk(b))
            case Or(a, b):
                return Or(walk(a), walk(b))
            case Imp(a, b):
                return Imp(walk(a), walk(b))
            case Iff(a, b):
                return Iff(walk(a), walk(b))
            case _:
                return f
    return walk(sigma)


def ref_formula_atoms(phi):
    names = set()
    stack = [phi]
    while stack:
        match stack.pop():
            case Bel(arg) | Goal(arg):
                names |= atoms_of(arg)
            case Enabled():
                pass
            case Not(operand):
                stack.append(operand)
            case And(a, b) | Or(a, b) | Imp(a, b) | Iff(a, b):
                stack.extend((a, b))
            case leaf:
                names |= atoms_of(leaf)
    return frozenset(names)


def ref_subst_adopt(sigma, phi):
    return ref_map_goal_leaves(
        sigma,
        lambda chi: Not(Bel(chi)) if tautology(Imp(phi, chi)) else Goal(chi))


def ref_subst_drop(sigma, phi):
    return ref_map_goal_leaves(
        sigma,
        lambda chi: FALSE if tautology(Imp(chi, phi)) else Goal(chi))


# ---------------------------------------------------------------------------

LEAF_POOL = [
    Bel(P), Bel(Or(P, R)), Bel(Not(Q)), Goal(Q), Goal(And(P, Q)),
    Goal(Not(R)), Goal(Or(Q, R)), EN_C, EN_D,
    Enabled(GoalAction("adopt", P)), Enabled(GoalAction("drop", Q)),
    TRUE, FALSE,
]


def random_shared_msf(rng, size=24, bare=False):
    """A formula grown from a pool that keeps every node built so far, so
    subformulas recur at several places (and sometimes as both operands)."""
    pool = rng.sample(LEAF_POOL, 6) + ([P, Q, R] if bare else [])
    for _ in range(size):
        if rng.random() < 0.2:
            node = Not(rng.choice(pool))
        else:
            # favour recent nodes, so the formula is deep as well as shared
            a = rng.choice(pool[-4:] if rng.random() < 0.5 else pool)
            b = rng.choice(pool)
            node = rng.choice((And, Or, Imp, Iff))(a, b)
        pool.append(node)
    return pool[-1]


def swap_modality(leaf):
    match leaf:
        case Bel(arg):
            return Goal(arg)
        case Goal(arg):
            return Bel(arg)
    return leaf


def ref_map_leaves(phi, fn):
    """The generic recursive rewrite: connectives rebuilt, leaves mapped."""
    match phi:
        case Not(operand):
            return Not(ref_map_leaves(operand, fn))
        case And(a, b) | Or(a, b) | Imp(a, b) | Iff(a, b):
            return type(phi)(ref_map_leaves(a, fn), ref_map_leaves(b, fn))
    return fn(phi)


def test_leaves_come_left_to_right_each_once():
    phi = Or(Goal(Q), And(Not(Bel(P)), Imp(Goal(Q), And(Bel(P), EN_C))))
    assert list(leaves(phi)) == [Goal(Q), Bel(P), EN_C]
    assert list(leaves(Bel(P))) == [Bel(P)]
    assert list(leaves(And(P, P))) == [P]


def test_leaves_match_the_recursive_references():
    for seed in range(300):
        rng = random.Random(seed)
        phi = random_shared_msf(rng, bare=seed % 3 == 0)
        assert list(leaves(phi)) == ref_leaves(phi)
        assert list(msf_leaves(phi)) == list(ref_msf_leaves(phi))
        first = next((f for f in leaves(phi) if isinstance(f, Atom)), None)
        assert (first and first.name) == next(ref_bare_atoms(phi), None)
        assert msf_atoms(phi) == ref_formula_atoms(phi)


def test_rewrites_match_the_recursive_references():
    arguments = [P, Q, Or(P, Q), And(P, R), Not(R), TRUE]
    for seed in range(300):
        rng = random.Random(seed)
        phi = random_shared_msf(rng, bare=seed % 3 == 0)
        chi = rng.choice(arguments)
        assert subst_insert(phi, chi) is ref_subst_insert(phi, chi)
        assert _subst_adopt(phi, chi) is ref_subst_adopt(phi, chi)
        assert _subst_drop(phi, chi) is ref_subst_drop(phi, chi)
        fn = lambda arg: Not(Bel(And(arg, chi)))  # noqa: E731
        assert map_goal_leaves(phi, fn) is ref_map_goal_leaves(phi, fn)
        assert map_leaves(phi, swap_modality) is ref_map_leaves(
            phi, swap_modality)


def test_map_leaves_calls_fn_once_per_distinct_leaf():
    for seed in range(50):
        phi = random_shared_msf(random.Random(seed))
        calls = []

        def fn(leaf):
            calls.append(leaf)
            return swap_modality(leaf)

        map_leaves(phi, fn)
        assert calls == ref_leaves(phi)


def test_map_leaves_of_a_leaf_is_fn_of_it():
    assert map_leaves(Goal(P), swap_modality) is Bel(P)
    assert map_leaves(TRUE, swap_modality) is TRUE
    assert map_goal_leaves(Goal(P), lambda chi: FALSE) is FALSE


def doubled(leaf, levels):
    """A formula whose tree has 2**levels copies of ``leaf`` but only
    levels + 1 distinct nodes."""
    phi = leaf
    for k in range(levels):
        phi = (And, Or, Imp, Iff)[k % 4](phi, phi)
    return phi


def test_walkers_enter_a_shared_subformula_once(monkeypatch):
    """A walk that re-entered shared subformulas would visit 2**60 nodes."""
    phi = doubled(Goal(P), 60)
    budget = [4 * 61]

    def counted(operands):
        def read(node):
            budget[0] -= 1
            if budget[0] < 0:
                raise AssertionError("a shared subformula was entered twice")
            return operands(node)
        return read

    for cls, operands in list(prop_logic._OPERANDS.items()):
        monkeypatch.setitem(prop_logic._OPERANDS, cls, counted(operands))
    assert list(leaves(phi)) == [Goal(P)]
    budget[0] = 4 * 61
    assert list(msf_leaves(phi)) == [Goal(P)]
    budget[0] = 4 * 61
    assert msf_atoms(phi) == {"p"}
    budget[0] = 4 * 61
    assert map_leaves(phi, swap_modality) is doubled(Bel(P), 60)
    budget[0] = 4 * 61
    assert (map_goal_leaves(phi, lambda chi: Not(Bel(chi)))
            is doubled(Not(Bel(P)), 60))
    budget[0] = 4 * 61
    assert subst_insert(phi, Q) is doubled(
        And(Goal(P), Not(Bel(Imp(Q, P)))), 60)


def test_walkers_handle_formulas_deeper_than_the_recursion_limit():
    names = [f"a{i}" for i in range(5000)]
    parts = [(Bel if i % 2 else Goal)(Atom(n)) for i, n in enumerate(names)]
    phi = conj(parts)
    assert phi.depth > sys.getrecursionlimit()
    assert list(msf_leaves(phi)) == parts
    assert msf_atoms(phi) == frozenset(names)
    assert list(msf_leaves(And(phi, EN_C))) == parts + [EN_C]
    bare = And(phi, Or(Atom("x"), Atom("y")))
    assert next(f for f in leaves(bare) if isinstance(f, Atom)) is Atom("x")
    assert map_goal_leaves(phi, lambda chi: Not(Bel(chi))) is conj(
        [Not(Bel(f.arg)) if isinstance(f, Goal) else f for f in parts])
    assert subst_insert(phi, P) is conj(
        [Bel(Imp(P, f.arg)) if isinstance(f, Bel)
         else And(f, Not(Bel(Imp(P, f.arg)))) for f in parts])


def test_parsers_name_the_first_bare_atom():
    with pytest.raises(FormulaError, match="bare atom 'r'"):
        parse_msformula("B(p) & (r | q)")
    source = """
    vocab { p; q; r; } beliefs { } goals { p; }
    capability c { when true add { p } del { }; }
    program { B(q) & (r | q) -> do(c); }
    """
    with pytest.raises(AgentParseError, match="bare atom 'r'"):
        parse_agent(source)


def test_parse_msformula_names_every_unknown_atom():
    with pytest.raises(FormulaError, match=r"unknown atoms: x, y$"):
        parse_msformula("B(x) & G(p | y)", vocab=("p",))
