"""Seeded benchmark inputs whose correct verdicts are known by construction.

Every generator is a pure function of ``(seed, index)``: the same pair
always yields the same input text.  The expected verdicts follow from how
the input is built (the argument is given next to each property); goalkit
is never asked for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

# Exit code the README's table gives when a property fails.
EXIT_PROPERTY_FAILED = 1


@dataclass(frozen=True)
class AgentCase:
    """An agent file and the verdict of each obligation, in report order."""

    text: str
    expected: tuple[bool, ...]
    # the atoms of the leads-to property whose direct ensures proof fails
    leadsto: tuple[str, str] = ("", "")

    @property
    def exit_code(self) -> int:
        return 0 if all(self.expected) else EXIT_PROPERTY_FAILED


@dataclass(frozen=True)
class TripleCase:
    """A Hoare triple as text over the atoms p and q.

    ``statement`` is ``(kind, argument)`` with kind one of insert, remove,
    adopt, drop.  ``expected`` is True for triples valid by construction and
    None where only the agreement of the two checking routes is known.
    """

    pre: str
    statement: tuple[str, str]
    post: str
    expected: Optional[bool]


def _rng(family: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{family}:{seed}:{index}")


def _tag(rng: random.Random) -> str:
    # Hex digits never spell the schema placeholder segment "book".
    return f"x{rng.getrandbits(32):08x}"


def _block(entries: list[str]) -> str:
    return "{ " + " ".join(f"{e};" for e in entries) + " }"


def ntask_case(seed: int, index: int, n: int) -> AgentCase:
    """N independent tasks: goal d_i, rule ``G(d_i) -> do(c_i)``.

    Capability c_i only adds d_i, so the reachable states are the 2^N
    subsets of achieved tasks, and a goal d_i is held exactly until d_i
    is believed.  Hence:

    - ``unless B(d_i), false`` holds: no capability deletes a belief;
    - ``ensures G(d_i), B(d_i)`` holds: rule i is enabled wherever G(d_i)
      holds, and it makes d_i believed;
    - ``leadsto G(d_a) & G(d_b), B(d_a) & B(d_b)`` holds, but not by one
      ensures step (achieving d_a first leaves neither side true), so the
      proof needs transitivity;
    - ``unless G(d_k), false`` fails: rule k achieves d_k and drops the goal.
    """
    rng = _rng("ntask", seed, index)
    tag = _tag(rng)
    d = [f"d{i}_{tag}" for i in range(n)]
    c = [f"c{i}_{tag}" for i in range(n)]
    a, b = rng.sample(range(n), 2)
    k = rng.randrange(n)
    properties = []
    for atom in d:
        properties.append(f"unless B({atom}), false")
        properties.append(f"ensures G({atom}), B({atom})")
    properties.append(f"leadsto G({d[a]}) & G({d[b]}), B({d[a]}) & B({d[b]})")
    properties.append(f"unless G({d[k]}), false")
    lines = [f"vocab {_block(d)}", "beliefs { }", f"goals {_block(d)}"]
    lines += [f"capability {cap} {{ when true add {{ {atom} }} del {{ }}; }}"
              for atom, cap in zip(d, c)]
    lines.append("program " + _block(
        [f"G({atom}) -> do({cap})" for atom, cap in zip(d, c)]))
    lines.append("properties " + _block(properties))
    expected = (True,) * (2 * n + 1) + (False,)
    return AgentCase("\n".join(lines) + "\n", expected, (d[a], d[b]))


def wide_case(seed: int, index: int, w: int) -> AgentCase:
    """A two-state agent believing w background atoms, with one goal g.

    The only capability adds g, so the states are the initial one and the
    one where g is believed and the goal is gone.  Hence ``invariant
    B(x_a)`` (initialization and stability) and ``unless B(x_b), false``
    hold because nothing is deleted, ``ensures G(g), B(g)`` holds by the one
    rule, and ``unless G(g), false`` fails when g is achieved.
    """
    rng = _rng("wide", seed, index)
    tag = _tag(rng)
    x = [f"w{i}_{tag}" for i in range(w)]
    g = f"g_{tag}"
    a, b = rng.sample(range(w), 2)
    properties = [f"invariant B({x[a]})", f"unless B({x[b]}), false",
                  f"ensures G({g}), B({g})", f"unless G({g}), false"]
    lines = [f"vocab {_block(x + [g])}", f"beliefs {_block(x)}",
             f"goals {_block([g])}",
             f"capability achieve {{ when true add {{ {g} }} del {{ }}; }}",
             f"program {_block([f'G({g}) -> do(achieve)'])}",
             "properties " + _block(properties)]
    return AgentCase("\n".join(lines) + "\n", (True, True, True, True, False))


# ---------------------------------------------------------------------------
# Hoare triples over the bounded universe of atoms p and q.

ORACLE_ATOMS = ("p", "q")
_CONNECTIVES = ("&", "|", "->", "<->")


def table_text(table: int) -> str:
    """A propositional formula over p, q with the given 4-bit truth table
    (bit i set: true under the valuation where p is bit 0 and q bit 1 of i)."""
    if table == 0:
        return "false"
    if table == 15:
        return "true"
    terms = []
    for i in range(4):
        if table >> i & 1:
            lits = [atom if i >> k & 1 else f"!{atom}"
                    for k, atom in enumerate(ORACLE_ATOMS)]
            terms.append("(" + " & ".join(lits) + ")")
    return " | ".join(terms)


_B_LEAVES = [f"B({table_text(t)})" for t in range(16)]
_LEAVES = _B_LEAVES + [f"G({table_text(t)})" for t in range(16)] + ["true", "false"]


def _tree(rng: random.Random, depth: int, leaves: list[str],
          connectives: tuple[str, ...], negate: float) -> str:
    """A full binary tree of the given depth (2^depth leaves)."""
    if depth == 0:
        leaf = rng.choice(leaves)
        return f"!{leaf}" if rng.random() < negate else leaf
    left = _tree(rng, depth - 1, leaves, connectives, negate)
    right = _tree(rng, depth - 1, leaves, connectives, negate)
    return f"({left}) {rng.choice(connectives)} ({right})"


ORACLE_CATALOGUE = 96


@lru_cache(maxsize=None)
def _catalogue_triple(entry: int) -> TripleCase:
    """Entry ``entry`` of the fixed triple catalogue; entries 0-2 of every
    four are valid by construction.

    A valid triple is ``{sigma & rho} a {sigma}`` where sigma mentions only
    B(...) leaves.  adopt and drop never change the beliefs, so any such
    sigma is kept.  insert only adds a belief (or is disabled, leaving the
    state in place), so a sigma built from B leaves with & and | only,
    which is monotone in the beliefs, is kept as well.  Both routes must
    then say "holds" after scanning every state.  The other triples are
    random formulas of the same shape; for them only agreement is known.
    """
    rng = _rng("oracle", 0, entry)
    if entry % 4 == 3:
        kind = ("insert", "remove", "adopt", "drop")[entry // 4 % 4]
        if kind == "remove":
            arg = rng.choice(ORACLE_ATOMS)
        else:
            arg = table_text(rng.randrange(0 if kind == "drop" else 1, 16))
        pre = _tree(rng, 2, _LEAVES, _CONNECTIVES, 0.25)
        post = _tree(rng, 2, _LEAVES, _CONNECTIVES, 0.25)
        return TripleCase(pre, (kind, arg), post, None)
    kind = ("insert", "adopt", "drop")[entry % 4]
    arg = table_text(rng.randrange(0 if kind == "drop" else 1, 16))
    monotone = kind == "insert"
    sigma = _tree(rng, 2, _B_LEAVES, ("&", "|") if monotone else _CONNECTIVES,
                  0.0 if monotone else 0.25)
    return TripleCase(f"({sigma}) & {rng.choice(_LEAVES)}", (kind, arg),
                      sigma, True)


@lru_cache(maxsize=None)
def _catalogue_order(seed: int) -> tuple[int, ...]:
    order = list(range(ORACLE_CATALOGUE))
    random.Random(f"oracle-order:{seed}").shuffle(order)
    return tuple(order)


def oracle_case(seed: int, index: int) -> TripleCase:
    """The triple of op ``index``: the catalogue, cycled in a seeded order.

    Per-triple cost varies about fivefold, so a run that drew fresh random
    triples would measure its sample as much as the program.  Cycling one
    fixed catalogue gives every run the same mix, whatever the seed.
    """
    return _catalogue_triple(
        _catalogue_order(seed)[index % ORACLE_CATALOGUE])
