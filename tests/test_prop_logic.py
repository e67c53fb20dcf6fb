import copy
import pickle
import re
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from goalkit import prop_logic
from goalkit.prop_logic import (
    CACHE_SIZE, MAX_DEPTH, And, Atom, Const, FALSE, Formula, FormulaError, Iff, Imp, Not,
    Or, TRUE, atoms_of, conj, consistent, disj, entails, equivalent,
    PUNCT, formula_for_table, lex, minterm, parse_formula, render, tautology,
    token_start, truth_table,
)

from helpers import reference_tokenize, satisfies, valuations

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_truth_table_atoms():
    # over vocab (p, q): valuation index bit 0 is p, bit 1 is q
    assert truth_table(P, ("p", "q")) == 0b1010
    assert truth_table(Q, ("p", "q")) == 0b1100
    assert truth_table(TRUE, ("p", "q")) == 0b1111
    assert truth_table(FALSE, ("p", "q")) == 0


def test_truth_table_connectives():
    v = ("p", "q")
    assert truth_table(And(P, Q), v) == 0b1000
    assert truth_table(Or(P, Q), v) == 0b1110
    assert truth_table(Imp(P, Q), v) == 0b1101
    assert truth_table(Iff(P, Q), v) == 0b1001
    assert truth_table(Not(P), v) == 0b0101


def test_entailment_basics():
    assert entails([P, Imp(P, Q)], Q)
    assert not entails([Or(P, Q)], P)
    assert entails([], Imp(P, P))
    assert entails([FALSE], Q)


def test_consistency_and_tautology():
    assert consistent([P, Q])
    assert not consistent([P, Not(P)])
    assert tautology(Or(P, Not(P)))
    assert not tautology(P)
    assert equivalent(Imp(P, Q), Or(Not(P), Q))


def test_minterm_and_formula_for_table_roundtrip():
    v = ("p", "q")
    for table in range(16):
        phi = formula_for_table(table, v)
        assert truth_table(phi, v) == table
    assert formula_for_table(0, v) == FALSE
    # index 3 = both atoms true
    assert truth_table(minterm(3, v), v) == 0b1000


def test_valuations_and_satisfies():
    vals = list(valuations(("p", "q")))
    assert len(vals) == 4
    assert sum(satisfies(w, And(P, Q)) for w in vals) == 1
    assert all(satisfies(w, Or(P, Not(P))) for w in vals)


def test_parse_basic_forms():
    assert parse_formula("p & q | r") == Or(And(P, Q), R)
    assert parse_formula("!p -> q -> r") == Imp(Not(P), Imp(Q, R))
    assert parse_formula("p <-> q") == Iff(P, Q)
    assert parse_formula("true & false") == And(TRUE, FALSE)
    assert parse_formula("((p))") == P


def test_parse_rejects_garbage():
    with pytest.raises(FormulaError):
        parse_formula("p &")
    with pytest.raises(FormulaError):
        parse_formula("p q")
    with pytest.raises(FormulaError):
        parse_formula("")
    with pytest.raises(FormulaError):
        parse_formula("p @ q")


def test_parse_vocab_guard():
    assert parse_formula("p & q", vocab=("p", "q")) == And(P, Q)
    with pytest.raises(FormulaError):
        parse_formula("p & r", vocab=("p", "q"))


def test_parse_from_a_token_up_to_a_closing_token():
    # positions count from the start of the whole text
    assert parse_formula("f(p & q)", start=2, close=")") == And(P, Q)
    with pytest.raises(FormulaError, match="expected '\\)' at position 7"):
        parse_formula("f(p & q", start=2, close=")")
    with pytest.raises(FormulaError, match="unexpected 'r' at position 9"):
        parse_formula("f(p & q) r", start=2, close=")")
    with pytest.raises(FormulaError, match="unknown atoms: r"):
        parse_formula("f(p & r)", ("p", "q"), start=2, close=")")


def test_render_parse_roundtrip_examples():
    for text in ("p & q | r", "!(p -> q)", "p <-> q <-> r",
                 "!(p & (q | !r))", "true -> p"):
        phi = parse_formula(text)
        assert parse_formula(render(phi)) == phi


def test_conj_disj_helpers():
    assert conj([]) == TRUE
    assert disj([]) == FALSE
    assert conj([P]) == P
    assert equivalent(conj([P, Q, R]), And(P, And(Q, R))) or \
        equivalent(conj([P, Q, R]), And(And(P, Q), R))


def test_atoms_of():
    assert atoms_of(Imp(P, And(Q, Not(R)))) == frozenset({"p", "q", "r"})
    assert atoms_of(TRUE) == frozenset()


# -- property tests ---------------------------------------------------------

_atom_names = ("p", "q", "r")


def formulas(depth=3):
    leaf = st.sampled_from([Atom(n) for n in _atom_names] + [TRUE, FALSE])
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Imp(*t)),
            st.tuples(children, children).map(lambda t: Iff(*t)),
        ),
        max_leaves=8)


@given(st.lists(formulas(), max_size=3), formulas())
@settings(max_examples=200, deadline=None)
def test_entailment_iff_inconsistent_with_negation(premises, phi):
    assert entails(premises, phi) == (not consistent(premises + [Not(phi)]))


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_render_roundtrip(phi):
    assert parse_formula(render(phi)) == phi


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_table_against_valuation_semantics(phi):
    vocab = tuple(sorted(atoms_of(phi))) or ("p",)
    table = truth_table(phi, vocab)
    for i, w in enumerate(valuations(vocab)):
        assert bool((table >> i) & 1) == satisfies(w, phi)


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_canonicalization_is_equivalent(phi):
    vocab = tuple(sorted(atoms_of(phi))) or ("p",)
    assert equivalent(formula_for_table(truth_table(phi, vocab), vocab), phi)


# -- hash-consing -----------------------------------------------------------


def test_nodes_are_interned():
    assert Atom("p") is P
    assert Atom(name="p") is P
    assert And(left=P, right=Not(Q)) is And(P, Not(Q))
    assert Const(True) is TRUE


def test_interning_is_one_instance_under_thread_races():
    # every thread builds the same fresh formulas; a lost race in the
    # intern table would hand two threads different instances
    names = [f"race_{i}" for i in range(2000)]
    results: list[list[Formula]] = []

    def build() -> None:
        out = []
        for a, b in zip(names, names[1:]):
            out.append(Imp(Not(Atom(a)), And(Atom(a), Atom(b))))
        results.append(out)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    for out in results[1:]:
        assert all(x is y for x, y in zip(out, results[0], strict=True))


def test_copies_and_pickles_are_the_interned_node():
    phi = parse_formula("p & !(q -> r)")
    assert copy.copy(phi) is phi
    assert copy.deepcopy(phi) is phi
    assert pickle.loads(pickle.dumps(phi)) is phi


def test_atom_sets_live_on_the_nodes():
    assert not hasattr(prop_logic, "_atom_sets")
    phi = parse_formula("p & (q | p)")
    assert atoms_of(phi) is atoms_of(And(P, Or(Q, P)))
    assert atoms_of(phi) == frozenset({"p", "q"})


def _build(shape):
    """A formula from a nested-tuple description, built afresh each call."""
    kind = shape[0]
    if kind == "atom":
        return Atom(shape[1])
    if kind == "const":
        return Const(shape[1])
    if kind == "not":
        return Not(_build(shape[1]))
    cls = {"and": And, "or": Or, "imp": Imp, "iff": Iff}[kind]
    return cls(_build(shape[1]), _build(shape[2]))


shapes = st.recursive(
    st.one_of(st.tuples(st.just("atom"), st.sampled_from(_atom_names)),
              st.tuples(st.just("const"), st.booleans())),
    lambda children: st.one_of(
        st.tuples(st.just("not"), children),
        st.tuples(st.sampled_from(["and", "or", "imp", "iff"]),
                  children, children)),
    max_leaves=10)


@given(shapes)
@settings(max_examples=200, deadline=None)
def test_equal_trees_built_independently_are_one_object(shape):
    assert _build(shape) is _build(shape)


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_render_parse_returns_the_same_node(phi):
    assert parse_formula(render(phi)) is phi


@given(st.lists(formulas(), max_size=4), formulas())
@settings(max_examples=300, deadline=None)
def test_entails_and_consistent_match_valuation_reference(premises, phi):
    vocab = sorted(frozenset().union(*map(atoms_of, premises + [phi])))
    models = [w for w in valuations(vocab)
              if all(satisfies(w, f) for f in premises)]
    assert consistent(premises) == bool(models)
    assert entails(premises, phi) == all(satisfies(w, phi) for w in models)


# -- the entailment memo ----------------------------------------------------


@given(st.lists(formulas(), max_size=4), formulas())
@settings(max_examples=200, deadline=None)
def test_memo_answers_alike_for_every_shape_of_premises(premises, phi):
    vocab = sorted(frozenset().union(*map(atoms_of, premises + [phi])))
    models = [w for w in valuations(vocab)
              if all(satisfies(w, f) for f in premises)]
    holds = all(satisfies(w, phi) for w in models)
    shapes = (lambda: (f for f in premises), lambda: premises + premises,
              lambda: tuple(reversed(premises)), lambda: frozenset(premises))
    for shape in shapes:
        assert entails(shape(), phi) == holds
        assert consistent(shape()) == bool(models)


def atom_pattern_by_valuation(vocab, name):
    """Reference: bit i set for each valuation i that makes ``name`` true."""
    k = vocab.index(name)
    pattern = 0
    for i in range(1 << len(vocab)):
        if (i >> k) & 1:
            pattern |= 1 << i
    return pattern


def test_atom_patterns_match_valuation_reference():
    for n in range(1, 11):
        vocab = tuple(f"a{k}" for k in range(n))
        for name in vocab:
            assert (prop_logic._atom_pattern(vocab, name)
                    == atom_pattern_by_valuation(vocab, name)), (n, name)


def test_formula_caches_stay_within_their_bound():
    for i in range(CACHE_SIZE + 100):
        fresh = Atom(f"memo_bound_{i}")
        assert entails((fresh,), Or(fresh, P))
        assert consistent((fresh, Not(P)))
    for cache in (prop_logic._entails_memo, prop_logic._consistent_memo,
                  prop_logic.truth_table):
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert info.currsize <= CACHE_SIZE
    assert prop_logic._entails_memo.cache_info().currsize == CACHE_SIZE


def test_errors_are_raised_on_every_call():
    for _ in range(3):
        with pytest.raises(FormulaError, match="not in vocabulary"):
            entails((P,), R, vocab=("p", "q"))
        with pytest.raises(FormulaError, match="not in vocabulary"):
            consistent((R,), vocab=("p",))
    assert entails((P,), Or(P, R), vocab=("p", "q", "r"))


# -- nesting depth ----------------------------------------------------------


def test_parse_accepts_nesting_up_to_the_limit():
    chain = parse_formula(" & ".join(["p"] * MAX_DEPTH))
    assert chain.depth == MAX_DEPTH
    # redundant parentheses add no depth, however many there are
    assert parse_formula("(" * 5000 + "p" + ")" * 5000) is P


@pytest.mark.parametrize("text", [
    " & ".join(["p"] * 3000),
    " | ".join(["p"] * (MAX_DEPTH + 1)),
    " -> ".join(["p"] * 3000),
    " <-> ".join(["p"] * 3000),
    "!" * 3000 + "p",
    "(" * 3000 + "!" * 3000 + "p" + ")" * 3000,
])
def test_parse_rejects_nesting_beyond_the_limit(text):
    with pytest.raises(FormulaError, match="nested more than"):
        parse_formula(text)


# -- the lexer ----------------------------------------------------------------


def _outcome(lexer, text):
    """What ``lexer`` makes of ``text``: its tokens or its error message."""
    try:
        return lexer(text)
    except FormulaError as exc:
        return f"FormulaError: {exc}"


def _triples(text):
    """The reference's (kind, text, position) of each token, from lex's
    texts and token_start's positions."""
    return [("punct" if t in PUNCT else "name" if t else "eof", t,
             token_start(text, k)) for k, t in enumerate(lex(text))]


# Mostly the lexer's own alphabet, with any other character mixed in.
_lexer_texts = st.text(st.one_of(
    st.sampled_from(list("pq_x1 \t\n#<->(){};,!&|")), st.characters()))


@given(st.one_of(st.text(), _lexer_texts))
@settings(max_examples=300, deadline=None)
@example("p1 & !_q -> (r <-> s) # note\n| t;")
@example("a\u00b2 \u00b2a")           # superscript two: alnum, not alpha
@example("\u00bd \u2167x \u4e00")      # numerics that are not letters
@example("p\x1c\u2028q\u00a0r\u3000")  # str.isspace beyond ASCII
@example("<- -< <> - < #\r\n# x")
def test_lex_and_token_start_match_the_loop_reference(text):
    assert _outcome(_triples, text) == _outcome(reference_tokenize, text)


def test_lexer_classes_are_the_str_predicates():
    # lex reads \s as str.isspace and \w as str.isalnum plus "_"
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]
    assert re.findall(r"\w", chars) == [c for c in chars
                                        if c.isalnum() or c == "_"]

