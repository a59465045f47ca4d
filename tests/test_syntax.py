import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nomset.atoms import Name
from nomset.lam import (
    App,
    Lam,
    Var,
    all_terms,
    alpha_eq,
    normalize,
    subst,
    to_debruijn,
)
from nomset.syntax import (
    NameTable,
    ParseError,
    parse_perm,
    parse_term,
    print_names,
    print_term,
)

from .helpers import (
    binder_chain,
    count_constructions,
    db_tokens,
    reference_parse_term,
    reference_print_term,
    term_tokens,
)

x, y, z = Name(0), Name(1), Name(2)


def fresh_table():
    return NameTable.from_labels({"x": x, "y": y, "z": z})


def test_parse_identity_abstraction():
    table = NameTable()
    assert parse_term(r"\x. x", table) == Lam(x, Var(x))


def test_parse_application_of_abstraction():
    table = NameTable()
    got = parse_term(r"(\x. x y) z", table)
    assert got == App(Lam(x, App(Var(x), Var(y))), Var(z))


def test_parse_missing_body_is_an_error():
    with pytest.raises(ParseError) as err:
        parse_term(r"\x.")
    assert err.value.line == 1
    assert err.value.col == 4
    assert "body" in err.value.message


def test_parse_reports_position_of_unexpected_token():
    with pytest.raises(ParseError) as err:
        parse_term("x )")
    assert (err.value.line, err.value.col) == (1, 3)
    assert "expected" in err.value.message


def test_parse_error_on_second_line():
    with pytest.raises(ParseError) as err:
        parse_term("x\n  .")
    assert err.value.line == 2
    assert err.value.col == 3


def test_parse_unicode_lambda():
    table = NameTable()
    assert parse_term("λx. x", table) == Lam(x, Var(x))


def test_parse_primed_and_underscored_identifiers():
    table = NameTable()
    got = parse_term(r"\x'. x' foo_1", table)
    assert got == Lam(x, App(Var(x), Var(y)))
    assert table.by_label["x'"] == x
    assert table.by_label["foo_1"] == y


def test_application_is_left_associative():
    table = fresh_table()
    assert parse_term("x y z", table) == App(App(Var(x), Var(y)), Var(z))


def test_abstraction_body_extends_right():
    table = fresh_table()
    assert parse_term(r"\x. x y", table) == Lam(x, App(Var(x), Var(y)))


def test_parens_group_argument():
    table = fresh_table()
    assert parse_term("x (y z)", table) == App(Var(x), App(Var(y), Var(z)))


def test_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_term("x y )")


def test_rejects_unknown_character():
    with pytest.raises(ParseError) as err:
        parse_term("x # y")
    assert (err.value.line, err.value.col) == (1, 3)


def test_print_free_variable_uses_table_label():
    assert print_term(Var(x), fresh_table()) == "x"


def test_print_renames_binders_canonically():
    table = fresh_table()
    assert print_term(Lam(x, Var(x)), table) == r"\a. a"
    assert print_term(Lam(z, Var(z)), table) == r"\a. a"
    assert print_term(Lam(x, App(Var(x), Var(y))), table) == r"\a. a y"


def test_print_minimal_parentheses():
    table = fresh_table()
    assert print_term(App(App(Var(x), Var(y)), Var(z)), table) == "x y z"
    assert print_term(App(Var(x), App(Var(y), Var(z))), table) == "x (y z)"
    assert print_term(App(Lam(x, Var(x)), Var(y)), table) == r"(\a. a) y"
    assert print_term(App(Var(x), Lam(y, Var(y))), table) == r"x (\a. a)"


def test_print_nested_binders_get_distinct_labels():
    table = fresh_table()
    t = Lam(x, Lam(y, App(Var(x), Var(y))))
    assert print_term(t, table) == r"\a. \b. a b"


def test_print_binder_avoids_capturing_free_label():
    table = NameTable.from_labels({"a": y})
    assert print_term(Lam(x, App(Var(x), Var(y))), table) == r"\b. b a"


def test_print_synthesizes_labels_for_unregistered_names():
    table = NameTable()
    assert print_term(Var(Name(7)), table) == "n7"
    # Round trip through the same table keeps the identity.
    assert parse_term("n7", table) == Var(Name(7))


def test_print_is_deterministic():
    t = Lam(x, App(Lam(y, Var(y)), Var(z)))
    assert print_term(t, fresh_table()) == print_term(t, fresh_table())


def test_roundtrip_is_alpha_identity_on_enumerated_terms():
    pool = (x, y, z)
    table = fresh_table()
    for t in all_terms(4, pool):
        assert alpha_eq(parse_term(print_term(t, table), table), t)


def test_parse_perm_pairs():
    table = fresh_table()
    assert parse_perm("(x y)(y z)", table) == ((x, y), (y, z))


def test_parse_perm_interns_new_names():
    table = NameTable()
    got = parse_perm("(a b)", table)
    assert got == ((Name(0), Name(1)),)


@pytest.mark.parametrize("src", ["(x y) (y z)", "  (x y)\t(y z) ", "(x y)\r\n(y z)\n"])
def test_parse_perm_skips_whitespace_between_pairs(src):
    assert parse_perm(src, fresh_table()) == ((x, y), (y, z))


def test_parse_perm_rejects_garbage():
    with pytest.raises(ParseError):
        parse_perm("(a)", fresh_table())
    with pytest.raises(ParseError):
        parse_perm("a b", fresh_table())


@pytest.mark.parametrize(
    "src, line, col",
    [
        ("(a b) x", 1, 7),
        ("   (a b) x", 1, 10),
        ("\n  (a b)x", 2, 8),
        ("(a\nb) (c d) x", 2, 10),
        ("(a b)\r\n(c d)\r x", 3, 2),
    ],
)
def test_parse_perm_reports_position_in_the_callers_text(src, line, col):
    with pytest.raises(ParseError) as err:
        parse_perm(src, fresh_table())
    assert (err.value.line, err.value.col) == (line, col)
    assert err.value.message == "expected a parenthesized name pair like '(a b)'"


# Every line break of str.splitlines, then mixed whitespace: "\r\n" is one
# break, "\n\r" two, and tab, "\x1f" and no-break space are none.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize(
    "src, line, col",
    [(f"x{brk}y{brk}  )", 3, 3) for brk in LINE_BREAKS]
    + [("x\n\ry)", 3, 2), ("x\t\x1f\u00a0y )", 1, 7), ("x \r\n\r\n y\n)", 4, 1)],
)
def test_parse_error_position_after_line_breaks(src, line, col):
    with pytest.raises(ParseError) as err:
        parse_term(src, fresh_table())
    assert (err.value.line, err.value.col) == (line, col)


# Strings and tuples are what the printer keeps on its own stack.  A node
# rejects such a child when it is built, so each is built inside the check.
@pytest.mark.parametrize(
    "bad",
    [
        lambda: "x",
        lambda: App(Var(x), "junk"),
        lambda: App(Var(x), (x, "y")),
        lambda: Lam(x, " ("),
        lambda: App(Var(x), 5),
        lambda: " (",
    ],
    ids=["x", "bad1", "bad2", "bad3", "bad4", "text"],
)
def test_print_rejects_non_terms(bad):
    with pytest.raises(TypeError, match="not a term"):
        print_term(bad(), fresh_table())


def test_print_names_sorted_by_label():
    table = fresh_table()
    assert print_names(frozenset({z, x}), table) == "x z"
    assert print_names(frozenset(), table) == ""


def test_name_table_is_bijective():
    table = NameTable()
    n1 = table.intern("foo")
    n2 = table.intern("bar")
    assert table.intern("foo") == n1
    assert n1 != n2
    assert table.label_of(n1) == "foo"
    with pytest.raises(ValueError):
        table._bind("foo", Name(99))


def test_name_table_maps_are_read_only_views():
    # Writing q -> Name(0) into both maps would make intern hand r the
    # name q holds.
    table = NameTable()
    with pytest.raises(TypeError):
        table.by_label["q"] = Name(0)
    with pytest.raises(TypeError):
        table.by_name[Name(0)] = "q"
    with pytest.raises(AttributeError):
        table.by_label = {"q": Name(0)}
    assert table.intern("r") == Name(0)
    assert table.by_label == {"r": Name(0)} and table.by_name == {Name(0): "r"}


@pytest.mark.parametrize(
    "by_label,by_name",
    [
        ({"u": Name(5)}, {Name(6): "v"}),
        ({"u": Name(5)}, {Name(5): "v"}),
        ({"u": Name(5)}, {}),
        ({}, {Name(5): "u"}),
        ({"u": Name(5), "v": Name(5)}, {Name(5): "u"}),
    ],
)
def test_name_table_from_two_maps_must_be_mutual_inverses(by_label, by_name):
    with pytest.raises(ValueError, match="mutual inverses"):
        NameTable(by_label=by_label, by_name=by_name)


# Label tables for the printer comparison: labels synthesized for every
# name; user labels that the binder sequence must skip; and a user label
# that a synthesized one must step around.
PRINT_TABLES = (
    {},
    {"a": x, "b": y, "c": z},
    {"n2": x, "y": y},
)


def assert_prints_like_reference(t):
    for labels in PRINT_TABLES:
        table, ref_table = NameTable.from_labels(labels), NameTable.from_labels(labels)
        assert print_term(t, table) == reference_print_term(t, ref_table), t
        assert table.by_label == ref_table.by_label


def test_print_matches_reference_printer_on_enumerated_terms():
    for t in all_terms(6, (x, y, z)):
        assert_prints_like_reference(t)


def test_print_matches_reference_printer_on_subst_and_normalize_results():
    pool = (x, y, z)
    smalls = list(all_terms(2, pool))
    for t in all_terms(4, pool):
        for a in pool:
            for u in smalls[::4]:
                assert_prints_like_reference(subst(t, a, u))
    for t in all_terms(5, pool):
        assert_prints_like_reference(normalize(t, 20).term)
    two = Lam(x, Lam(y, App(Var(x), App(Var(x), Var(y)))))
    assert_prints_like_reference(normalize(App(two, two), 100).term)


def test_print_deep_binder_chain():
    # 500 binders cycling through x, y, z, each shadowing the one three
    # levels out, around a body that mentions all three and a free name.
    binders = [(x, y, z)[i % 3] for i in range(500)]
    t = binder_chain(binders, App(App(App(Var(x), Var(y)), Var(z)), Var(Name(7))))
    table = fresh_table()
    out = print_term(t, table)
    assert out == reference_print_term(t, fresh_table())
    back = parse_term(out, table)
    assert db_tokens(to_debruijn(back)) == db_tokens(to_debruijn(t))


def test_intern_assigns_one_past_the_largest_bound_index():
    table = NameTable.from_labels({"p": Name(7), "q": Name(3)})
    assert table.intern("r") == Name(8)
    assert table.label_of(Name(20)) == "n20"
    assert table.intern("s") == Name(21)
    assert table.label_of(Name(4)) == "n4"
    assert table.intern("t") == Name(22)
    direct = NameTable(by_label={"u": Name(5)}, by_name={Name(5): "u"})
    assert direct.intern("v") == Name(6)


def test_parse_interns_many_identifiers_in_order():
    table = NameTable()
    parse_term(" ".join(f"v{i}" for i in range(2000)), table)
    assert [n.id for n in table.by_label.values()] == list(range(2000))


# Token texts: the first seven spell every short input; the rest add the
# other lambda, an unknown character, a line break and a primed name.
SHORT_ALPHABET = ("x", "y", "\\", ".", "(", ")", " ")
TOKEN_ALPHABET = SHORT_ALPHABET + ("λ", "#", "\n", "x'")


def parse_outcome(parse, src):
    """The term or the error's message and position, and the table's
    labels in interning order."""
    table = NameTable()
    try:
        got = parse(src, table)
    except ParseError as err:
        got = (err.message, err.line, err.col)
    return got, list(table.by_label.items())


def assert_parses_like_reference(src):
    expected = parse_outcome(reference_parse_term, src)
    assert parse_outcome(parse_term, src) == expected, src


def test_parse_matches_reference_parser_on_every_short_string():
    for k in range(6):
        for chars in itertools.product(SHORT_ALPHABET, repeat=k):
            assert_parses_like_reference("".join(chars))


def test_parse_matches_reference_parser_on_random_token_strings():
    rng = random.Random(5)
    for _ in range(20_000):
        k = rng.randint(0, 30)
        assert_parses_like_reference("".join(rng.choices(TOKEN_ALPHABET, k=k)))


# The token alphabet with what lexes differently: digits and primes that
# do or do not continue an identifier, a non-ASCII letter, Unicode
# whitespace that breaks no line, and every line break of str.splitlines.
WIDE_ALPHABET = TOKEN_ALPHABET + (
    "0", "7", "'", "_", "é", "x1", "\t", "\u00a0", "\u2003", "\x1f",
) + tuple(LINE_BREAKS)


def test_parse_matches_reference_parser_on_random_wide_strings():
    rng = random.Random(13)
    for _ in range(20_000):
        k = rng.randint(0, 30)
        assert_parses_like_reference("".join(rng.choices(WIDE_ALPHABET, k=k)))


def test_lexing_error_leaves_the_table_empty():
    table = NameTable()
    with pytest.raises(ParseError) as err:
        parse_term("(x #", table)
    assert str(err.value) == "1:4: unexpected character '#'"
    assert table.by_label == {} and table.by_name == {}


def test_lexing_error_wins_over_an_earlier_grammar_error():
    with pytest.raises(ParseError) as err:
        parse_term(") #", NameTable())
    assert str(err.value) == "1:3: unexpected character '#'"


def test_parse_builds_one_var_per_identifier_and_one_name_per_new_label(monkeypatch):
    # Five distinct identifiers, f, q and y' new to the table; eight
    # applications and three abstractions.
    src = r"\x. \f. f x (x y) (\x. q x) y' q f"
    labels = {"x": x, "y": y}
    expected = reference_parse_term(src, NameTable.from_labels(labels))
    table = NameTable.from_labels(labels)
    counts = count_constructions(monkeypatch)
    got = parse_term(src, table)
    assert term_tokens(got) == term_tokens(expected)
    assert (counts[Name], counts[Var], counts[App], counts[Lam]) == (3, 5, 8, 3)
    assert list(table.by_label) == ["x", "y", "f", "q", "y'"]
    occurrences, todo = [], [got]
    while todo:
        node = todo.pop()
        if type(node) is Var:
            occurrences.append(node)
        elif type(node) is App:
            todo += (node.fn, node.arg)
        else:
            todo.append(node.body)
    assert len(occurrences) == 9 and len({id(v) for v in occurrences}) == 5


token_text = st.lists(st.sampled_from(TOKEN_ALPHABET), max_size=40).map("".join)


@given(st.text() | token_text)
def test_parse_term_gives_a_term_or_a_parse_error(src):
    table = NameTable()
    try:
        t = parse_term(src, table)
    except ParseError:
        return
    assert type(t) in (Var, App, Lam)
    assert alpha_eq(parse_term(print_term(t, table), table), t)


@given(st.text() | token_text)
def test_parse_perm_gives_a_permutation_or_a_parse_error(src):
    try:
        perm = parse_perm(src)
    except ParseError:
        return
    assert all(type(a) is Name and type(b) is Name for a, b in perm)
