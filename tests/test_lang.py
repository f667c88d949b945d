"""Lexer, parser, analyzer, pretty-printer."""
import random

import pytest

from eduction import lang
from eduction.model import INT64_MAX, INT64_MIN

FACT_SRC = (
    "fact where dimension d; "
    "fact = if #.d == 0 then 1 else #.d * (fact @.d (#.d - 1)); end"
)


class TestTokenize:
    def test_single_int(self):
        toks = lang.tokenize("42")
        assert [(t.kind, t.lexeme) for t in toks] == [("int", "42"), ("eof", "")]

    def test_hash_navigation(self):
        kinds = [t.kind for t in lang.tokenize("#.d")]
        assert kinds == ["#", ".", "ident", "eof"]

    def test_lex_error_position(self):
        with pytest.raises(lang.LexError) as e:
            lang.tokenize("4 $ 2")
        assert e.value.line == 1 and e.value.col == 3 and e.value.char == "$"

    def test_comments_skipped(self):
        toks = lang.tokenize("1 // trailing words $ % ^ é ²\n+ 2")
        assert [t.lexeme for t in toks[:-1]] == ["1", "+", "2"]

    def test_float_forms(self):
        toks = lang.tokenize("1.5 2.0e3 7.25E-2")
        assert [t.kind for t in toks[:-1]] == ["float"] * 3

    def test_positions_are_one_based(self):
        tok = lang.tokenize("  abc")[0]
        assert (tok.line, tok.col) == (1, 3)

    def test_two_char_operators(self):
        kinds = [t.kind for t in lang.tokenize("== != <= >= && ||")[:-1]]
        assert kinds == ["==", "!=", "<=", ">=", "&&", "||"]

    @pytest.mark.parametrize(
        "src, col, char",
        [("x²", 2, "²"), ("é", 1, "é"), ("1 + aé", 6, "é"), ("\u0663", 1, "\u0663")],
        ids=["superscript-two", "accented-letter", "inside-identifier", "arabic-indic-three"],
    )
    def test_non_ascii_is_lex_error(self, src, col, char):
        # isalpha/isdigit would let these through, and no wire decoder takes them
        with pytest.raises(lang.LexError) as e:
            lang.tokenize(src)
        assert (e.value.line, e.value.col, e.value.char) == (1, col, char)

    def test_eof_after_trailing_comment_sits_at_the_comment(self):
        for src, where in (("x\n  ab // tail", (2, 6)), ("x  ", (1, 4)), ("// only", (1, 1))):
            eof = lang.tokenize(src)[-1]
            assert (eof.kind, eof.line, eof.col) == ("eof", *where)

    def test_number_edges(self):
        toks = lang.tokenize("1. 2e 3e+ 4.5e 6e-7")
        assert [(t.kind, t.lexeme) for t in toks[:-1]] == [
            ("int", "1"), (".", "."), ("int", "2"), ("ident", "e"), ("int", "3"), ("ident", "e"), ("+", "+"),
            ("float", "4.5"), ("ident", "e"), ("float", "6e-7"),
        ]


class TestParse:
    def parse(self, src):
        return lang.parse_program(lang.tokenize(src))

    def test_bare_expression_program(self):
        root, decls = self.parse("42")
        assert root == lang.Literal(42) and decls == []

    def test_fact_program_shape(self):
        root, decls = self.parse(FACT_SRC)
        assert root == lang.Ident("fact")
        kinds = [d[0] for d in decls]
        assert kinds == ["dim", "def"]

    def test_missing_else(self):
        with pytest.raises(lang.ParseError) as e:
            self.parse("if 1 then 2")
        assert "else" in str(e.value)

    def test_precedence_arithmetic_over_comparison(self):
        root, _ = self.parse("1 + 2 * 3 < 4 - 1")
        assert isinstance(root, lang.Binary) and root.op == "<"
        assert root.left == lang.Binary("+", lang.Literal(1), lang.Binary("*", lang.Literal(2), lang.Literal(3)))

    def test_logical_is_loosest(self):
        root, _ = self.parse("1 < 2 && 3 < 4 || 5 < 6")
        assert root.op == "||" and root.left.op == "&&"

    def test_left_associativity(self):
        root, _ = self.parse("10 - 3 - 2")
        assert root == lang.Binary("-", lang.Binary("-", lang.Literal(10), lang.Literal(3)), lang.Literal(2))

    def test_at_binds_on_primary(self):
        # E @.d T: tag operand is a primary, whole form is postfix-level
        _, decls = self.parse("x where dimension d; x = 1 + y @.d 2; y = #.d; end")
        x_body = next(d[2] for d in decls if d[0] == "def" and d[1] == "x")
        assert isinstance(x_body, lang.Binary) and x_body.op == "+"
        assert isinstance(x_body.right, lang.At)

    def test_unary_minus_folds_literals(self):
        root, _ = self.parse("-5")
        assert root == lang.Literal(-5)
        root, _ = self.parse("-x where x = 1; end")
        assert root == lang.Binary("-", lang.Literal(0), lang.Ident("x"))

    def test_call_arguments(self):
        root, _ = self.parse("call add2(1, 2 + 3)")
        assert isinstance(root, lang.Call)
        assert root.proc == "add2" and len(root.args) == 2

    def test_dimension_list(self):
        _, decls = self.parse("1 where dimension d, e; end")
        assert decls == [("dim", "d"), ("dim", "e")]

    def test_trailing_garbage_rejected(self):
        with pytest.raises(lang.ParseError):
            self.parse("1 2")

    @pytest.mark.parametrize(
        "src, where, expected",
        [(")", (1, 1), "an expression"), ("x where 1; end", (1, 9), "a declaration or 'end'")],
        ids=["no-expression", "no-declaration"],
    )
    def test_parse_error_position(self, src, where, expected):
        with pytest.raises(lang.ParseError) as e:
            self.parse(src)
        assert (e.value.line, e.value.col) == where and e.value.expected == expected


class TestLiteralRanges:
    """A literal must fit its wire kind: a 64-bit Int or a finite Float."""

    def parse(self, src):
        return lang.parse_program(lang.tokenize(src))[0]

    def test_int64_bounds(self):
        assert self.parse("9223372036854775807") == lang.Literal(INT64_MAX)
        assert self.parse("-9223372036854775808") == lang.Literal(INT64_MIN)
        assert self.parse("(-9223372036854775808)") == lang.Literal(INT64_MIN)
        assert self.parse("- -9223372036854775808") == lang.Literal(INT64_MIN)  # wraps, as arithmetic does

    @pytest.mark.parametrize(
        "src, col",
        [
            ("9223372036854775808", 1),
            ("x where x = 9223372036854775808; y = x + 0; end", 13),
            ("1 - 9223372036854775808", 5),
            ("-(9223372036854775808)", 3),
            ("x where dimension d; x = -9223372036854775808 @.d 1; end", 27),
            ("18446744073709551616", 1),
            pytest.param("9" * 5000, 1, id="5000-digits"),  # past int()'s digit limit
        ],
    )
    def test_int_past_64_bits(self, src, col):
        with pytest.raises(lang.ParseError) as e:
            lang.compile_source(src, "p")
        assert (e.value.line, e.value.col) == (1, col) and "64 bits" in str(e.value)

    def test_leading_zeros(self):
        assert self.parse("0" * 5000 + "7") == lang.Literal(7)

    @pytest.mark.parametrize("src, col", [("1e999", 1), ("-1e999", 2), ("x where x = 1.5E+400; end", 13)])
    def test_float_not_finite(self, src, col):
        with pytest.raises(lang.ParseError) as e:
            lang.compile_source(src, "p")
        assert (e.value.line, e.value.col) == (1, col) and "finite" in str(e.value)

    def test_float_underflow_is_zero(self):
        assert self.parse("1e-999") == lang.Literal(0.0)


class TestAnalyze:
    def test_fact_geer(self):
        geer = lang.compile_source(FACT_SRC, "facts")
        assert geer.dimensions == frozenset({"d"})
        assert set(geer.dictionary) == {"fact"}
        assert geer.program_id == "facts"

    def test_undefined_identifier(self):
        with pytest.raises(lang.UndefinedIdentifier):
            lang.compile_source("x where y = 1; end", "p")

    def test_undeclared_dimension(self):
        with pytest.raises(lang.UndeclaredDimension):
            lang.compile_source("#.q", "p")
        with pytest.raises(lang.UndeclaredDimension):
            lang.compile_source("x where x = 1 @.q 2; end", "p")

    def test_non_ascii_dimension_refused_at_compile_time(self):
        with pytest.raises(lang.LexError) as e:
            lang.compile_source("x where dimension é; x = #.é; end", "p")
        assert (e.value.col, e.value.char) == (19, "é")

    def test_duplicate_definition(self):
        with pytest.raises(lang.DuplicateDefinition):
            lang.compile_source("x where x = 1; x = 2; end", "p")
        with pytest.raises(lang.DuplicateDefinition):
            lang.compile_source("1 where dimension d; dimension d; end", "p")

    def test_digest_ignores_whitespace_and_comments(self):
        a = lang.compile_source("1 + 2", "p")
        b = lang.compile_source("1   +   2 // same tokens", "p")
        c = lang.compile_source("1 + 3", "p")
        assert a.source_digest == b.source_digest
        assert a.source_digest != c.source_digest


class TestPretty:
    def test_roundtrip_fact(self):
        geer = lang.compile_source(FACT_SRC, "facts")
        again = lang.compile_source(lang.pretty_program(geer), "facts")
        assert again.dictionary == geer.dictionary
        assert again.root_expr == geer.root_expr
        assert again.dimensions == geer.dimensions

    def test_roundtrip_random_programs(self):
        import helpers

        rng = random.Random(7)
        for i in range(60):
            geer = helpers.gen_program(rng, i, max_depth=6)
            again = lang.compile_source(lang.pretty_program(geer), geer.program_id)
            assert again.dictionary == geer.dictionary, lang.pretty_program(geer)
            assert again.root_expr == geer.root_expr

    def test_analyze_idempotent_on_pretty_source(self):
        geer = lang.compile_source(FACT_SRC, "facts")
        again = lang.compile_source(lang.pretty_program(geer), "facts")
        third = lang.compile_source(lang.pretty_program(again), "facts")
        assert set(third.dictionary) == set(geer.dictionary)
        assert third.dimensions == geer.dimensions
        assert third.source_digest == again.source_digest

    @pytest.mark.parametrize("value", [-5, -2.5, INT64_MIN])
    def test_negative_literal_under_at_roundtrips(self, value):
        for node in (lang.At(lang.Literal(value), "d", lang.Literal(1)),
                     lang.At(lang.Ident("x"), "d", lang.Literal(value))):
            src = f"y where dimension d; x = 1; y = {lang.pretty(node)}; end"
            assert lang.compile_source(src, "p").dictionary["y"] == node

    def test_negative_tag_parenthesized(self):
        src = "x where dimension d; x = 1 @.d (0 - 2); end"
        geer = lang.compile_source(src, "p")
        again = lang.compile_source(lang.pretty_program(geer), "p")
        assert again.dictionary == geer.dictionary
