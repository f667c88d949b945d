"""Mini intensional language: lexer, parser, analyzer, pretty-printer.

A program is one expression, optionally followed by a ``where`` block that
declares dimensions and defines identifiers:

    fact where
        dimension d;
        fact = if #.d == 0 then 1 else #.d * (fact @.d (#.d - 1));
    end

Grammar (binding loosest to tightest; all binary operators left-associative):

    program  := expr [ "where" decl* "end" ]
    decl     := "dimension" ident ("," ident)* ";"
              | ident "=" expr ";"
    expr     := or
    or       := and  ("||" and)*
    and      := cmp  ("&&" cmp)*
    cmp      := add  (("=="|"!="|"<"|"<="|">"|">=") add)*
    add      := mul  (("+"|"-") mul)*
    mul      := unary (("*"|"/"|"%") unary)*
    unary    := "-" unary | postfix
    postfix  := primary ("@" "." ident primary)*
    primary  := INT | FLOAT | ident | "(" expr ")" | "#" "." ident
              | "if" expr "then" expr "else" expr
              | "call" ident "(" [expr ("," expr)*] ")"

``E @.d T`` navigates: evaluate E with dimension d overridden to tag T;
the tag operand is a primary, so composite tags take parentheses.
``#.d`` reads the current tag of d.  Unary minus on a literal folds into a
negative literal; on anything else it becomes ``0 - operand``.

Integers are 64-bit two's complement: arithmetic wraps, division truncates
toward zero, and ``%`` takes the sign of the dividend.  There are no string
or boolean literals; booleans arise only from comparisons.

Source is ASCII outside ``//`` comments.  An identifier is a letter or
``_`` followed by letters, digits and ``_`` (``model.IDENTIFIER``, the rule
contexts and the wire decoders check names against too); any other
character is a ``LexError``.  A literal must fit its wire kind, else it is a
``ParseError``: an INT is at most 2**63 - 1 (``-9223372036854775808``
folds its minus first), and a FLOAT is finite.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Tuple, Union

from .errors import EductionError
from .model import IDENTIFIER, INT64_MAX, Value, wrap64

KEYWORDS = frozenset({"where", "end", "dimension", "if", "then", "else", "call"})

# Binary operators in canonical order; the index doubles as the wire op code.
BINARY_OPS = ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||")

# One scan of the source; the first alternative that matches wins.  All of it
# is ASCII, so a non-ASCII letter or digit outside a comment is a LexError.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>//[^\n]*)"
    r"|(?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))|(?P<int>[0-9]+)"
    rf"|(?P<ident>{IDENTIFIER})|(?P<op>==|!=|<=|>=|&&|\|\||[-+*/%<>@#.,;()=])|(?P<bad>.)"
)


class LexError(EductionError):
    def __init__(self, line: int, col: int, char: str):
        super().__init__(f"unexpected character {char!r} at {line}:{col}")
        self.line, self.col, self.char = line, col, char


class ParseError(EductionError):
    def __init__(self, line: int, col: int, expected: str, found: str = ""):
        msg = f"expected {expected} at {line}:{col}"
        if found:
            msg += f", found {found}"
        super().__init__(msg)
        self.line, self.col, self.expected = line, col, expected


class UndefinedIdentifier(EductionError):
    pass


class DuplicateDefinition(EductionError):
    pass


class UndeclaredDimension(EductionError):
    pass


class MalformedGeer(EductionError):
    pass


class Token(NamedTuple):
    kind: str  # "int" | "float" | "ident" | keyword | operator lexeme | "eof"
    lexeme: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start, m = 1, 0, None
    for m in _TOKEN_RE.finditer(source):
        kind, lex, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise LexError(line, col, lex)
        elif kind not in ("blank", "comment"):
            toks.append(Token(lex if kind == "op" or lex in KEYWORDS else kind, lex, line, col))
    # a trailing comment leaves the end of input where the comment starts
    end = m.start() if m is not None and m.lastgroup == "comment" else len(source)
    toks.append(Token("eof", "", line, end - line_start + 1))
    return toks


# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: Value


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Binary:
    op: str
    left: "AstNode"
    right: "AstNode"


@dataclass(frozen=True)
class If:
    cond: "AstNode"
    then_expr: "AstNode"
    else_expr: "AstNode"


@dataclass(frozen=True)
class At:
    expr: "AstNode"
    dim: str
    tag_expr: "AstNode"


@dataclass(frozen=True)
class HashDim:
    dim: str


@dataclass(frozen=True)
class Call:
    proc: str
    args: Tuple["AstNode", ...]


AstNode = Union[Literal, Ident, Binary, If, At, HashDim, Call]

# declaration: ("dim", name) or ("def", name, expr), order preserved
Declaration = tuple


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.toks = tokens
        self.pos = 0
        self.negated = -1  # index of the token just after the latest unary minus

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(t.line, t.col, repr(kind), repr(t.lexeme or "end of input"))
        return self.advance()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    # precedence climb, loosest first
    def expr(self) -> AstNode:
        return self._binary(0)

    _LEVELS = (("||",), ("&&",), ("==", "!=", "<", "<=", ">", ">="), ("+", "-"), ("*", "/", "%"))

    def _binary(self, level: int) -> AstNode:
        if level == len(self._LEVELS):
            return self.unary()
        node = self._binary(level + 1)
        while self.peek().kind in self._LEVELS[level]:
            op = self.advance().kind
            node = Binary(op, node, self._binary(level + 1))
        return node

    def unary(self) -> AstNode:
        if self.at("-"):
            self.advance()
            self.negated = self.pos
            operand = self.unary()
            if isinstance(operand, Literal):
                return Literal(wrap64(-operand.value) if isinstance(operand.value, int) else -operand.value)
            return Binary("-", Literal(0), operand)
        return self.postfix()

    def postfix(self) -> AstNode:
        node = self.primary()
        while self.at("@"):
            self.advance()
            self.expect(".")
            dim = self.expect("ident").lexeme
            tag = self.primary()
            node = At(node, dim, tag)
        return node

    def primary(self) -> AstNode:
        t = self.peek()
        if t.kind == "int":
            self.advance()
            # 2**63 fits only as the operand of a unary minus, which folds it to INT64_MIN
            limit = INT64_MAX + (self.negated == self.pos - 1 and not self.at("@"))
            digits = t.lexeme.lstrip("0") or "0"
            if len(digits) > 19 or int(digits) > limit:
                raise ParseError(t.line, t.col, "an Int of 64 bits", repr(t.lexeme))
            return Literal(int(digits))
        if t.kind == "float":
            self.advance()
            if not math.isfinite(float(t.lexeme)):
                raise ParseError(t.line, t.col, "a finite Float", repr(t.lexeme))
            return Literal(float(t.lexeme))
        if t.kind == "ident":
            self.advance()
            return Ident(t.lexeme)
        if t.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if t.kind == "#":
            self.advance()
            self.expect(".")
            return HashDim(self.expect("ident").lexeme)
        if t.kind == "if":
            self.advance()
            cond = self.expr()
            self.expect("then")
            then_expr = self.expr()
            self.expect("else")
            return If(cond, then_expr, self.expr())
        if t.kind == "call":
            self.advance()
            proc = self.expect("ident").lexeme
            self.expect("(")
            args: list[AstNode] = []
            if not self.at(")"):
                args.append(self.expr())
                while self.at(","):
                    self.advance()
                    args.append(self.expr())
            self.expect(")")
            return Call(proc, tuple(args))
        raise ParseError(t.line, t.col, "an expression", repr(t.lexeme or "end of input"))

    def declarations(self) -> list[Declaration]:
        decls: list[Declaration] = []
        while not self.at("end"):
            t = self.peek()
            if t.kind == "dimension":
                self.advance()
                decls.append(("dim", self.expect("ident").lexeme))
                while self.at(","):
                    self.advance()
                    decls.append(("dim", self.expect("ident").lexeme))
                self.expect(";")
            elif t.kind == "ident":
                name = self.advance().lexeme
                self.expect("=")
                decls.append(("def", name, self.expr()))
                self.expect(";")
            else:
                raise ParseError(t.line, t.col, "a declaration or 'end'", repr(t.lexeme or "end of input"))
        self.expect("end")
        return decls


def parse_program(tokens: Sequence[Token]) -> tuple[AstNode, list[Declaration]]:
    p = _Parser(tokens)
    root = p.expr()
    decls: list[Declaration] = []
    if p.at("where"):
        p.advance()
        decls = p.declarations()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(t.line, t.col, "end of input", repr(t.lexeme))
    return root, decls


# --- Geer: the compiled program ----------------------------------------


@dataclass(frozen=True)
class Geer:
    """Compiled program: a dictionary of identifier ASTs plus metadata."""

    program_id: str
    dimensions: frozenset
    dictionary: dict  # name -> AstNode; treat as read-only
    root_expr: AstNode
    source_digest: bytes
    # name -> (body AST, compiled body), filled by the evaluator on a body's
    # first start; a replace() copy shares it, so each body compiles once
    compiled: dict = field(default_factory=dict, compare=False, repr=False)


def _walk(node: AstNode):
    yield node
    if isinstance(node, Binary):
        yield from _walk(node.left)
        yield from _walk(node.right)
    elif isinstance(node, If):
        yield from _walk(node.cond)
        yield from _walk(node.then_expr)
        yield from _walk(node.else_expr)
    elif isinstance(node, At):
        yield from _walk(node.expr)
        yield from _walk(node.tag_expr)
    elif isinstance(node, Call):
        for a in node.args:
            yield from _walk(a)


def token_digest(tokens: Sequence[Token]) -> bytes:
    """Digest of the token stream alone: whitespace and comments never count."""
    h = hashlib.sha256()
    for t in tokens:
        if t.kind == "eof":
            continue
        h.update(t.kind.encode())
        h.update(b":")
        h.update(t.lexeme.encode())
        h.update(b"\x00")
    return h.digest()


def check_references(root_expr: AstNode, dictionary: dict, dims) -> None:
    """Every identifier used must be defined and every dimension declared."""
    for expr in [root_expr, *dictionary.values()]:
        for node in _walk(expr):
            if isinstance(node, Ident) and node.name not in dictionary:
                raise UndefinedIdentifier(node.name)
            if isinstance(node, (HashDim, At)) and node.dim not in dims:
                raise UndeclaredDimension(node.dim)


def analyze(
    root_expr: AstNode,
    declarations: Sequence[Declaration],
    program_id: str,
    tokens: Sequence[Token],
) -> Geer:
    dims: set[str] = set()
    dictionary: dict[str, AstNode] = {}
    for decl in declarations:
        if decl[0] == "dim":
            if decl[1] in dims:
                raise DuplicateDefinition(f"dimension {decl[1]} declared twice")
            dims.add(decl[1])
        else:
            _, name, expr = decl
            if name in dictionary:
                raise DuplicateDefinition(name)
            dictionary[name] = expr

    check_references(root_expr, dictionary, dims)
    return Geer(
        program_id=program_id,
        dimensions=frozenset(dims),
        dictionary=dictionary,
        root_expr=root_expr,
        source_digest=token_digest(tokens),
    )


def compile_source(source: str, program_id: str) -> Geer:
    tokens = tokenize(source)
    root, decls = parse_program(tokens)
    return analyze(root, decls, program_id, tokens)


# --- pretty printer -----------------------------------------------------


def pretty(node: AstNode) -> str:
    """Fully parenthesized source for ``node``; reparsing yields the same AST."""
    if isinstance(node, Literal):
        v = node.value
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"no literal syntax for {v!r}")
        return repr(v)
    if isinstance(node, Ident):
        return node.name
    if isinstance(node, Binary):
        return f"({pretty(node.left)} {node.op} {pretty(node.right)})"
    if isinstance(node, If):
        return f"(if {pretty(node.cond)} then {pretty(node.then_expr)} else {pretty(node.else_expr)})"
    if isinstance(node, At):
        # a negative literal prints with a "-", which binds looser than "@"
        expr, tag = pretty(node.expr), pretty(node.tag_expr)
        if expr.startswith("-"):
            expr = f"({expr})"
        if tag.startswith("-") or not isinstance(node.tag_expr, (Literal, Ident, HashDim)):
            tag = f"({tag})"
        return f"({expr} @.{node.dim} {tag})"
    if isinstance(node, HashDim):
        return f"#.{node.dim}"
    if isinstance(node, Call):
        return f"call {node.proc}({', '.join(pretty(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


def pretty_program_parts(root_expr: AstNode, dims, dictionary) -> str:
    if not dims and not dictionary:
        return pretty(root_expr)
    lines = [pretty(root_expr), "where"]
    if dims:
        lines.append("  dimension " + ", ".join(sorted(dims)) + ";")
    for name in sorted(dictionary):
        lines.append(f"  {name} = {pretty(dictionary[name])};")
    lines.append("end")
    return "\n".join(lines)


def pretty_program(geer: Geer) -> str:
    return pretty_program_parts(geer.root_expr, geer.dimensions, geer.dictionary)
