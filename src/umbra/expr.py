"""Text front-end: parse series/polynomial expressions into exact Series.

Grammar (single-token lookahead recursive descent):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | power
    power    := base ('^' exponent)?
    base     := rational | 'x' | 'D' | '(' expr ')' | func '(' expr ')'
    exponent := ['-'] integer | '(' rational ')'
    rational := ['-'] integer ('/' positive-integer)?
    func     := 'exp' | 'log' | 'sqrt'

Precedence: '^' > unary minus > '*','/' > '+','-'; '^' is right-associative
on its single literal exponent.  Division follows operator-division
semantics: when the divisor has positive order k the quotient is computed by
cancelling the shared x^k factor (so "D/(exp(D)-1)" works), and "1/D" is a
DivisionOrderError.  A tree deeper than MAX_DEPTH, or more than MAX_DEPTH
brackets, calls and unary minuses around one token, is a ParseError.  An
integer power that could grow a coefficient by more than MAX_POWER_BITS bits
is refused before it is computed, and so is an exponent above MAX_EXPONENT;
any other node whose value has a numerator or denominator too long to print
in MAX_STR_DIGITS digits is refused as soon as it is computed, and an integer
literal longer than MAX_STR_DIGITS digits as soon as it is read.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from .errors import (
    NotInvertible,
    ParseError,
    Record,
    RouteDisagreement,
    TruncationError,
    UmbraError,
)
from ._kernel import convolve
from .fps import Poly, Series, _binary_power, exp_series, log_series, mul_inv, poly, pow_rat, quotient, series
from .rational import rat_str

_FUNCTIONS = ("exp", "log", "sqrt")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Node(Record):
    __slots__ = ("pos",)
    pos: int

    def __init__(self, pos: int):
        object.__setattr__(self, "pos", pos)


class Num(Node):
    __slots__ = ("value",)
    value: Fraction

    def __init__(self, pos: int, value: Fraction):
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "value", value)


class Var(Node):
    __slots__ = ("name",)
    name: str

    def __init__(self, pos: int, name: str):
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "name", name)


class Neg(Node):
    __slots__ = ("child",)
    child: Node

    def __init__(self, pos: int, child: Node):
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "child", child)


class BinOp(Node):
    __slots__ = ("op", "left", "right")
    op: str
    left: Node
    right: Node

    def __init__(self, pos: int, op: str, left: Node, right: Node):
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Pow(Node):
    """base ^ exponent; pos is the offset of the '^' token."""

    __slots__ = ("base", "exponent")
    base: Node
    exponent: Fraction

    def __init__(self, pos: int, base: Node, exponent: Fraction):
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class Call(Node):
    __slots__ = ("func", "arg")
    func: str
    arg: Node

    def __init__(self, pos: int, func: str, arg: Node):
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)


def _start(node: Node) -> int:
    """Offset of a node's first token, the pos of a BinOp over it."""
    return _start(node.base) if isinstance(node, Pow) else node.pos


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_SYMBOLS = "+-*/^()"


class Token(Record):
    __slots__ = ("kind", "text", "pos")
    kind: str  # 'int' | 'name' | symbol | 'end'
    text: str
    pos: int

    def __init__(self, kind: str, text: str, pos: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "pos", pos)


def _tokenize(text: str) -> list[Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > MAX_STR_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_STR_DIGITS} digits", i)
            out.append(Token("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            out.append(Token("name", text[i:j], i))
            i = j
            continue
        if c in _SYMBOLS:
            out.append(Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    out.append(Token("end", "", n))
    return out


def _literal(text: str) -> int:
    """int(text) read 640 digits at a time, the smallest int-string limit the
    interpreter allows, so a literal of up to MAX_STR_DIGITS digits reads
    whatever limit the caller has set."""
    value = 0
    for i in range(0, len(text), 640):
        chunk = text[i : i + 640]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# Deepest syntax tree, and most brackets, calls and unary minuses around one
# token, that an expression may have: parsing and evaluation both recurse.
MAX_DEPTH = 100


class _Parser:
    """Each rule returns (node, height of its tree); ``open`` counts the
    brackets, calls and unary minuses being parsed.  Both stay at most
    MAX_DEPTH, so neither the parser nor the evaluator recurses deeper."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos, (kind,))
        return self.advance()

    def bounded(self, height: int, tok: Token) -> int:
        if max(height, self.open) > MAX_DEPTH:
            raise ParseError(f"expression nested more than {MAX_DEPTH} deep", tok.pos)
        return height

    @contextmanager
    def nested(self, tok: Token):
        self.open += 1
        self.bounded(0, tok)
        yield
        self.open -= 1

    def parse(self) -> Node:
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos, ("end of input",))
        return node

    def expr(self) -> tuple[Node, int]:
        node, height = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs, h = self.term()
            node, height = BinOp(_start(node), op.kind, node, rhs), self.bounded(max(height, h) + 1, op)
        return node, height

    def term(self) -> tuple[Node, int]:
        node, height = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs, h = self.factor()
            node, height = BinOp(_start(node), op.kind, node, rhs), self.bounded(max(height, h) + 1, op)
        return node, height

    def factor(self) -> tuple[Node, int]:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            with self.nested(tok):
                child, height = self.factor()
            return Neg(tok.pos, child), self.bounded(height + 1, tok)
        return self.power()

    def power(self) -> tuple[Node, int]:
        base, height = self.base()
        tok = self.peek()
        if tok.kind == "^":
            self.advance()
            exponent = self.exponent()
            return Pow(tok.pos, base, exponent), self.bounded(height + 1, tok)
        return base, height

    def exponent(self) -> Fraction:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            value = self.rational()
            self.expect(")")
            return value
        return self.rational(integer_only=True)

    def rational(self, integer_only: bool = False) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        num = _literal(self.expect("int").text)
        if not integer_only and self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("int")
            den = _literal(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator", den_tok.pos)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def base(self) -> tuple[Node, int]:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            # rational literal: integer '/' positive-integer (greedy, per the
            # grammar; "3/2^2" is therefore (3/2)^2, while "x/2^2" is x/(2^2))
            if self.peek().kind == "/" and self.tokens[self.i + 1].kind == "int":
                self.advance()
                den_tok = self.advance()
                den = _literal(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.pos)
                return Num(tok.pos, Fraction(_literal(tok.text), den)), 1
            return Num(tok.pos, Fraction(_literal(tok.text))), 1
        if tok.kind == "name":
            self.advance()
            if tok.text in ("x", "D"):
                return Var(tok.pos, tok.text), 1
            if tok.text in _FUNCTIONS:
                self.expect("(")
                with self.nested(tok):
                    arg, height = self.expr()
                self.expect(")")
                return Call(tok.pos, tok.text, arg), self.bounded(height + 1, tok)
            raise ParseError(
                f"unknown name {tok.text!r}", tok.pos, ("x", "D") + _FUNCTIONS
            )
        if tok.kind == "(":
            self.advance()
            with self.nested(tok):
                node, height = self.expr()
            self.expect(")")
            return node, height
        raise ParseError(
            f"unexpected token {tok.text or 'end of input'!r}",
            tok.pos,
            ("number", "x", "D", "("),
        )


def parse(text: str) -> Node:
    """Parse an expression; raises ParseError with a byte offset on bad input."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# rendering (parse . render . parse is a fixpoint)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def render(node: Node) -> str:
    text, _ = _render(node)
    return text


def _render(node: Node) -> tuple[str, int]:
    if isinstance(node, Num):
        s = rat_str(node.value)
        return (s, _PREC["atom"] if node.value >= 0 and node.value.denominator == 1 else _PREC["/"])
    if isinstance(node, Var):
        return node.name, _PREC["atom"]
    if isinstance(node, Call):
        inner, _ = _render(node.arg)
        return f"{node.func}({inner})", _PREC["atom"]
    if isinstance(node, Neg):
        inner, prec = _render(node.child)
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    if isinstance(node, Pow):
        inner, prec = _render(node.base)
        if prec < _PREC["atom"]:
            inner = f"({inner})"
        e = node.exponent
        etext = str(e.numerator) if e.denominator == 1 and e >= 0 else f"({rat_str(e)})"
        return f"{inner}^{etext}", _PREC["^"]
    if isinstance(node, BinOp):
        lt, lp = _render(node.left)
        rt, rp = _render(node.right)
        prec = _PREC[node.op]
        if lp < prec:
            lt = f"({lt})"
        # left-associative: parenthesize right operand at equal precedence
        if rp < prec or (rp == prec and node.op in ("-", "/", "+", "*")):
            rt = f"({rt})"
        return f"{lt}{node.op}{rt}", prec
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@contextmanager
def _at(pos: int):
    """Append the source offset to an input error raised in the block; a route
    disagreement passes through unchanged, it carries its own counterexample."""
    try:
        yield
    except RouteDisagreement:
        raise
    except UmbraError as exc:
        raise type(exc)(f"{exc} (at offset {pos})") from exc


MAX_POWER_BITS = 1 << 16
MAX_EXPONENT = 1 << 20
# a b-bit integer has under 0.302 b + 1 digits: room for the binomial growth past a power's bound
MAX_STR_DIGITS = MAX_POWER_BITS // 3
# log2(10) > 3.321, so an integer up to 2^MAX_VALUE_BITS prints in MAX_STR_DIGITS digits
MAX_VALUE_BITS = MAX_STR_DIGITS * 3321 // 1000


def _bits(f: Series | Poly) -> int:
    """Largest ceil(log2 |v|) over the numerators and denominators v of f, so
    each |v| <= 2^bits: the bits each unit of k adds to f^k (none for
    coefficients +-1, whose powers grow by binomials only; MAX_EXPONENT bounds
    those)."""
    parts = [v for c in f.coeffs if c for v in (c.numerator, c.denominator)]
    return max(((abs(v) - 1).bit_length() for v in parts), default=0)


# A node's value is a Poly cut at x^trunc while every node under it is a number,
# x, a sum, difference or product, an integer power k >= 0, or a division by a
# nonzero constant; a polynomial then costs its degree, not trunc.  Any other
# node is a Series, and a Poly that meets one becomes a Series at trunc first.


def _dense(f: Series | Poly, trunc: int) -> Series:
    return f if isinstance(f, Series) else series(f.coeffs, trunc)


def _times(f: Poly, g: Poly, trunc: int) -> Poly:
    return poly(convolve(f.coeffs, g.coeffs, min(trunc, len(f.coeffs) + len(g.coeffs) - 2)))


def _power(f: Series | Poly, k: int, trunc: int) -> Series | Poly:
    if isinstance(f, Series):
        return f**k
    return _binary_power(f, k, poly([1]), lambda a, b: _times(a, b, trunc))


def _eval(node: Node, trunc: int) -> Series | Poly:
    """Evaluate one node; refuse a value that would not print in MAX_STR_DIGITS digits."""
    value = _eval_node(node, trunc)
    if _bits(value) > MAX_VALUE_BITS:
        with _at(node.pos):
            raise UmbraError(f"a coefficient would exceed {MAX_STR_DIGITS} digits")
    return value


def _eval_node(node: Node, trunc: int) -> Series | Poly:
    if isinstance(node, Num):
        return poly([node.value])
    if isinstance(node, Var):
        return poly([0, 1][: trunc + 1])
    if isinstance(node, Neg):
        return -_eval(node.child, trunc)
    if isinstance(node, Call):
        arg = _dense(_eval(node.arg, trunc), trunc)
        with _at(node.pos):
            if node.func == "exp":
                return exp_series(arg)
            if node.func == "log":
                return log_series(arg)
            return pow_rat(arg, Fraction(1, 2))
    if isinstance(node, Pow):
        base = _eval(node.base, trunc)
        e = node.exponent
        with _at(node.pos):
            if e.denominator == 1:
                k = int(e)
                if abs(k) * _bits(base) > MAX_POWER_BITS:
                    raise UmbraError(f"power ^{k} would grow a coefficient past {MAX_POWER_BITS} bits")
                if abs(k) > MAX_EXPONENT:
                    raise UmbraError(f"power ^{k} has an exponent above {MAX_EXPONENT}")
                if k >= 0:
                    return _power(base, k, trunc)
                if base[0] == 0:
                    raise NotInvertible("negative power of a series with zero constant term")
                return mul_inv(_dense(_power(base, -k, trunc), trunc))
            return pow_rat(_dense(base, trunc), e)
    if isinstance(node, BinOp):
        left = _eval(node.left, trunc)
        right = _eval(node.right, trunc)
        with _at(node.pos):
            if node.op == "/" and not (isinstance(right, Poly) and right.degree() == 0):
                return quotient(_dense(left, trunc), _dense(right, trunc))
            if isinstance(left, Series) or isinstance(right, Series):
                left, right = _dense(left, trunc), _dense(right, trunc)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "/":
                return left / right[0]
            return left * right if isinstance(left, Series) else _times(left, right, trunc)
    raise TypeError(f"unknown node {node!r}")


def eval_ast(node: Node, order: int) -> Series:
    """Evaluate to an exact Series at truncation ``order``.

    Operator division shifts away shared x^k factors, which costs truncation
    depth; evaluation transparently retries at a deeper working order until
    the requested order is delivered.
    """
    if order < 0:
        raise TruncationError("order must be >= 0")
    working = order
    last_exc: UmbraError | None = None
    for _ in range(8):
        try:
            result = _dense(_eval(node, working), working)
        except NotInvertible as exc:
            # a divisor can look like the zero series purely because the
            # working order is shallow; deepen and retry before giving up
            last_exc = exc
            working += order + 1
            continue
        if result.trunc >= order:
            return result.truncate(order)
        working += order - result.trunc
    if last_exc is not None:
        raise last_exc
    raise TruncationError("expression loses too much truncation depth to evaluate")


def eval_expr(text: str, order: int) -> Series:
    return eval_ast(parse(text), order)
