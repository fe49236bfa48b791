"""Sparse multivariate polynomials over named variables.

A polynomial is stored as a mapping from exponent tuples to float
coefficients, together with an ordered tuple of variable names that fixes
the meaning of each exponent slot.  All arithmetic returns fully expanded
normal forms; coefficients whose magnitude falls below ``COEFF_CLEANUP``
after an operation are dropped so that floating-point dust never
accumulates.  A NaN or infinite coefficient raises ValueError.

Monomials are ordered graded-lexicographically (total degree first, then
lexicographic with earlier variables dominating), which makes every basis
enumeration and rendered string deterministic across runs.
"""

from __future__ import annotations

import math
import re
from itertools import combinations_with_replacement
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

# Exponent tuple: entry i is the power of the i-th ambient variable.
Exponent = Tuple[int, ...]

# Coefficients below this magnitude are discarded after arithmetic.  Small
# enough not to touch problem-scale coefficients (~1e-4), large enough to
# absorb cancellation noise.
COEFF_CLEANUP = 1e-14

# Guard against runaway exponents in parsed input.
MAX_EXPONENT = 64


class ParseError(ValueError):
    """Raised for malformed polynomial expressions; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def grlex_key(alpha: Exponent) -> tuple:
    """Sort key for graded lexicographic order (1, x, y, x^2, x*y, y^2, ...)."""
    return (sum(alpha), tuple(-a for a in alpha))


class Polynomial:
    """Immutable sparse polynomial over an ordered variable list.

    Instances should be treated as frozen: arithmetic always builds new
    objects and never mutates ``terms`` in place, so values are safe to
    share between threads.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, float]):
        vars_t = tuple(variables)
        nv = len(vars_t)
        clean: Dict[Exponent, float] = {}
        for alpha, coeff in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != nv:
                raise ValueError(
                    f"exponent {alpha} has length {len(alpha)}, expected {nv}"
                )
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            c = float(coeff)
            if not math.isfinite(c):
                raise ValueError(f"coefficient {c} of {alpha} not finite")
            if abs(c) > COEFF_CLEANUP:
                clean[alpha] = clean.get(alpha, 0.0) + c
        self.variables = vars_t
        self.terms = {a: c for a, c in clean.items() if abs(c) > COEFF_CLEANUP}

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: float) -> "Polynomial":
        return cls(variables, {(0,) * len(tuple(variables)): float(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        vars_t = tuple(variables)
        if name not in vars_t:
            raise ValueError(f"unknown variable {name!r}")
        alpha = [0] * len(vars_t)
        alpha[vars_t.index(name)] = 1
        return cls(vars_t, {tuple(alpha): 1.0})

    @classmethod
    def monomial(
        cls, variables: Sequence[str], alpha: Exponent, coeff: float = 1.0
    ) -> "Polynomial":
        return cls(variables, {tuple(alpha): coeff})

    # ------------------------------------------------------------------
    # basic queries

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, alpha: Exponent) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def constant_term(self) -> float:
        return self.terms.get((0,) * len(self.variables), 0.0)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    # ------------------------------------------------------------------
    # arithmetic

    def _check_same_vars(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.variables, other)
        self._check_same_vars(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out.get(alpha, 0.0) + c
        return Polynomial(self.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            return Polynomial(
                self.variables, {a: c * other for a, c in self.terms.items()}
            )
        self._check_same_vars(other)
        out: Dict[Exponent, float] = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                alpha = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
                out[alpha] = out.get(alpha, 0.0) + c1 * c2
        return Polynomial(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self.variables, 1.0)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def allclose(self, other: "Polynomial", tol: float = 1e-9) -> bool:
        """True when coefficients agree within ``tol`` (same variables)."""
        if self.variables != other.variables:
            return False
        for alpha in set(self.terms) | set(other.terms):
            if abs(self.terms.get(alpha, 0.0) - other.terms.get(alpha, 0.0)) > tol:
                return False
        return True

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, point: Sequence[float]) -> float:
        """Evaluate at one point by direct monomial summation."""
        if len(point) != len(self.variables):
            raise ValueError(
                f"point of length {len(point)} for {len(self.variables)} variables"
            )
        return float(self.evaluate_broadcast([np.float64(v) for v in point]))

    def evaluate_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an (N, num_vars) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != len(self.variables):
            raise ValueError(
                f"expected (N, {len(self.variables)}) array, got {pts.shape}"
            )
        return self.evaluate_broadcast(list(pts.T))

    def evaluate_broadcast(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate with one (broadcastable) array per variable."""
        if len(arrays) != len(self.variables):
            raise ValueError("one array per variable required")
        total = None
        for alpha, coeff in self.terms.items():
            term = np.asarray(coeff, dtype=float)
            for arr, e in zip(arrays, alpha):
                if e:
                    term = term * arr**e
            total = term if total is None else total + term
        if total is None:
            shape = np.broadcast_shapes(*(np.shape(a) for a in arrays)) if arrays else ()
            return np.zeros(shape)
        return np.broadcast_to(total, np.broadcast_shapes(
            total.shape, *(np.shape(a) for a in arrays))).copy()

    # ------------------------------------------------------------------
    # structural operations

    def in_variables(self, variables: Sequence[str]) -> "Polynomial":
        """Re-express over a superset / reordering of the variable list."""
        new_vars = tuple(variables)
        positions = []
        for i, name in enumerate(self.variables):
            if name in new_vars:
                positions.append(new_vars.index(name))
            else:
                positions.append(-1)
        out: Dict[Exponent, float] = {}
        for alpha, coeff in self.terms.items():
            beta = [0] * len(new_vars)
            for name, e, pos in zip(self.variables, alpha, positions):
                if e and pos < 0:
                    raise ValueError(f"variable {name!r} not present in target list")
                if e:
                    beta[pos] = e
            key = tuple(beta)
            out[key] = out.get(key, 0.0) + coeff
        return Polynomial(new_vars, out)

    def scaled(self, factors: Sequence[float]) -> "Polynomial":
        """The polynomial of the stretched variables z_i = c_i w_i.

        Each coefficient is multiplied by prod_i c_i^alpha_i, variable by
        variable, with every power a product from 1.0 as ``**`` forms it.
        """
        factors = tuple(float(c) for c in factors)
        if len(factors) != len(self.variables):
            raise ValueError("one factor per variable required")
        out: Dict[Exponent, float] = {}
        for alpha, coeff in self.terms.items():
            for c, e in zip(factors, alpha):
                coeff *= math.prod([c] * e)
            out[alpha] = coeff
        return Polynomial(self.variables, out)

    # ------------------------------------------------------------------
    # rendering

    def render(self) -> str:
        """Canonical text form, graded-lex term order; parses back exactly."""
        if not self.terms:
            return "0"
        pieces = []
        for alpha, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.variables, alpha):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            mag = repr(abs(coeff))
            body = f"{mag}*{mono}" if mono else mag
            if not pieces:
                pieces.append(body if coeff >= 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff >= 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.variables)}, {self.render()})"


# ----------------------------------------------------------------------
# monomial bases


class MonomialBasis:
    """All monomials of total degree <= max_degree, graded-lex ordered."""

    __slots__ = ("num_vars", "max_degree", "monomials", "_index")

    def __init__(self, num_vars: int, max_degree: int, monomials: Iterable[Exponent]):
        self.num_vars = num_vars
        self.max_degree = max_degree
        self.monomials = tuple(tuple(a) for a in monomials)
        self._index = {a: i for i, a in enumerate(self.monomials)}

    def __len__(self) -> int:
        return len(self.monomials)

    def index(self, alpha: Exponent) -> int:
        return self._index[tuple(alpha)]

    def __contains__(self, alpha: Exponent) -> bool:
        return tuple(alpha) in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialBasis):
            return NotImplemented
        return self.monomials == other.monomials

    def __repr__(self) -> str:
        return (
            f"MonomialBasis(num_vars={self.num_vars}, "
            f"max_degree={self.max_degree}, size={len(self)})"
        )


def monomial_basis(num_vars: int, max_degree: int) -> MonomialBasis:
    """Enumerate N^num_vars restricted to total degree <= max_degree."""
    if num_vars < 0 or max_degree < 0:
        raise ValueError("num_vars and max_degree must be nonnegative")
    monos = []
    for d in range(max_degree + 1):
        block = []
        for combo in combinations_with_replacement(range(num_vars), d):
            alpha = [0] * num_vars
            for idx in combo:
                alpha[idx] += 1
            block.append(tuple(alpha))
        block.sort(key=grlex_key)
        monos.extend(block)
    if num_vars == 0:
        monos = [()]
    assert len(monos) == math.comb(num_vars + max_degree, max_degree)
    return MonomialBasis(num_vars, max_degree, tuple(monos))


# ----------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar.

    Grammar: sums/differences of terms, terms are products/quotients of
    signed factors, factors are numbers, variables or parenthesized
    expressions with an optional nonnegative integer '^' power.  Division
    is only allowed by subexpressions that reduce to a nonzero constant.
    """

    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)
        return self.advance()

    @staticmethod
    def arith(at: int, fn, *args) -> Polynomial:
        """fn(*args), with an overflow to a non-finite coefficient reported
        as a ParseError at the operator's position ``at``."""
        try:
            return fn(*args)
        except ValueError as err:
            raise ParseError(f"arithmetic overflow: {err}", at) from err

    def parse(self) -> Polynomial:
        poly = self.parse_expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", at)
        return poly

    def parse_expr(self) -> Polynomial:
        poly = self.parse_term()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                op = Polynomial.__add__ if val == "+" else Polynomial.__sub__
                poly = self.arith(at, op, poly, rhs)
            else:
                return poly

    def parse_term(self) -> Polynomial:
        poly = self.parse_factor()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.parse_factor()
                if val == "*":
                    poly = self.arith(at, Polynomial.__mul__, poly, rhs)
                else:
                    if rhs.degree > 0:
                        raise ParseError("division only by constants", at)
                    denom = rhs.constant_term()
                    if denom == 0.0:
                        raise ParseError("division by zero", at)
                    poly = self.arith(at, Polynomial.__mul__, poly, 1.0 / denom)
            else:
                return poly

    def parse_factor(self) -> Polynomial:
        kind, val, at = self.peek()
        start, sign = at, 1.0
        while kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            self.advance()
            kind, val, at = self.peek()
        base = self.parse_atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            caret = at
            self.advance()
            kind, val, at = self.peek()
            if kind != "num" or not val.isdigit():
                raise ParseError("exponent must be a nonnegative integer", at)
            exponent = int(val)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent overflow (> {MAX_EXPONENT})", at)
            self.advance()
            base = self.arith(caret, Polynomial.__pow__, base, exponent)
        return self.arith(start, Polynomial.__mul__, base, sign)

    def parse_atom(self) -> Polynomial:
        kind, val, at = self.advance()
        if kind == "num":
            if math.isinf(float(val)):
                raise ParseError(f"number {val} out of range", at)
            return Polynomial.constant(self.variables, float(val))
        if kind == "ident":
            if val not in self.variables:
                raise ParseError(f"unknown identifier {val!r}", at)
            return Polynomial.variable(self.variables, val)
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end", at)


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression string into expanded normal form.

    Raises ParseError (with position) on syntax problems, unknown
    identifiers, exponent overflow, a number too large for a float or
    arithmetic whose coefficients overflow.
    """
    return _Parser(text, variables).parse()
