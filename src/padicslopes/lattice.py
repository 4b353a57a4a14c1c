"""Exact integer matrix algebra over lattices.

IntMatrix, square and exact, validated by IntMatrix(rows) alone; Smith normal
form with its unimodular transforms formed on demand, elementary-divisor
profiles of finite p-power quotients L/K, and the per-column divisibility check
for xi(K) in p^n L (adapted basis, K diagonal). Outside input is read by read_json
and refused with InputError; matrices are read from its documents by
matrix_from_document, and documents written by json_text, a one-pass recursive
writer with the bytes of json.dumps(indent=2, sort_keys=True).
"""

from __future__ import annotations

import json
from collections import namedtuple
from decimal import Decimal
from functools import cached_property, lru_cache
from itertools import chain, cycle, groupby
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import add, index, itemgetter, mod, mul, sub

from .padics import _require_prime, padic_valuation


class InputError(ValueError):
    """Outside input the package refuses: a file, an argument or a config. Exit code 2."""


# the largest rank the shipped trials reach (prop_default's max_rank). Up to it, char_poly
# and IntMatrix's * and apply run code generated from the rank alone, compiled on the first
# call at each rank (once a process; a fork inherits them), never at import; above it they
# run loops, which need no compile and whose memory stays bounded for large input.
KERNEL_MAX_RANK = 8


def _entries(m: str, r: int) -> tuple:
    """(names, line): the locals {m}{i}_{j} of an r x r matrix's entries, row by row, and
    the source line that unpacks the rows of the argument m into them."""
    names = [[f"{m}{i}_{j}" for j in range(r)] for i in range(r)]
    return names, "    [" + ", ".join("[" + ", ".join(row) + "]" for row in names) + "] = " + m


def _kernel(name: str, r: int, params: str, lines) -> object:
    """The function def {name}({params}) with body lines, compiled as <{name} rank {r}>."""
    namespace = {}
    source = "\n".join([f"def {name}({params}):", *lines])
    exec(compile(source, f"<{name} rank {r}>", "exec"), namespace)
    return namespace[name]


def _dot(xs, ys) -> str:
    """Source of the sum of the products of the paired names."""
    return " + ".join(f"{x}*{y}" for x, y in zip(xs, ys))


@lru_cache(maxsize=KERNEL_MAX_RANK)
def _product(r: int):
    """IntMatrix * at rank r, from rows a and b to rows: each entry one sum of products."""
    a, unpack_a = _entries("a", r)
    b, unpack_b = _entries("b", r)
    cols = list(zip(*b))
    rows = ", ".join("(" + "".join(_dot(row, col) + ", " for col in cols) + ")" for row in a)
    return _kernel("product", r, "a, b", [unpack_a, unpack_b, f"    return ({rows},)"])


@lru_cache(maxsize=KERNEL_MAX_RANK)
def _apply(r: int):
    """IntMatrix.apply at rank r, from rows a and a vector v to a tuple."""
    a, unpack_a = _entries("a", r)
    v = [f"v{j}" for j in range(r)]
    entries = "".join(_dot(row, v) + ", " for row in a)
    return _kernel("apply", r, "a, v",
                   [unpack_a, f"    [{', '.join(v)}] = v", f"    return ({entries})"])


class IntMatrix:
    """Square matrix of exact integers, stored row-major as a tuple of tuples.

    IntMatrix(rows) takes entries through operator.index (a float or a string
    raises TypeError) and checks the shape in __post_init__, looked up on the class,
    where perfbench/layers.py wraps it to count constructions; arithmetic builds its
    results by _of, which checks nothing. repr, on the rows, serves the tests.
    Up to rank KERNEL_MAX_RANK, * and apply run the straight-line code of
    _product(r) and _apply(r); above it a product entry is sum(map(mul, row, col)),
    columns transposed once.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows
        self.__post_init__()

    def __post_init__(self):
        r = len(self.rows)
        if r == 0:
            raise ValueError("matrix must be nonempty")
        rows = tuple(tuple(map(index, row)) for row in self.rows)
        for row in rows:
            if len(row) != r:
                raise ValueError("matrix must be square")
        self.rows = rows

    def __repr__(self):
        return f"IntMatrix({self.rows!r})"

    @classmethod
    def _of(cls, rows: tuple) -> "IntMatrix":
        """Wraps rows, a nonempty square tuple of int tuples, without __post_init__."""
        m = object.__new__(cls)
        m.rows = rows
        return m

    @property
    def r(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, r: int) -> "IntMatrix":
        if index(r) < 1:
            raise ValueError("matrix must be nonempty")
        return cls._of(tuple([(0,) * i + (1,) + (0,) * (r - 1 - i) for i in range(r)]))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_dim(other)
        return IntMatrix._of(tuple([tuple(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows)]))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_dim(other)
        r = len(self.rows)
        if r <= KERNEL_MAX_RANK:
            return IntMatrix._of(_product(r)(self.rows, other.rows))
        cols = tuple(zip(*other.rows))
        return IntMatrix._of(tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in self.rows]))

    def scale(self, c: int) -> "IntMatrix":
        c = index(c)
        return IntMatrix._of(tuple([tuple([c * x for x in row]) for row in self.rows]))

    def shift(self, c: int) -> "IntMatrix":
        """self + c * I, without building the identity."""
        c = index(c)
        return IntMatrix._of(tuple([row[:i] + (row[i] + c,) + row[i + 1:] for i, row in enumerate(self.rows)]))

    def apply(self, vec) -> tuple:
        """Matrix-vector product."""
        r = len(self.rows)
        if len(vec) != r:
            raise ValueError("vector length mismatch")
        if r <= KERNEL_MAX_RANK:
            return _apply(r)(self.rows, vec)
        return tuple([sum(map(mul, row, vec)) for row in self.rows])

    def _check_dim(self, other: "IntMatrix") -> None:
        if self.r != other.r:
            raise ValueError(f"dimension mismatch: {self.r} vs {other.r}")


class DivisorProfile(namedtuple("DivisorProfile", "n a")):
    """Elementary-divisor exponents a of L/K, nonincreasing, each at most the level n.

    DivisorProfile(n, a) checks them and keeps a as a tuple of ints. A named tuple
    hashes in C, which each lookup of the per-profile caches does.
    """

    __slots__ = ()

    def __new__(cls, n, a):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"level must be a positive integer, got {n!r}")
        if any(isinstance(x, bool) for x in a):
            raise TypeError(f"profile exponents must be integers, got {a!r}")
        a = tuple(map(index, a))
        if len(a) == 0:
            raise ValueError("profile must be nonempty")
        for prev, cur in zip(a, a[1:]):
            if cur > prev:
                raise ValueError(f"profile exponents must be nonincreasing: {a}")
        if a[-1] < 0 or a[0] > n:
            raise ValueError(f"profile exponents must satisfy 0 <= a_i <= n: {a} at level {n}")
        return tuple.__new__(cls, (n, a))

    @property
    def r(self) -> int:
        return len(self.a)

    def sigma_counts(self) -> tuple:
        """Multiplicities as (exponent, count) pairs, exponent descending."""
        return tuple((x, len(list(run))) for x, run in groupby(self.a))


class SmithDecomposition:
    """A = U * D * V with U, V unimodular, D diagonal, d_1 | d_2 | ... | d_r >= 0.

    Over Z/p^N (modulus p^N) everything is reduced mod p^N: U and V are
    invertible mod p^N, A = U * D * V holds mod p^N and D = diag(p^{v_i}), with
    0 where v_i >= N. Over Z the modulus is 0.

    The elimination is recorded, not accumulated: row_ops are the operations
    E_1, ..., E_n applied to the rows of A and col_ops the operations F_1, ...,
    F_m applied to its columns, each in the order applied (see _ADD for the
    encoding), so D = E_n ... E_1 A F_1 ... F_m. U, V, u_inverse and v_inverse
    are each formed on first read, by replaying a log in that order, and kept;
    v_inverse_column(j) replays the column log on e_j alone and forms none of
    them. Over Z/p^N the divisors' valuations are nondecreasing, zeros last, so
    column r-1 of v_inverse generates the top order of ker(A mod p^N) (the
    eigenvector reads it); that column is fixed, up to a unit, only mod
    p^(N - v_p(d_{r-1})): other pivots may add that power times earlier columns.
    """

    def __init__(self, D: IntMatrix, row_ops: tuple, col_ops: tuple, modulus: int = 0):
        self.D = D
        self.row_ops = row_ops
        self.col_ops = col_ops
        self.modulus = modulus

    @property
    def divisors(self) -> tuple:
        return tuple([row[i] for i, row in enumerate(self.D.rows)])

    # A row replay multiplies from the left, so the products taken from the right
    # (U, v_inverse) are formed as their transposes, from the transposed operations.

    @cached_property
    def U(self) -> IntMatrix:
        """E_1^-1 ... E_n^-1, the transpose of E_n^-T ... E_1^-T."""
        return _transposed(_replay(self.D.r, map(_inverse_transposed, self.row_ops), self.modulus))

    @cached_property
    def u_inverse(self) -> IntMatrix:
        """E_n ... E_1."""
        return _rows(_replay(self.D.r, self.row_ops, self.modulus))

    @cached_property
    def V(self) -> IntMatrix:
        """F_m^-1 ... F_1^-1; a logged column operation F, read as a row operation, is F^T."""
        return _rows(_replay(self.D.r, map(_inverse_transposed, self.col_ops), self.modulus))

    @cached_property
    def v_inverse(self) -> IntMatrix:
        """F_1 ... F_m, the transpose of F_m^T ... F_1^T."""
        return _transposed(_replay(self.D.r, self.col_ops, self.modulus))

    def v_inverse_column(self, j: int) -> tuple:
        """Column j of v_inverse, F_1 (... (F_m e_j)), without forming a transform:
        the column log is applied backwards to e_j, one entry per operation."""
        v = [0] * self.D.r
        v[j] = 1
        mod = self.modulus
        for kind, a, b, c in reversed(self.col_ops):
            if kind == _SWAP:
                v[a], v[b] = v[b], v[a]
            elif kind == _SCALE:
                v[a] = b * v[a] % mod if mod else b * v[a]
            elif v[a]:  # F = I + c e_b e_a^T adds c v_a to v_b
                v[b] = (v[b] + c * v[a]) % mod if mod else v[b] + c * v[a]
        return tuple(v)


# Logged elementary operations on lines (the rows of a matrix, or the columns for
# col_ops): (_ADD, k, i, q) is line_k += q * line_i, (_SWAP, i, k, None) exchanges
# lines i and k, (_SCALE, i, c, c_inverse) multiplies line i by the unit c.
_ADD, _SWAP, _SCALE = range(3)


def _inverse_transposed(op):
    """The operation whose matrix is the inverse transpose of op's."""
    kind, a, b, c = op
    if kind == _ADD:
        return _ADD, b, a, -c
    if kind == _SCALE:
        return _SCALE, a, c, b
    return op


def _replay(r, ops, mod):
    """Rows of the r x r identity after ops are applied to its rows in order, every
    changed row reduced mod `mod` unless it is 0."""
    m = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for kind, a, b, c in ops:
        if kind == _SWAP:
            m[a], m[b] = m[b], m[a]
        elif kind == _SCALE:
            m[a] = [b * x % mod for x in m[a]] if mod else [b * x for x in m[a]]
        elif mod:  # entries are reduced, so a zero source entry leaves the target's as it is
            m[a] = [(x + c * y) % mod if y else x for x, y in zip(m[a], m[b])]
        else:
            m[a] = [x + c * y for x, y in zip(m[a], m[b])]
    return m


def _rows(m) -> IntMatrix:
    return IntMatrix._of(tuple(map(tuple, m)))


def _transposed(m) -> IntMatrix:
    return IntMatrix._of(tuple(zip(*m)))


def random_unimodular(r: int, rng) -> tuple:
    """(U, U^{-1}) from 2r random shears and swaps, drawn from the SplitMix64 stream rng;
    det is +-1 by construction.

    Each shear is row_i += q row_j, or a swap when q = 0, with row i in [0, r - 1], row j
    in [0, r - 2] (j >= i moves up one) and q in [-2, 2], drawn in that order by one
    cycled call; at r = 1 U is one sign. It is applied as drawn to the rows of U and,
    inverse-transposed, to those of U^-T, the Smith form's u_inverse and U formulas.
    """
    if r == 1:
        s = ((rng.choice((1, -1)),),)
        return IntMatrix._of(s), IntMatrix._of(s)
    m = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    t = [row[:] for row in m]
    draws = rng.cycled(((0, r - 1), (0, r - 2), (-2, 2)), 6 * r)
    for i, j, q in zip(*[iter(draws)] * 3):
        if j >= i:
            j += 1
        if q:  # the inverse transpose of row_i += q row_j is row_j -= q row_i
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            t[j] = [x - q * y for x, y in zip(t[j], t[i])]
        else:
            m[i], m[j], t[i], t[j] = m[j], m[i], t[j], t[i]
    return _rows(m), _transposed(t)


def _least_valuation(B, s, p, floor):
    """(i, j, v) of the first entry of least valuation v in the block B[s:, s:], or
    None if the block is 0. No entry lies below `floor`, so the first entry off
    p^(floor + 1) is one; failing that, the least valuation is that of the block's gcd."""
    q = p ** (floor + 1)
    for i in range(s, len(B)):
        for j, x in enumerate(B[i][s:], s):
            if x % q:
                return i, j, floor
    g = gcd(*chain.from_iterable(row[s:] for row in B[s:]))
    return _least_valuation(B, s, p, padic_valuation(g, p)) if g else None


def _least_abs(B, s):
    """(i, j, |x|) of the first nonzero entry of least absolute value in the block
    B[s:, s:], or None if the block is 0."""
    entries = ((i, j, abs(x)) for i in range(s, len(B)) for j, x in enumerate(B[i][s:], s) if x)
    return min(entries, key=itemgetter(2), default=None)


def smith_normal_form(A: IntMatrix, p: int | None = None, N: int | None = None) -> SmithDecomposition:
    """Exact Smith normal form by elimination over Z, or over Z/p^N if p and N are given.

    One pivot loop serves both rings. It takes the first entry of least size in
    the remaining block: least |x| over Z, least valuation v over Z/p^N
    (p-local elimination, after Storjohann), where a unit scales the pivot to
    p^v. It clears the rows below the pivot, touching only the columns from the
    pivot's on; the pivot column is then d e_s, so clearing the pivot row's tail
    changes that row alone. Over Z/p^N the pivot divides the whole block, every
    entry stays reduced mod p^N and one pass places the pivot. Over Z a nonzero
    remainder in the pivot's column or row becomes the next pivot, and an entry
    of the block the pivot fails to divide is folded into the pivot row, which
    yields the divisibility chain; a negative pivot's row is then negated.
    Every row and column operation is logged, and the transforms are formed
    from the logs only when read (see SmithDecomposition).
    """
    mod = 0
    if p is not None or N is not None:
        _require_prime(p)
        if not isinstance(N, int) or N < 1:
            raise ValueError(f"precision must be a positive integer, got {N!r}")
        mod = p ** N
    r = A.r
    B = [[x % mod for x in row] if mod else list(row) for row in A.rows]
    row_ops, col_ops = [], []
    floor = 0  # over Z/p^N the pivot valuations never fall
    s = 0
    while s < r:
        pivot = _least_valuation(B, s, p, floor) if mod else _least_abs(B, s)
        if pivot is None:
            break  # the rest of the block is 0 (mod p^N)
        i, j, v = pivot
        if i != s:
            B[s], B[i] = B[i], B[s]
            row_ops.append((_SWAP, s, i, None))
        if j != s:
            for row in B:
                row[s], row[j] = row[j], row[s]
            col_ops.append((_SWAP, s, j, None))
        top = B[s]
        d = top[s]
        if mod:
            floor, d = v, p ** v
            u = top[s] // d
            c = pow(u, -1, mod)
            row_ops.append((_SCALE, s, c, u))  # the pivot becomes p^v
            top[s] = d
            tail = [c * x % mod for x in top[s + 1:]]
        else:
            tail = top[s + 1:]
        rest = 0
        for i in range(s + 1, r):
            row = B[i]
            if row[s]:
                q = -(row[s] // d)
                row_ops.append((_ADD, i, s, q))
                row[s] %= d
                rest = rest or row[s]
                if mod:
                    row[s + 1:] = [(x + q * y) % mod for x, y in zip(row[s + 1:], tail)]
                else:
                    row[s + 1:] = [x + q * y for x, y in zip(row[s + 1:], tail)]
        if rest:
            continue  # over Z the remainder is the next pivot
        for j, x in enumerate(tail, s + 1):
            if x:
                col_ops.append((_ADD, j, s, -(x // d)))
        top[s + 1:] = [x % d for x in tail]
        if not mod:
            if any(top[s + 1:]):
                continue
            # the pivot must divide the remaining block for the chain d_s | d_{s+1}
            fold = next((i for i in range(s + 1, r) if any(x % d for x in B[i][s + 1:])), None)
            if fold is not None:
                B[s] = list(map(add, top, B[fold]))
                row_ops.append((_ADD, s, fold, 1))
                continue
            if d < 0:
                top[s] = -d
                row_ops.append((_SCALE, s, -1, -1))
        s += 1
    return SmithDecomposition(_rows(B), tuple(row_ops), tuple(col_ops), mod)


def quotient_profile(Kgen: IntMatrix, p: int, n: int) -> DivisorProfile:
    """Profile (a_i) of L / K where the columns of Kgen generate K.

    Requires K of finite index with p-power elementary divisors, all with
    exponent at most n.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    divisors = smith_normal_form(Kgen).divisors
    vals = []
    for d in divisors:  # nonnegative over Z
        if d == 0:
            raise InputError("generators do not span a finite-index sublattice (zero determinant)")
        v = padic_valuation(d, p)
        if d != p ** v:
            raise InputError(f"elementary divisor {d} is not a power of {p}")
        vals.append(v)
    a = tuple(sorted(vals, reverse=True))
    if a[0] > n:
        raise InputError(f"divisor exponent {a[0]} exceeds level {n} (p^n L is not inside K)")
    return DivisorProfile(n=n, a=a)


def check_xi_condition(xi: IntMatrix, profile: DivisorProfile, p: int) -> bool:
    """True iff xi(K) is contained in p^n L, with K = sum_j p^{a_j} Z e_j.

    In the adapted basis this is exactly: every entry of column j is
    divisible by p^{n - a_j}.
    """
    _require_prime(p)
    _check_rank(xi, profile)
    return not any(map(mod, chain.from_iterable(xi.rows), cycle(_column_scales(profile, p))))


def _check_rank(xi: IntMatrix, profile: DivisorProfile) -> None:
    if xi.r != profile.r:
        raise ValueError(f"dimension mismatch: matrix is {xi.r}, profile has rank {profile.r}")


@lru_cache(maxsize=32)
def _column_scales(profile: DivisorProfile, p: int) -> tuple:
    """(p^(n - a_j))_j, the divisor of column j under xi(K) in p^n L; kept per (profile, p)."""
    return tuple([p ** (profile.n - aj) for aj in profile.a])


# --- outside input, matrix files and JSON text (shared with the CLI and the reports) ----

def read_json(path):
    """The JSON document in the file at path. Bad JSON, an integer literal beyond the
    int-to-str limit and nesting past the recursion limit raise InputError; OSError
    passes through."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from exc


def matrix_from_document(doc) -> IntMatrix:
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be an object")
    unknown = set(doc) - {"rows"}
    if unknown:
        raise ValueError(f"unknown matrix fields: {sorted(unknown)}")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ValueError("matrix document needs a nonempty 'rows' list")
    parsed = []
    for row in rows:
        if not isinstance(row, list):
            raise ValueError("each row must be a list")
        parsed.append([_parse_entry(x) for x in row])
    return IntMatrix(parsed)


def _parse_entry(x) -> int:
    # decimal strings are accepted so very large entries survive any JSON tooling
    if isinstance(x, bool):
        raise ValueError(f"not an integer entry: {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        s = x.strip()
        body = s[1:] if s[:1] in "+-" else s
        if body.isdecimal():  # not isdigit: Decimal refuses digits such as "²"
            return int(Decimal(s))  # int(s) refuses more than sys.get_int_max_str_digits()
    raise ValueError(f"not an integer entry: {x!r}")


def json_text(doc) -> str:
    """doc as json.dumps(doc, indent=2, sort_keys=True) writes it, plus a newline, except
    that an int str() refuses (see sys.get_int_max_str_digits) becomes a decimal string,
    read back by _parse_entry. Keys must be strings."""
    return _json(doc, "\n") + "\n"


def _int_json(x: int) -> str:
    """x as JSON: int.__repr__, or past the int-to-str limit a decimal string."""
    try:
        return int.__repr__(x)
    except ValueError:  # Decimal converts it exactly
        return '"' + str(Decimal(x)) + '"'


def _items_text(items, pad: str, brackets: str = "[]") -> str:
    """A JSON array, or with brackets "{}" an object, of items that are already JSON
    text: one item a line at pad, the closing bracket one level out."""
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1] if items else brackets


def _json(x, pad: str) -> str:
    # json's own dispatch order; each container returns its text, written in one pass
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return _int_json(x)
    inner = pad + "  "
    if isinstance(x, (list, tuple)):
        return _items_text([_json(v, inner) for v in x], inner)
    if isinstance(x, dict):
        return _items_text([encode_basestring_ascii(k) + ": " + _json(v, inner)
                            for k, v in sorted(x.items())], inner, "{}")
    return json.dumps(x)  # a float, or TypeError for what JSON cannot hold
