"""Sparse multivariate power series with exact integer coefficients.

A :class:`Series` is a finite dict mapping exponent vectors to nonzero
``int`` coefficients, together with a total-degree truncation ``bound``.
Every operation is exact: terms of total degree at most ``bound`` are always
correct, and nothing above the bound is stored.

There is one product, :meth:`Series.__mul__`: :func:`expand_factor` builds
each factor ``(1 + s*x^e)^p`` as its own truncated series and multiplies it in.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterable, Mapping, Sequence

Exps = tuple[int, ...]


def _coeff(c: object) -> int:
    """``c`` if it is an int; a ValueError for anything else, a bool included."""
    if type(c) is not int:
        raise ValueError(f"coefficient {c!r} is not an int")
    return c


def ty(k: int, l: int) -> tuple[str, ...]:
    """The names t1..tk, y1..yl of a (k, l) pair of alphabets."""
    return (*(f"t{i}" for i in range(1, k + 1)), *(f"y{j}" for j in range(1, l + 1)))


def vty(k: int, l: int) -> tuple[str, ...]:
    """The names v1..vk, t1..tk, y1..yl of the split encoding of a (k, l) hook."""
    return (*(f"v{i}" for i in range(1, k + 1)), *ty(k, l))


class Series:
    """Truncated power series over a tuple of distinct variable names."""

    __slots__ = ("vars", "bound", "terms")

    def __init__(self, vars_: tuple[str, ...], bound: int,
                 terms: Mapping[Exps, int] | None = None, *, _raw: bool = False):
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        if not _raw and len(set(vars_)) != len(vars_):
            raise ValueError(f"duplicate variable names in {vars_}")
        self.vars = vars_
        self.bound = bound
        if terms is None:
            self.terms: dict[Exps, int] = {}
        elif _raw:
            self.terms = dict(terms)
        else:
            clean: dict[Exps, int] = {}
            for exps, c in terms.items():
                exps = _exponents(exps, "exponent vector")
                if len(exps) != len(vars_):
                    raise ValueError(f"exponent vector {exps} has wrong arity")
                if sum(exps) > bound:
                    continue
                if _coeff(c):
                    clean[exps] = c
            self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, vars_: tuple[str, ...], bound: int) -> "Series":
        return cls(vars_, bound)

    @classmethod
    def one(cls, vars_: tuple[str, ...], bound: int) -> "Series":
        return cls(vars_, bound, {(0,) * len(vars_): 1}, _raw=True)

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> int:
        return self.terms.get(tuple(exps), 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self.vars == other.vars and self.bound == other.bound
                and self.terms == other.terms)

    def __repr__(self) -> str:
        return f"Series({len(self.terms)} terms, bound={self.bound}, vars={self.vars})"

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "Series") -> None:
        if self.vars != other.vars:
            raise ValueError("mismatched variable sets")

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        bound = min(self.bound, other.bound)
        out = dict(self.terms) if self.bound == bound else \
            {e: c for e, c in self.terms.items() if sum(e) <= bound}
        for e, c in other.terms.items():
            if sum(e) > bound:
                continue
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Series(self.vars, bound, out, _raw=True)

    def __neg__(self) -> "Series":
        return Series(self.vars, self.bound, {e: -c for e, c in self.terms.items()}, _raw=True)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, c: int) -> "Series":
        if not _coeff(c):
            return Series.zero(self.vars, self.bound)
        return Series(self.vars, self.bound,
                      {e: v * c for e, v in self.terms.items()}, _raw=True)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other) if isinstance(other, int) else NotImplemented
        self._check_compatible(other)
        bound = min(self.bound, other.bound)
        # grade by total degree so high-degree pairs are pruned early
        by_deg_a: dict[int, list[tuple[Exps, int]]] = {}
        for e, c in self.terms.items():
            by_deg_a.setdefault(sum(e), []).append((e, c))
        by_deg_b: dict[int, list[tuple[Exps, int]]] = {}
        for e, c in other.terms.items():
            by_deg_b.setdefault(sum(e), []).append((e, c))
        out: dict[Exps, int] = {}
        for da, items_a in by_deg_a.items():
            for db, items_b in by_deg_b.items():
                if da + db > bound:
                    continue
                for ea, ca in items_a:
                    for eb, cb in items_b:
                        key = tuple(x + y for x, y in zip(ea, eb))
                        s = out.get(key, 0) + ca * cb
                        if s:
                            out[key] = s
                        else:
                            del out[key]
        return Series(self.vars, bound, out, _raw=True)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("negative powers are not defined on truncated series")
        out = Series.one(self.vars, self.bound)
        for _ in range(n):
            out = out * self
        return out

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exps, int]]:
        """Graded order: ascending total degree, then descending lex exponent."""
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))

    def to_obj(self) -> list[dict]:
        return [{"exp": list(e), "num": str(c), "den": "1"} for e, c in self.sorted_terms()]

    @classmethod
    def from_obj(cls, vars_: tuple[str, ...], bound: int, obj: Sequence[Mapping]) -> "Series":
        if not isinstance(obj, list):
            raise ValueError(f"want a list of terms, got {type(obj).__name__}")
        terms: dict[Exps, int] = {}
        for row in obj:
            exps = _new_term(terms, _field(row, "exp", _ints), bound)
            if _field(row, "den", _exact) != 1:
                raise ValueError(f"field 'den' has a bad value {row['den']!r}")
            terms[exps] = _field(row, "num", _exact)
        return cls(vars_, bound, terms)


def _list(value: object) -> list:
    """A JSON list; a TypeError for anything else."""
    if not isinstance(value, list):
        raise TypeError(value)
    return value


def _ints(value: object) -> Exps:
    return tuple(map(_coeff, _list(value)))


def _exact(value: object) -> int:
    """A nonzero JSON integer, or the string of ASCII digits, perhaps after one
    ``-``, that ``to_obj`` writes for one; a TypeError or ValueError for anything
    else, zero included, since no writer writes a zero coefficient."""
    if type(value) is str and value.isascii() and value.removeprefix("-").isdigit():
        value = int(value)
    if not _coeff(value):
        raise TypeError(value)
    return value


def _new_term(terms: Mapping[Exps, int], exps: Exps, bound: int) -> Exps:
    """``exps`` of a parsed term; ``to_obj`` writes no repeated or heavy term."""
    if exps in terms:
        raise ValueError(f"term {exps} is repeated")
    if sum(exps) > bound:
        raise ValueError(f"term {exps} is heavier than the bound {bound}")
    return exps


def _exponents(values: Iterable, what: str) -> Exps:
    """``values`` as a tuple of exponents: a float or a bool is none."""
    out = tuple(values)
    for v in out:
        if type(v) is not int or v < 0:
            raise ValueError(f"{what} {out!r} has an entry {v!r} that is no nonnegative int")
    return out


def _field(obj: object, name: str, convert: Callable):
    """``convert(obj[name])`` of a parsed JSON object, where a ValueError
    names the field that is missing or whose value is of the wrong shape."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"want an object with field {name!r}, got {type(obj).__name__}")
    if name not in obj:
        raise ValueError(f"missing field {name!r}")
    try:
        return convert(obj[name])
    except (TypeError, ValueError):
        raise ValueError(f"field {name!r} has a bad value {obj[name]!r}") from None


def _as_monomial(vars_: tuple[str, ...], base) -> Exps:
    if isinstance(base, str):
        if base not in vars_:
            raise ValueError(f"unknown variable {base!r}")
        return tuple(int(name == base) for name in vars_)
    exps = _exponents(base, "monomial exponent vector")
    if len(exps) != len(vars_):
        raise ValueError(f"bad monomial exponent vector {base!r}")
    return exps


def expand_factor(vars_: tuple[str, ...], factors: Iterable[tuple], bound: int) -> Series:
    """Expand ``prod (1 + sign * x^base)^power`` to the given bound.

    Each factor is ``(base, sign, power)`` with ``base`` a variable name or an
    exponent vector, ``sign`` +1 or -1, and ``power`` any integer (negative
    powers expand geometrically).
    """
    out = Series.one(vars_, bound)
    for factor in factors:
        try:
            base, sign, power = factor
        except (TypeError, ValueError):
            raise ValueError(f"malformed factor {factor!r}, want (base, sign, power)") from None
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"factor sign must be +1 or -1, got {sign!r}")
        if type(power) is not int:
            raise ValueError(f"factor power must be an integer, got {power!r}")
        exps = _as_monomial(vars_, base)
        deg = sum(exps)
        if deg == 0:
            raise ValueError("factor base must be a nonconstant monomial")
        # C(p, j) s^j at x^(j*base); for p < 0, C(p, j) = (-1)^j C(j - p - 1, j)
        terms = {}
        for j in range(bound // deg + 1):
            c = comb(power, j) * sign**j if power >= 0 else comb(j - power - 1, j) * (-sign)**j
            if c:
                terms[tuple(j * e for e in exps)] = c
        out = out * Series(vars_, bound, terms, _raw=True)
    return out
