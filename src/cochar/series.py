"""Sparse multivariate power series with exact rational coefficients.

A :class:`Series` is a finite dict mapping exponent vectors to nonzero
``Fraction``/``int`` coefficients, together with a total-degree truncation
``bound``.  Every operation is exact: terms of total degree at most ``bound``
are always correct, and nothing above the bound is stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

Exps = tuple[int, ...]
Coeff = int | Fraction


def norm_coeff(c: Coeff | str) -> Coeff:
    """Normalize to int when integral, Fraction otherwise."""
    if type(c) is int:
        return c
    f = Fraction(c)
    return int(f) if f.denominator == 1 else f


@dataclass(frozen=True)
class VarSet:
    """Ordered variable names, optionally split into labeled blocks."""

    names: tuple[str, ...]
    blocks: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        if self.blocks is not None and sum(n for _, n in self.blocks) != len(self.names):
            raise ValueError("block sizes do not cover the variable list")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def block_range(self, label: str) -> range:
        if self.blocks is None:
            raise ValueError("variable set has no blocks")
        start = 0
        for lab, n in self.blocks:
            if lab == label:
                return range(start, start + n)
            start += n
        raise ValueError(f"no block {label!r}")

    @staticmethod
    def t(d: int) -> "VarSet":
        return VarSet(tuple(f"t{i}" for i in range(1, d + 1)), (("t", d),))

    @staticmethod
    def v(d: int) -> "VarSet":
        return VarSet(tuple(f"v{i}" for i in range(1, d + 1)), (("v", d),))

    @staticmethod
    def ty(k: int, l: int) -> "VarSet":
        names = tuple(f"t{i}" for i in range(1, k + 1)) + tuple(f"y{j}" for j in range(1, l + 1))
        return VarSet(names, (("t", k), ("y", l)))

    @staticmethod
    def vty(k: int, l: int) -> "VarSet":
        names = (tuple(f"v{i}" for i in range(1, k + 1))
                 + tuple(f"t{i}" for i in range(1, k + 1))
                 + tuple(f"y{j}" for j in range(1, l + 1)))
        return VarSet(names, (("v", k), ("t", k), ("y", l)))


class Series:
    """Truncated power series over a :class:`VarSet`."""

    __slots__ = ("vars", "bound", "terms")

    def __init__(self, vars_: VarSet, bound: int,
                 terms: Mapping[Exps, Coeff] | None = None, *, _raw: bool = False):
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        self.vars = vars_
        self.bound = bound
        if terms is None:
            self.terms: dict[Exps, Coeff] = {}
        elif _raw:
            self.terms = dict(terms)
        else:
            clean: dict[Exps, Coeff] = {}
            for exps, c in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != vars_.arity:
                    raise ValueError(f"exponent vector {exps} has wrong arity")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if sum(exps) > bound:
                    continue
                c = norm_coeff(c)
                if c:
                    clean[exps] = c
            self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, vars_: VarSet, bound: int) -> "Series":
        return cls(vars_, bound)

    @classmethod
    def one(cls, vars_: VarSet, bound: int) -> "Series":
        return cls(vars_, bound, {(0,) * vars_.arity: 1}, _raw=True)

    @classmethod
    def monomial(cls, vars_: VarSet, bound: int, exps: Sequence[int],
                 coeff: Coeff = 1) -> "Series":
        return cls(vars_, bound, {tuple(exps): coeff})

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        return self.terms.get(tuple(exps), 0)

    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * self.vars.arity, 0)

    def degree_slice(self, d: int) -> dict[Exps, Coeff]:
        return {e: c for e, c in self.terms.items() if sum(e) == d}

    def select(self, pred: Callable[[Exps], bool]) -> "Series":
        return Series(self.vars, self.bound,
                      {e: c for e, c in self.terms.items() if pred(e)}, _raw=True)

    def truncate(self, bound: int) -> "Series":
        """Lower (or raise) the truncation bound; raising adds no information."""
        if bound >= self.bound:
            return Series(self.vars, bound, self.terms, _raw=True)
        return Series(self.vars, bound,
                      {e: c for e, c in self.terms.items() if sum(e) <= bound}, _raw=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self.vars.names == other.vars.names and self.bound == other.bound
                and self.terms == other.terms)

    def __repr__(self) -> str:
        return f"Series({len(self.terms)} terms, bound={self.bound}, vars={self.vars.names})"

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "Series") -> None:
        if self.vars.names != other.vars.names:
            raise ValueError("mismatched variable sets")

    def __add__(self, other: "Series") -> "Series":
        self._check_compatible(other)
        bound = min(self.bound, other.bound)
        out = dict(self.terms) if self.bound == bound else \
            {e: c for e, c in self.terms.items() if sum(e) <= bound}
        for e, c in other.terms.items():
            if sum(e) > bound:
                continue
            s = out.get(e, 0) + c
            if s:
                out[e] = norm_coeff(s)
            else:
                out.pop(e, None)
        return Series(self.vars, bound, out, _raw=True)

    def __neg__(self) -> "Series":
        return Series(self.vars, self.bound, {e: -c for e, c in self.terms.items()}, _raw=True)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, c: Coeff) -> "Series":
        c = norm_coeff(c)
        if not c:
            return Series.zero(self.vars, self.bound)
        return Series(self.vars, self.bound,
                      {e: norm_coeff(v * c) for e, v in self.terms.items()}, _raw=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        bound = min(self.bound, other.bound)
        # grade by total degree so high-degree pairs are pruned early
        by_deg_a: dict[int, list[tuple[Exps, Coeff]]] = {}
        for e, c in self.terms.items():
            by_deg_a.setdefault(sum(e), []).append((e, c))
        by_deg_b: dict[int, list[tuple[Exps, Coeff]]] = {}
        for e, c in other.terms.items():
            by_deg_b.setdefault(sum(e), []).append((e, c))
        out: dict[Exps, Coeff] = {}
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
        return Series(self.vars, bound,
                      {e: norm_coeff(c) for e, c in out.items() if c}, _raw=True)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("negative powers are not defined on truncated series")
        out = Series.one(self.vars, self.bound)
        for _ in range(n):
            out = out * self
        return out

    # -- shift multiplication (single-monomial factors) -------------------

    def shift_mul_binomial(self, exps: Exps, sign: int) -> "Series":
        """Multiply by (1 + sign * x^exps)."""
        deg = sum(exps)
        out = dict(self.terms)
        for e, c in self.terms.items():
            if sum(e) + deg > self.bound:
                continue
            key = tuple(x + y for x, y in zip(e, exps))
            s = out.get(key, 0) + sign * c
            if s:
                out[key] = norm_coeff(s)
            else:
                del out[key]
        return Series(self.vars, self.bound, out, _raw=True)

    def shift_mul_geometric(self, exps: Exps, sign: int) -> "Series":
        """Multiply by (1 + sign * x^exps)^(-1) = sum_j (-sign)^j x^(j*exps)."""
        deg = sum(exps)
        if deg == 0:
            raise ValueError("geometric factor needs a nonconstant monomial")
        out: dict[Exps, Coeff] = {}
        for e, c in self.terms.items():
            key, d, flip = e, sum(e), 1
            while d <= self.bound:
                s = out.get(key, 0) + flip * c
                if s:
                    out[key] = s
                else:
                    del out[key]
                key = tuple(x + y for x, y in zip(key, exps))
                d += deg
                flip = -flip if sign > 0 else flip
        return Series(self.vars, self.bound,
                      {e: norm_coeff(c) for e, c in out.items() if c}, _raw=True)

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exps, Coeff]]:
        """Graded order: ascending total degree, then descending lex exponent."""
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))

    def to_obj(self) -> list[dict]:
        out = []
        for e, c in self.sorted_terms():
            f = Fraction(c)
            out.append({"exp": list(e), "num": str(f.numerator), "den": str(f.denominator)})
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))

    @classmethod
    def from_obj(cls, vars_: VarSet, bound: int, obj: Iterable[Mapping]) -> "Series":
        terms: dict[Exps, Coeff] = {}
        for row in obj:
            c = Fraction(int(row["num"]), int(row["den"]))
            exps = tuple(int(e) for e in row["exp"])
            if c:
                terms[exps] = terms.get(exps, 0) + c
        return cls(vars_, bound, terms)


def _as_monomial(vars_: VarSet, base) -> Exps:
    if isinstance(base, str):
        exps = [0] * vars_.arity
        exps[vars_.index(base)] = 1
        return tuple(exps)
    exps = tuple(int(e) for e in base)
    if len(exps) != vars_.arity or any(e < 0 for e in exps):
        raise ValueError(f"bad monomial exponent vector {base!r}")
    return exps


def expand_factor(vars_: VarSet, factors: Iterable[tuple], bound: int) -> Series:
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
        if sign not in (1, -1):
            raise ValueError(f"factor sign must be +1 or -1, got {sign!r}")
        if not isinstance(power, int):
            raise ValueError(f"factor power must be an integer, got {power!r}")
        exps = _as_monomial(vars_, base)
        if sum(exps) == 0:
            raise ValueError("factor base must be a nonconstant monomial")
        for _ in range(abs(power)):
            if power > 0:
                out = out.shift_mul_binomial(exps, sign)
            else:
                out = out.shift_mul_geometric(exps, sign)
    return out


def substitute_monomials(s: Series, target: VarSet,
                         mapping: Mapping[str, tuple[int, Sequence[int]]],
                         bound: int) -> Series:
    """Substitute each source variable by +/- a monomial of ``target``.

    ``mapping`` sends every source variable name to ``(sign, exponents)``.
    Terms whose image exceeds ``bound`` are dropped; the caller is responsible
    for making sure that truncation is sound for its use.
    """
    images: list[tuple[int, Exps]] = []
    for name in s.vars.names:
        if name not in mapping:
            raise ValueError(f"no image for variable {name!r}")
        sign, exps = mapping[name]
        if sign not in (1, -1):
            raise ValueError(f"image sign must be +1 or -1, got {sign!r}")
        exps = tuple(int(e) for e in exps)
        if len(exps) != target.arity or any(e < 0 for e in exps):
            raise ValueError(f"bad image monomial {exps!r} for {name!r}")
        images.append((sign, exps))
    out: dict[Exps, Coeff] = {}
    for e, c in s.terms.items():
        key = [0] * target.arity
        sign = 1
        for power, (sgn, img) in zip(e, images):
            if power:
                if sgn < 0 and power % 2:
                    sign = -sign
                for i, m in enumerate(img):
                    if m:
                        key[i] += m * power
        if sum(key) > bound:
            continue
        k = tuple(key)
        t = out.get(k, 0) + sign * c
        if t:
            out[k] = t
        else:
            del out[k]
    return Series(target, bound, {e: norm_coeff(c) for e, c in out.items() if c}, _raw=True)
