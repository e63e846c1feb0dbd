"""Hand-expanded multiplicity formulas, used as an independent check route.

Two kinds of data live here:

* piecewise integer formulas for single multiplicities, keyed by an algebra
  tag (:func:`closed_multiplicity`), and
* rational generating functions expanded exactly to a requested degree
  (:func:`reference_series`).

Everything in this module is a transcription of a worked-out closed form;
nothing is re-derived from the operator pipelines.  That independence is the
point: the pipelines and these tables must agree coefficient for coefficient,
and the test suite holds them to that.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .partitions import partition
from .series import Series, expand_factor, vty

# ---------------------------------------------------------------------------
# piecewise multiplicity tables
# ---------------------------------------------------------------------------
# Each table reads a canonical partition tuple.


def _grassmann_value(lam: tuple[int, ...]) -> int | None:
    # every hook shape occurs exactly once; nothing else occurs
    return 1 if len(lam) < 2 or lam[1] <= 1 else None


def _ut2_value(lam: tuple[int, ...]) -> int | None:
    """Full table for the algebra of 2x2 upper triangular matrices over the
    Grassmann algebra; covers every shape inside the (2,3) hook, the two-row
    strip included.

    Shapes are classified by how many parts are >= 3 (at most three can be,
    and then only when the third equals 3), how many equal 2, and how many
    equal 1.  Rows are tried in the table's published order; overlaps between
    rows are consistent (asserted by test, not assumed).
    """
    if len(lam) <= 1:
        return 1                                        # (n), incl. the empty shape
    big = sum(1 for p in lam if p >= 3)
    twos = lam.count(2)
    m = lam.count(1)
    if big == 0:
        if twos == 0:
            return 1                                    # (1^m), m > 1
        if twos == 1:
            return m + 1                                # (2,1^m), m >= 1
        if twos == 2:
            return 3 * m + 2                            # (2,2,1^m)
        return 4 * (m + 1)                              # (2,2,2^s,1^m), s > 0
    if big == 1:
        n = lam[0]
        if twos == 0:
            return 2 * n * m - 3 * m - n + 3            # (n,1^m), n >= 3, m >= 1
        if twos == 1:
            return 6 * m * (n - 3) + 9 * m + 3 * (n - 3) + 5   # (n,2,1^m)
        return (8 * (n - 3) + 12) * (m + 1)             # (n,2,2^s,1^m), s >= 1
    if big == 2:
        n1, n2 = lam[0], lam[1]
        if twos == 0:
            return 4 * (n1 - n2 + 1) * (2 * m + 1)      # (n1,n2,1^m), n2 >= 3
        return 12 * (n1 - n2 + 1) * (m + 1)             # (n1,n2,2^s,1^m), s >= 1
    if big == 3 and lam[2] == 3:
        return 4 * (lam[0] - lam[1] + 1) * (m + 1)      # (n1,n2,3,2^s,1^m)
    return None


def _ut3_two_part_value(lam: tuple[int, ...]) -> int | None:
    """Two-variable table for UT_3 over the Grassmann algebra (<= 2 parts)."""
    if len(lam) > 2:
        return None
    if len(lam) <= 1:
        return 1
    a, b = lam
    if b == 1:
        return a
    if b == 2:
        return (a + 2) * (a - 1) // 2
    if b == 3:
        q, r = divmod(5 * a * a - 17 * a + 16, 2)
        if r:
            raise ArithmeticError(f"half-integer table value at {lam}")
        return q
    g = a - b
    return (14 - 16 * b + 4 * b * b + 2 * g * (2 - 5 * g)
            + 4 * b * g * (-3 + b + g))                 # a >= b >= 4


def _ut3_hook_value(lam: tuple[int, ...]) -> int | None:
    """Hook-shape table for UT_3 over the Grassmann algebra (arm and one-column leg)."""
    if len(lam) > 1 and lam[1] > 1:  # outside the (1,1) hook
        return None
    if len(lam) <= 1:
        return 1                                        # (n), n >= 0
    n, m = lam[0], len(lam) - 1
    if n == 1:
        return 1                                        # (1^m), m > 1
    if m == 1:
        return n                                        # (n,1), n >= 2
    if n == 2:
        return m + 1                                    # (2,1^m), m >= 2
    num = (76 - 90 * m + 26 * m * m - 54 * n + 68 * m * n
           - 20 * m * m * n + 10 * n * n - 12 * m * n * n
           + 4 * m * m * n * n)                         # (n,1^m), n >= 3, m >= 2
    q, r = divmod(num, 4)
    if r:
        raise ArithmeticError(f"quarter-integer table value at {lam}")
    return q


_TABLES = {
    "E": _grassmann_value,
    "UT2E": _ut2_value,
    "UT3E_parts2": _ut3_two_part_value,
    "UT3E_hook11": _ut3_hook_value,
}


def closed_table(algebra: str) -> Callable[[tuple[int, ...]], int | None]:
    """The table of :func:`closed_multiplicity` for ``algebra``; it reads
    canonical partition tuples and validates nothing."""
    try:
        return _TABLES[algebra]
    except KeyError:
        raise ValueError(f"unknown algebra tag {algebra!r}") from None


def closed_multiplicity(algebra: str, lam: Sequence[int]) -> int | None:
    """Tabulated multiplicity of the shape ``lam``, or None outside the table.

    None means the table makes no claim beyond "0 for all other shapes", so
    callers treat it as zero inside the table's declared domain.
    """
    return closed_table(algebra)(partition(lam))


# ---------------------------------------------------------------------------
# reference generating functions
# ---------------------------------------------------------------------------


def _mono(vars_: tuple[str, ...], text: str) -> tuple[int, ...]:
    """Exponent vector for a monomial written like ``"v1^3 t1 y1^2"``."""
    out = [0] * len(vars_)
    for piece in text.split():
        name, _, exp = piece.partition("^")
        out[vars_.index(name)] += int(exp) if exp else 1
    return tuple(out)


def _poly(vars_: tuple[str, ...], bound: int, coeffs: dict) -> Series:
    terms: dict[tuple[int, ...], int] = {}
    for text, c in coeffs.items():
        key = _mono(vars_, text)
        terms[key] = terms.get(key, 0) + c
    return Series(vars_, bound, terms)


def _frac(vars_: tuple[str, ...], bound: int, num: dict | None = None,
          plus: Sequence[tuple[str, int]] = (),
          minus: Sequence[tuple[str, int]] = ()) -> Series:
    """Expand ``num * prod (1+a)^i / prod (1-b)^j`` exactly to ``bound``."""
    out = _poly(vars_, bound, num if num is not None else {"": 1})
    factors = [(_mono(vars_, a), 1, p) for a, p in plus]
    factors += [(_mono(vars_, b), -1, -p) for b, p in minus]
    if factors:
        out = out * expand_factor(vars_, factors, bound)
    return out


def _shift(poly: dict, prefix: str, scale: int = 1) -> dict:
    """Multiply a monomial-text polynomial by ``scale * prefix``."""
    out = {}
    for mono, c in poly.items():
        key = " ".join(p for p in (prefix, mono) if p)
        out[key] = c * scale
    return out


# numerators that recur across the displays below
_Q = {"": 1, "t1": 1, "t1 t2": 1, "t1^2 t2": -1}
_R = {"": 1, "y1": 1, "y1 y2": 3, "y1^2 y2": -1, "y1 y2 y3": 2}
_R0 = {"": 1, "y1": 1, "y1 y2": 3, "y1^2 y2": -1}
_S = {"": 1, "y1 y2": 1, "t1 y1 y2": 2, "t1 y1": 1, "t1 y1^2 y2": -1}


def _ref_mult_e_two_vars(bound: int) -> Series:
    # (1+v2)/(1-v1)
    v = ("v1", "v2")
    return _frac(v, bound, plus=[("v2", 1)], minus=[("v1", 1)])


def _ref_mult_ut2_two_vars(bound: int) -> Series:
    # 2(1+v2)/(1-v1) + (1+v2)^2 (-1+v1+2v2-v1v2) / ((1-v1)^2 (1-v2))
    v = ("v1", "v2")
    lead = _frac(v, bound, {"": 2}, plus=[("v2", 1)], minus=[("v1", 1)])
    tail = _frac(v, bound, {"": -1, "v1": 1, "v2": 2, "v1 v2": -1},
                 plus=[("v2", 2)], minus=[("v1", 2), ("v2", 1)])
    return lead + tail


def _ref_mult_ut3_two_vars(bound: int) -> Series:
    v = ("v1", "v2")
    out = _frac(v, bound, {"": 3}, plus=[("v2", 1)], minus=[("v1", 1)])
    out = out + _frac(v, bound, {"": -3}, plus=[("v2", 2)],
                      minus=[("v1", 2), ("v2", 1)])
    # the 6*(...) summand carries a v2 factor the source display drops: without
    # it the constant term comes out 7 rather than 1
    out = out + _frac(v, bound, {"v2": 6}, plus=[("v2", 2)],
                      minus=[("v1", 2), ("v2", 1)])
    out = out + _frac(v, bound, {"v1": 3}, plus=[("v2", 2)], minus=[("v1", 2)])
    out = out + _frac(v, bound, {
        "": 1, "v1": -2, "v1^2": 1, "v2": -2, "v1 v2": 2, "v2^2": -4,
        "v1 v2^2": 8, "v1^2 v2^2": -3, "v2^3": 7, "v1 v2^3": -5,
        "v2^4": 10, "v1 v2^4": -13, "v1^2 v2^4": 3, "v2^5": -1,
        "v1 v2^5": -1, "v2^6": -3, "v1 v2^6": 3, "v1^2 v2^6": -1,
    }, minus=[("v1", 3), ("v2", 3)])
    return out


def _ref_hook_mult_e(bound: int) -> Series:
    # 1 + v1/((1-t1)(1-y1))
    v = vty(1, 1)
    return (_frac(v, bound)
            + _frac(v, bound, {"v1": 1}, minus=[("t1", 1), ("y1", 1)]))


def _ref_g_of_unit(bound: int) -> Series:
    v = vty(2, 3)
    out = _frac(v, bound, {"": 1, "v1": 1, "v1^2": 1})
    out = out + _frac(v, bound, {"v1 v2": 1}, minus=[("y1", 1)])
    out = out + _frac(v, bound, {"v1^2 v2": 1}, minus=[("y1", 1)])
    out = out + _frac(v, bound, {"v1^3": 1}, minus=[("t1", 1)])
    out = out + _frac(v, bound, {"v1^3 v2": 1}, minus=[("t1", 1), ("y1", 1)])
    return out


def _ref_g_squared_of_unit(bound: int) -> Series:
    v = vty(2, 3)
    s = _frac(v, bound, {"": 1, "v1": 2, "v1^2": 3})
    # v1 v2 block
    s = s + _frac(v, bound, {"v1 v2": 2}, minus=[("y1", 1)])
    s = s + _frac(v, bound, {"v1 v2": 1}, minus=[("y1", 2)])
    # v1^2 v2 block
    s = s + _frac(v, bound, {"v1^2 v2": 4}, minus=[("y1", 1)])
    s = s + _frac(v, bound, {"v1^2 v2": 1}, plus=[("y1", 1)], minus=[("y1", 2)])
    s = s + _frac(v, bound, {"v1^2 v2": 1}, minus=[("y1", 2)])
    # v1^3 block
    s = s + _frac(v, bound, {"v1^3": 3}, minus=[("t1", 1)])
    s = s + _frac(v, bound, {"v1^3": 1}, minus=[("t1", 2)])
    # v1^3 v2 block
    s = s + _frac(v, bound, {"v1^3 v2": 5}, minus=[("t1", 1), ("y1", 1)])
    s = s + _frac(v, bound, {"v1^3 v2": 2}, plus=[("y1", 1)],
                  minus=[("t1", 1), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2": 1}, plus=[("t1", 1)],
                  minus=[("t1", 2), ("y1", 1)])
    s = s + _frac(v, bound, {"v1^3 v2": 1}, plus=[("t1 y1", 1)],
                  minus=[("t1", 2), ("y1", 2)])
    # v1^2 v2^2 block
    s = s + _frac(v, bound, {"v1^2 v2^2": 2}, minus=[("y1", 1)])
    s = s + _frac(v, bound, {"v1^2 v2^2": 2}, plus=[("y1", 1)], minus=[("y1", 2)])
    s = s + _frac(v, bound, {"v1^2 v2^2 y1 y2": 4},
                  minus=[("y1", 2), ("y1 y2", 1)])
    # v1^3 v2^2 block
    s = s + _frac(v, bound, {"v1^3 v2^2": 3}, minus=[("t1", 1), ("y1", 1)])
    s = s + _frac(v, bound, {"v1^3 v2^2": 3}, plus=[("y1", 1)],
                  minus=[("t1", 1), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2^2 y1 y2": 6},
                  minus=[("t1", 1), ("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, {"v1^3 v2^2": 1}, plus=[("t1", 1)],
                  minus=[("t1", 2), ("y1", 1)])
    s = s + _frac(v, bound, {"v1^3 v2^2": 1}, plus=[("t1", 1), ("y1", 1)],
                  minus=[("t1", 2), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2^2 y1 y2": 2}, plus=[("t1", 1)],
                  minus=[("t1", 2), ("y1", 2), ("y1 y2", 1)])
    # v1^3 v2^3 block (one denominator sign in the source display is a known
    # misprint; the form below is the one the operator route reproduces)
    s = s + _frac(v, bound, {"v1^3 v2^3": 1}, minus=[("t1", 1), ("y1", 1)])
    s = s + _frac(v, bound, {"v1^3 v2^3": 1}, plus=[("y1", 1)],
                  minus=[("t1", 1), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2^3 y1 y2": 2},
                  minus=[("t1", 1), ("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, _shift(_Q, "v1^3 v2^3"),
                  minus=[("t1", 2), ("t1 t2", 1), ("y1", 1)])
    s = s + _frac(v, bound, _shift(_Q, "v1^3 v2^3"), plus=[("y1", 1)],
                  minus=[("t1", 2), ("t1 t2", 1), ("y1", 2)])
    s = s + _frac(v, bound, _shift(_Q, "v1^3 v2^3 y1 y2", 2),
                  minus=[("t1", 2), ("t1 t2", 1), ("y1", 2), ("y1 y2", 1)])
    return s


def _ref_g_squared_of_v1(bound: int) -> Series:
    v = vty(2, 3)
    s = _frac(v, bound, {"v1": 1, "v1^2": 2})
    # v1 v2 block
    s = s + _frac(v, bound, {"v1 v2": 1}, minus=[("y1", 1)])
    s = s + _frac(v, bound, {"v1 v2": 1}, minus=[("y1", 2)])
    # v1^2 v2 block
    s = s + _frac(v, bound, {"v1^2 v2": 3}, minus=[("y1", 1)])
    s = s + _frac(v, bound, {"v1^2 v2": 1}, plus=[("y1", 1)], minus=[("y1", 2)])
    s = s + _frac(v, bound, {"v1^2 v2": 2}, minus=[("y1", 2)])
    # v1^3 v2 block
    s = s + _frac(v, bound, {"v1^3 v2": 4}, minus=[("t1", 1), ("y1", 1)])
    s = s + _frac(v, bound, {"v1^3 v2": 3}, plus=[("y1", 1)],
                  minus=[("t1", 1), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2": 2}, plus=[("t1 y1", 1)],
                  minus=[("t1", 2), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2": 1}, plus=[("t1", 1)],
                  minus=[("t1", 2), ("y1", 1)])
    # v1^3 block (the squared factor belongs on the whole denominator; the
    # source display drops one exponent, a misprint)
    s = s + _frac(v, bound, {"v1^3": 2}, minus=[("t1", 1)])
    s = s + _frac(v, bound, {"v1^3": 1}, minus=[("t1", 2)])
    # v1^2 v2^2 block
    s = s + _frac(v, bound, {"v1^2 v2^2": 2}, minus=[("y1", 1)])
    s = s + _frac(v, bound, {"v1^2 v2^2": 3}, plus=[("y1", 1)], minus=[("y1", 2)])
    s = s + _frac(v, bound, {"v1^2 v2^2 y1 y2": 6},
                  minus=[("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, {"v1^2 v2^2": 1}, plus=[("y1 y2", 1)],
                  minus=[("y1", 2), ("y1 y2", 1)])
    # v1^3 v2^2 block (the last summand is restored here; the source display
    # omits it, which its own downstream totals contradict)
    s = s + _frac(v, bound, {"v1^3 v2^2": 3}, minus=[("t1", 1), ("y1", 1)])
    s = s + _frac(v, bound, {"v1^3 v2^2": 5}, plus=[("y1", 1)],
                  minus=[("t1", 1), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2^2 y1 y2": 10},
                  minus=[("t1", 1), ("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, {"v1^3 v2^2": 2}, plus=[("t1", 1), ("y1", 1)],
                  minus=[("t1", 2), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2^2 y1 y2": 4}, plus=[("t1", 1)],
                  minus=[("t1", 2), ("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, _shift(_S, "v1^3 v2^2"),
                  minus=[("t1", 2), ("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, _shift(_R0, "v1^3 v2^2"),
                  minus=[("t1", 1), ("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, {"v1^3 v2^2": 1}, plus=[("t1", 1)],
                  minus=[("t1", 2), ("y1", 1)])
    # v1^3 v2^3 block
    s = s + _frac(v, bound, {"v1^3 v2^3": 1}, minus=[("t1", 1), ("y1", 1)])
    s = s + _frac(v, bound, {"v1^3 v2^3": 2}, plus=[("y1", 1)],
                  minus=[("t1", 1), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2^3 y1 y2": 4},
                  minus=[("t1", 1), ("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, _shift(_Q, "v1^3 v2^3"),
                  minus=[("t1", 2), ("t1 t2", 1), ("y1", 1)])
    s = s + _frac(v, bound, _shift(_Q, "v1^3 v2^3", 2), plus=[("y1", 1)],
                  minus=[("t1", 2), ("t1 t2", 1), ("y1", 2)])
    s = s + _frac(v, bound, _shift(_Q, "v1^3 v2^3 y1 y2", 4),
                  minus=[("t1", 2), ("t1 t2", 1), ("y1", 2), ("y1 y2", 1)])
    s = s + (_frac(v, bound, _shift(_Q, "v1^3 v2^3"),
                   minus=[("t1", 2), ("t1 t2", 1), ("y1", 2), ("y1 y2", 1)])
             * _poly(v, bound, _R))
    s = s + _frac(v, bound, _shift(_R, "v1^3 v2^3"),
                  minus=[("t1", 1), ("y1", 2), ("y1 y2", 1)])
    return s


def _ref_hook_mult_ut2(bound: int) -> Series:
    v = vty(2, 3)
    s = _frac(v, bound, {"": 1, "v1": 1, "v1^2": 1})
    s = s + _frac(v, bound, {"v1 v2": 1}, minus=[("y1", 1)])
    s = s + _frac(v, bound, {"v1^3": 1}, minus=[("t1", 1)])
    s = s + _frac(v, bound, {"v1^2 v2": 2, "v1^2 v2 y1": -1}, minus=[("y1", 2)])
    # v1^3 v2 block
    s = s + _frac(v, bound, {"v1^3 v2": 1}, minus=[("t1", 1), ("y1", 1)])
    s = s + _frac(v, bound, {"v1^3 v2": 1}, plus=[("y1", 1)],
                  minus=[("t1", 1), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2": 1}, plus=[("t1 y1", 1)],
                  minus=[("t1", 2), ("y1", 2)])
    # v1^2 v2^2 block
    s = s + _frac(v, bound, {"v1^2 v2^2": 2, "v1^2 v2^2 y1": 1}, minus=[("y1", 2)])
    s = s + _frac(v, bound, {"v1^2 v2^2 y1 y2": 4},
                  minus=[("y1", 2), ("y1 y2", 1)])
    # v1^3 v2^2 block
    s = s + _frac(v, bound, {"v1^3 v2^2": 2}, plus=[("y1", 1)],
                  minus=[("t1", 1), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2^2 y1 y2": 4},
                  minus=[("t1", 1), ("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, {"v1^3 v2^2": 1}, plus=[("t1", 1), ("y1", 1)],
                  minus=[("t1", 2), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2^2 y1 y2": 2}, plus=[("t1", 1)],
                  minus=[("t1", 2), ("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, _shift(_S, "v1^3 v2^2"),
                  minus=[("t1", 2), ("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, _shift(_R0, "v1^3 v2^2"),
                  minus=[("t1", 1), ("y1", 2), ("y1 y2", 1)])
    # v1^3 v2^3 block
    s = s + _frac(v, bound, {"v1^3 v2^3": 1}, plus=[("y1", 1)],
                  minus=[("t1", 1), ("y1", 2)])
    s = s + _frac(v, bound, {"v1^3 v2^3 y1 y2": 2},
                  minus=[("t1", 1), ("y1", 2), ("y1 y2", 1)])
    s = s + _frac(v, bound, _shift(_Q, "v1^3 v2^3"), plus=[("y1", 1)],
                  minus=[("t1", 2), ("t1 t2", 1), ("y1", 2)])
    s = s + _frac(v, bound, _shift(_Q, "v1^3 v2^3 y1 y2", 2),
                  minus=[("t1", 2), ("t1 t2", 1), ("y1", 2), ("y1 y2", 1)])
    s = s + (_frac(v, bound, _shift(_Q, "v1^3 v2^3"),
                   minus=[("t1", 2), ("t1 t2", 1), ("y1", 2), ("y1 y2", 1)])
             * _poly(v, bound, _R))
    s = s + _frac(v, bound, _shift(_R, "v1^3 v2^3"),
                  minus=[("t1", 1), ("y1", 2), ("y1 y2", 1)])
    return s


def _ref_hook_mult_ut3(bound: int) -> Series:
    v = vty(1, 1)
    s = _frac(v, bound)
    s = s + _frac(v, bound, {"v1": 1}, minus=[("t1", 1), ("y1", 1)])
    s = s + _frac(v, bound, {"v1": 1, "v1 t1 y1": 4, "v1 t1^2 y1^2": 3},
                  minus=[("t1", 2), ("y1", 2)])
    s = s + _frac(v, bound, {
        "v1": -1, "v1 t1": 1, "v1 y1": 1, "v1 t1 y1": -4,
        "v1 t1^2 y1": 3, "v1 t1 y1^2": 3, "v1 t1^2 y1^2": -5,
        "v1 t1^3 y1^2": 3, "v1 t1^2 y1^3": 3, "v1 t1^3 y1^3": -2,
        "v1 t1^4 y1^3": 1, "v1 t1^3 y1^4": 1,
    }, minus=[("t1", 3), ("y1", 3)])
    return s


_REFERENCE = {
    "M'_E_2vars": _ref_mult_e_two_vars,
    "M'_UT2_2vars": _ref_mult_ut2_two_vars,
    "M'_UT3_2vars": _ref_mult_ut3_two_vars,
    "Mhat_E_11": _ref_hook_mult_e,
    "G1_of_1_H23": _ref_g_of_unit,
    "G2sq_of_1_H23": _ref_g_squared_of_unit,
    "G2sq_of_v1_H23": _ref_g_squared_of_v1,
    "Mhat_UT2_23": _ref_hook_mult_ut2,
    "Mhat_UT3_11": _ref_hook_mult_ut3,
}


def reference_series(name: str, bound: int) -> Series:
    """Exact expansion of a named rational display, truncated at ``bound``."""
    try:
        build = _REFERENCE[name]
    except KeyError:
        raise ValueError(f"unknown reference series {name!r}") from None
    return build(bound)
