"""Integer partitions, Young-diagram predicates, and hook coordinates.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``.  All functions normalize their input through
:func:`partition`, which strips trailing zeros.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence


def partition(parts: Sequence[int]) -> tuple[int, ...]:
    """Normalize ``parts`` to a canonical partition tuple.

    Trailing zeros are stripped.  Raises ``ValueError`` for negative or
    increasing part lists.
    """
    raw = tuple(int(p) for p in parts)
    if any(p < 0 for p in raw):
        raise ValueError(f"negative part in {parts!r}")
    if any(raw[i] < raw[i + 1] for i in range(len(raw) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts!r}")
    return tuple(p for p in raw if p > 0)


def weight(lam: Sequence[int]) -> int:
    return sum(partition(lam))


def part_at(lam: Sequence[int], i: int) -> int:
    """The ``i``-th part, 1-indexed; zero beyond the last row."""
    lam = partition(lam)
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def conjugate(lam: Sequence[int]) -> tuple[int, ...]:
    """Transpose of the Young diagram (column lengths)."""
    lam = partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def contains(outer: Sequence[int], inner: Sequence[int]) -> bool:
    """Diagram containment ``inner`` inside ``outer``."""
    outer, inner = partition(outer), partition(inner)
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def char_degree(lam: Sequence[int]) -> int:
    """Number of standard Young tableaux of shape ``lam`` (hook lengths)."""
    lam = partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    d, rem = divmod(math.factorial(n), hooks)
    if rem:  # hook length formula always divides exactly
        raise AssertionError(f"hook product does not divide {n}! for {lam}")
    return d


def in_hook(lam: Sequence[int], k: int, l: int) -> bool:
    """Membership in the (k, l) hook: at most ``l`` columns below row ``k``."""
    if k < 0 or l < 0:
        raise ValueError("hook parameters must be nonnegative")
    return part_at(lam, k + 1) <= l


def in_extended_hook(lam: Sequence[int], n: int) -> bool:
    """Hook H(n, n) widened by an n-by-n square below its corner.

    Holds iff row n+1 has at most 2n boxes and row 2n+1 at most n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return part_at(lam, n + 1) <= 2 * n and part_at(lam, 2 * n + 1) <= n


def square_overlap(lam: Sequence[int], n: int) -> int:
    """Number of boxes in the (n-1)-square whose top-left box is (n+1, n+1)."""
    if n < 1:
        raise ValueError("n must be positive")
    lam = partition(lam)
    total = 0
    for i in range(n + 1, 2 * n):  # rows n+1 .. 2n-1
        total += max(0, min(part_at(lam, i), 2 * n - 1) - n)
    return total


class HookSplit(NamedTuple):
    """Hook coordinates of a partition inside the (k, l) hook.

    ``lambda0`` is the intersection with the l^k rectangle, ``mu`` collects
    the row overhangs right of the rectangle, and ``nu`` is the conjugate of
    the rows below it (so ``nu`` has at most ``l`` parts).
    """

    k: int
    l: int
    lambda0: tuple[int, ...]
    mu: tuple[int, ...]
    nu: tuple[int, ...]


def split_hook(lam: Sequence[int], k: int, l: int) -> HookSplit:
    """Split ``lam`` in H(k, l) into rectangle part, arm, and conjugated leg."""
    lam = partition(lam)
    if not in_hook(lam, k, l):
        raise ValueError(f"{lam} is not inside the ({k}, {l}) hook")
    head = lam[:k]
    lambda0 = tuple(min(p, l) for p in head if min(p, l) > 0)
    mu = tuple(p - l for p in head if p > l)
    nu = conjugate(lam[k:])
    return HookSplit(k, l, lambda0, mu, nu)


def assemble_hook(split: HookSplit) -> tuple[int, ...]:
    """Inverse of :func:`split_hook`; raises ``ValueError`` on invalid triples."""
    k, l, lambda0, mu, nu = split
    lambda0, mu, nu = partition(lambda0), partition(mu), partition(nu)
    if len(lambda0) > k or any(p > l for p in lambda0):
        raise ValueError(f"lambda0 {lambda0} exceeds the {l}^{k} rectangle")
    if len(mu) > k:
        raise ValueError(f"arm {mu} has more than {k} parts")
    if len(nu) > l:
        raise ValueError(f"leg conjugate {nu} has more than {l} parts")
    # arm rows must sit against full rectangle rows
    for i in range(len(mu)):
        if part_at(lambda0, i + 1) != l:
            raise ValueError(f"arm row {i + 1} of {mu} not backed by a full row of {lambda0}")
    rows = []
    for i in range(1, k + 1):
        r = part_at(lambda0, i) + part_at(mu, i)
        if r > 0:
            rows.append(r)
    below = conjugate(nu)
    if below and k > 0 and (len(rows) < k or rows[-1] < below[0]):
        raise ValueError(f"leg {below} does not fit under rectangle part {lambda0}")
    lam = partition(tuple(rows) + below)
    if split_hook(lam, k, l)[2:] != (lambda0, mu, nu):
        raise ValueError(f"({lambda0}, {mu}, {nu}) is not a valid ({k}, {l}) split")
    return lam


def partitions_of(n: int, max_parts: int | None = None,
                  max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of ``n`` with the given bounds, in descending lex order."""
    if n < 0:
        return
    first = n if max_part is None else min(n, max_part)
    rows = n if max_parts is None else max_parts

    def rec(rem: int, cap: int, slots: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if rem == 0:
            yield tuple(acc)
            return
        if slots == 0 or cap == 0:
            return
        for p in range(min(cap, rem), 0, -1):
            acc.append(p)
            yield from rec(rem - p, p, slots - 1, acc)
            acc.pop()

    yield from rec(n, first, rows, [])


def partitions_upto(n: int, max_parts: int | None = None,
                    max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of weight at most ``n``, ordered by weight."""
    for w in range(n + 1):
        yield from partitions_of(w, max_parts, max_part)


def hook_partitions_of(n: int, k: int, l: int) -> list[tuple[int, ...]]:
    """Partitions of ``n`` inside the (k, l) hook."""
    out = []
    for lam in partitions_of(n):
        if in_hook(lam, k, l):
            out.append(lam)
    return out


def _strip_rows(lam: tuple[int, ...], nrows: int,
                hook: tuple[int, int] | None) -> int | None:
    """Rows a strip on ``lam`` may fill, or ``None`` when ``lam`` leaves the hook.

    A (k, 0) hook holds at most k rows.
    """
    if hook is None:
        return nrows
    k, l = hook
    if len(lam) > k and lam[k] > l:
        return None
    return min(nrows, k) if l == 0 else nrows


def horizontal_strips(lam: Sequence[int], size: int,
                      hook: tuple[int, int] | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions obtained from ``lam`` by adding a horizontal strip of ``size`` boxes.

    No two added boxes share a column.  With ``hook=(k, l)`` only results
    inside the (k, l) hook are made, i.e. with row k+1 at most l: ``(d, 0)``
    allows at most d rows and ``(0, m)`` parts at most m.  The recursion
    never builds a row outside the hook.
    """
    lam = partition(lam)
    if size < 0:
        return
    nrows = _strip_rows(lam, len(lam) + 1, hook)
    if nrows is None:
        return
    padded = lam + (0,) * (nrows - len(lam))
    k, l = hook if hook is not None else (nrows, 0)  # no row reaches index nrows

    def rec(i: int, budget: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if i == nrows:
            if budget == 0:
                yield tuple(v for v in acc if v)
            return
        low = padded[i]
        cap = padded[i - 1] if i > 0 else low + budget
        if i >= k:
            cap = min(cap, l)
        for v in range(low, min(cap, low + budget) + 1):
            acc.append(v)
            yield from rec(i + 1, budget - (v - low), acc)
            acc.pop()

    yield from rec(0, size, [])


def vertical_strips(lam: Sequence[int], size: int,
                    hook: tuple[int, int] | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions obtained from ``lam`` by adding a vertical strip of ``size`` boxes.

    No two added boxes share a row, i.e. each row grows by at most one box.
    ``hook`` restricts the results as in :func:`horizontal_strips`.
    """
    lam = partition(lam)
    if size < 0:
        return
    nrows = _strip_rows(lam, len(lam) + size, hook)
    if nrows is None:
        return
    padded = lam + (0,) * (nrows - len(lam))
    k, l = hook if hook is not None else (nrows, 0)  # no row reaches index nrows

    def rec(i: int, budget: int, prev: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if i >= len(lam) and budget == 0:
            yield tuple(acc)  # remaining rows stay empty
            return
        if budget > nrows - i:  # each remaining row takes at most one box
            return
        base = padded[i]
        for eps in (0, 1):
            v = base + eps
            if eps > budget or v > prev or v == 0:
                continue
            if i >= k and v > l:
                continue
            acc.append(v)
            yield from rec(i + 1, budget - eps, v, acc)
            acc.pop()

    big = sum(lam) + size + 1
    yield from rec(0, size, big, [])


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse ``"[4,2,1]"`` (or ``"4,2,1"``; ``"[]"`` is empty)."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    try:
        return partition([int(tok) for tok in s.split(",")])
    except ValueError as exc:
        raise ValueError(f"cannot parse partition from {text!r}: {exc}") from None


def format_partition(lam: Sequence[int]) -> str:
    return "[" + ",".join(str(p) for p in partition(lam)) + "]"
