"""Integer partitions, Young-diagram predicates, and hook coordinates.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``.  The public functions validate and normalize their input
through :func:`partition`, which strips trailing zeros.  Internal paths pass
canonical tuples: the private strip walks trust theirs and call no
:func:`partition`.  Every enumerator lists the partitions of a (k, l) hook
from a memo of their tails; at most d parts is the (d, 0) hook.  A hook
partition is encoded by the one flat exponent vector of :func:`_split_exps`.

One walk adds horizontal or vertical strips.  It steps over the runs of
equal parts of a partition, not its rows, and adds a coefficient at each
strip it reaches straight into the caller's dict, in increasing
lexicographic order, of every size up to a budget or of the even sizes
only.  The public strip generators validate once and keep a walk's results
of one size.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterator, Sequence


def partition(parts: Sequence[int]) -> tuple[int, ...]:
    """Normalize ``parts`` to a canonical partition tuple.

    Trailing zeros are stripped.  Raises ``ValueError`` for a part that is no
    ``int`` (a float or a bool), and for negative or increasing part lists.
    """
    raw = tuple(parts)
    for p in raw:
        if type(p) is not int:
            raise ValueError(f"part {p!r} of {parts!r} is not an integer")
        if p < 0:
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
    return _conjugate(partition(lam))


def _conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """:func:`conjugate` of a weakly decreasing tuple, trailing zeros allowed.

    One pass from the last row up: the columns past the part below row i
    and up to the part of row i have length i.
    """
    out: list[int] = []
    width = 0
    for i in range(len(lam), 0, -1):
        p = lam[i - 1]
        if p > width:
            out += [i] * (p - width)
            width = p
    return tuple(out)


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


def _split_exps(lam: tuple[int, ...], k: int, l: int) -> tuple[int, ...]:
    """Exponents v^rectangle t^arm y^leg of a canonical partition in the
    (k, l) hook: its first k rows cut at l, their overhangs past l, and the
    first l column lengths below row k, padded with zeros."""
    head = lam[:k] + (0,) * (k - len(lam))
    return (tuple(min(p, l) for p in head) + tuple(max(p - l, 0) for p in head)
            + (_conjugate(lam[k:]) + (0,) * l)[:l])


def _assemble_exps(exps: tuple[int, ...], k: int, l: int) -> tuple[int, ...]:
    """The rows that a split exponent vector encodes; the partition of a
    well-formed one (inverse of :func:`_split_exps`)."""
    rows = tuple(a + b for a, b in zip(exps[:k], exps[k:2 * k]) if a + b)
    nu = exps[2 * k:]
    return rows + tuple(sum(1 for v in nu if v > i) for i in range(nu[0] if nu else 0))


def partitions_of(n: int, max_parts: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of ``n`` into at most ``max_parts`` parts, in descending
    lex order: those of the (max_parts, 0) hook."""
    return hook_partitions_of(n, max(n, 0) if max_parts is None else max_parts, 0)


def partitions_upto(n: int, max_parts: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of weight at most ``n``, ordered by weight."""
    return _hook_partitions_upto(n, max(n, 0) if max_parts is None else max_parts, 0)


def hook_partitions_of(n: int, k: int, l: int) -> list[tuple[int, ...]]:
    """Partitions of ``n`` inside the (k, l) hook, in descending lex order.

    They are generated directly, every part below row k at most l, from the
    tails of each remaining weight, largest part and row (capped at k).
    """
    if k < 0 or l < 0:
        raise ValueError("hook parameters must be nonnegative")
    return _hook_tails(n, n, 0, k, l, {})


def _hook_partitions_upto(bound: int, k: int, l: int) -> list[tuple[int, ...]]:
    """:func:`hook_partitions_of` of each weight up to ``bound`` in turn, from
    one memo of tails."""
    if k < 0 or l < 0:
        raise ValueError("hook parameters must be nonnegative")
    memo: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
    return [lam for n in range(bound + 1) for lam in _hook_tails(n, n, 0, k, l, memo)]


def _hook_tails(rem: int, cap: int, row: int, k: int, l: int,
                memo: dict[tuple[int, int, int], list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """The rows from index ``row`` on (counted up to k) of the (k, l) hook
    partitions: ``rem`` boxes in parts of at most ``cap``, memoized in ``memo``."""
    if rem == 0:
        return [()]
    if row == k:
        cap = min(cap, l)
    key = (rem, cap, row)
    out = memo.get(key)
    if out is None:
        below = min(row + 1, k)
        out = memo[key] = [(p,) + t for p in range(min(cap, rem), 0, -1)
                           for t in _hook_tails(rem - p, p, below, k, l, memo)]
    return out


@cache
def _growths(v: int, r: int, top: int, vertical: bool) -> tuple[tuple[int, ...], ...]:
    """A run of r parts v with x = 0..top boxes added, in increasing order:
    on its first row for a horizontal strip, one on each of its top x rows
    for a vertical one."""
    if vertical:
        return tuple((v + 1,) * x + (v,) * (r - x) for x in range(top + 1))
    return tuple((v + x,) + (v,) * (r - 1) for x in range(top + 1))


@cache
def _new_rows(top: int, vertical: bool) -> tuple[tuple[int, ...], ...]:
    """x = 0..top boxes in new rows: x rows of one box, or one row of x."""
    return tuple((1,) * x if vertical else (x,) if x else () for x in range(top + 1))


def _walk(lam: tuple[int, ...], k: int, l: int, budget: int, c, acc: dict,
          even: bool, vertical: bool) -> None:
    """Add ``c`` at ``acc[nu]`` for every nu in the (k, l) hook with nu/lam a
    strip of at most ``budget`` boxes (of an even number with ``even``), in
    increasing lexicographic order of the rows.

    The walk steps over the runs of equal parts of ``lam``, a canonical
    partition inside the hook, and then over the new rows below it; each
    run's choices grow lexicographically with the boxes they add.  Rows from
    index k on stay at most l.  A horizontal strip keeps row i of nu between
    lam[i] and lam[i-1], so of a run only the first row can grow, and it adds
    at most one row.  A vertical strip grows each row by at most one box, so
    a run grows its top rows, and a run of parts l only its rows above index
    k; its new rows hold one box each, and a (k, 0) hook allows no row past
    the k-th.
    """
    steps: list[tuple[tuple[int, ...], ...]] = []
    tails: list[tuple[int, ...]] = []
    i, n = 0, len(lam)
    while i < n:
        v, j = lam[i], i + 1
        while j < n and lam[j] == v:
            j += 1
        if vertical:
            top = min(j - i if v < l else max(0, k - i), j - i, budget)
        else:
            top = min(lam[i - 1] - v, budget) if i else budget
            if i >= k:
                top = min(top, l - v)
        steps.append(_growths(v, j - i, top, vertical))
        tails.append(lam[i:])
        i = j
    tails.append(())
    if vertical:
        top = min(budget, max(0, k - n)) if l == 0 else budget
    else:
        top = min(lam[-1], budget) if lam else budget
        if n >= k:
            top = min(top, l)
    full = not (even and budget & 1)  # whether a nu that spends the budget counts
    _walk_runs(0, budget, (), steps, tails, _new_rows(top, vertical), budget, even, full, c, acc)


def _walk_runs(j: int, rem: int, head: tuple[int, ...], steps: list, tails: list,
               below: tuple, budget: int, even: bool, full: bool, c, acc: dict) -> None:
    """:func:`_walk` from run j on, with ``rem`` boxes left and the rows
    ``head`` grown so far."""
    if j == len(steps):
        for rows in below[(budget - rem) & 1:rem + 1:2] if even else below[:rem + 1]:
            nu = head + rows
            acc[nu] = acc.get(nu, 0) + c
        return
    run = steps[j]
    for x, rows in enumerate(run[:rem]):
        _walk_runs(j + 1, rem - x, head + rows, steps, tails, below, budget, even, full, c, acc)
    if len(run) > rem and full:  # run j spends the budget
        nu = head + run[rem] + tails[j + 1]
        acc[nu] = acc.get(nu, 0) + c


def _strips(vertical: bool, lam: Sequence[int], size: int,
            hook: tuple[int, int] | None) -> Iterator[tuple[int, ...]]:
    """The results of :func:`_walk` of exactly ``size`` boxes.

    Without a hook, a (k, 0) hook with more rows than any result stands in.
    """
    lam = partition(lam)
    if size < 0:
        return
    k, l = hook if hook is not None else (len(lam) + size + 1, 0)
    if len(lam) > k and lam[k] > l:
        return
    acc: dict[tuple[int, ...], int] = {}
    _walk(lam, k, l, size, 1, acc, False, vertical)
    target = sum(lam) + size
    yield from (nu for nu in acc if sum(nu) == target)


def horizontal_strips(lam: Sequence[int], size: int,
                      hook: tuple[int, int] | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions obtained from ``lam`` by adding a horizontal strip of ``size`` boxes.

    No two added boxes share a column.  With ``hook=(k, l)`` only results
    inside the (k, l) hook are made, i.e. with row k+1 at most l: ``(d, 0)``
    allows at most d rows and ``(0, m)`` parts at most m.  The walk never
    builds a row outside the hook.
    """
    return _strips(False, lam, size, hook)


def vertical_strips(lam: Sequence[int], size: int,
                    hook: tuple[int, int] | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions obtained from ``lam`` by adding a vertical strip of ``size`` boxes.

    No two added boxes share a row, i.e. each row grows by at most one box.
    ``hook`` restricts the results as in :func:`horizontal_strips`.
    """
    return _strips(True, lam, size, hook)


def _format_partition(lam: tuple[int, ...]) -> str:
    """A canonical partition tuple as ``"[4,2,1]"``, ``"[]"`` if empty."""
    return "[" + ",".join(map(str, lam)) + "]"
