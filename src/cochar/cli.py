"""Command line front end.

Subcommands:

* ``hilbert``  — raw series of an algebra in one alphabet (``--vars``) or a
  split pair of alphabets (``--hook``).
* ``mult``     — multiplicity table in ``--vars`` variables, computed along
  one or several routes.
* ``hookmult`` — multiplicity table over a (k,l) hook.
* ``table``    — route-agreement table; accepts either ``--vars`` or
  ``--hook`` and defaults to comparing every available route.
* ``verify``   — run a named check suite and report pass/fail per check.

Every route is exact (integer / rational arithmetic throughout); whenever
more than one route is requested the tool insists on exact agreement and
exits nonzero with a diff report otherwise.  Output is deterministic:
repeated runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

from .closed_forms import closed_multiplicity
from .hilbert import utn_double_hilbert, utn_hilbert, utn_mult_series
from .hooks import hs_decompose, utn_hook_mult_series
from .partitions import format_partition, hook_partitions_of, partitions_upto
from .verify import run_suite

# Soft limits.  Past these the computations still work, they just get slow;
# the tool refuses unless --force is given, and then proceeds exactly as
# asked (it never silently lowers a bound).
GUARD_N = 4
GUARD_HOOK = 4
GUARD_VARS = 8
GUARD_TRUNC = 24

ROUTE_ORDER = ("pipeline", "decompose", "closed-form")


class SpecError(Exception):
    """The request itself is malformed or out of range."""


def _parse_algebra(tag: str) -> int:
    if tag == "E":
        return 1
    m = re.fullmatch(r"UT(\d+)E", tag)
    if m is None or int(m.group(1)) < 1:
        raise SpecError(f"unknown algebra {tag!r}: expected E or UTnE with n >= 1")
    return int(m.group(1))


def _parse_hook(text: str) -> tuple[int, int]:
    pieces = text.split(",")
    try:
        k, l = (int(p) for p in pieces)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad hook {text!r}: expected two integers like 2,3") from None
    if k < 1 or l < 1:
        raise argparse.ArgumentTypeError(
            f"bad hook {text!r}: both arms must be >= 1")
    return k, l


def _check_guardrails(args, n: int) -> None:
    if args.trunc < 0:
        raise SpecError("--trunc must be >= 0")
    breaches = []
    if n > GUARD_N:
        breaches.append(f"n={n} exceeds the default limit {GUARD_N}")
    if args.trunc > GUARD_TRUNC:
        breaches.append(f"--trunc {args.trunc} exceeds the default limit {GUARD_TRUNC}")
    hook = getattr(args, "hook", None)
    if hook is not None:
        k, l = hook
        if max(k, l) > GUARD_HOOK:
            breaches.append(f"hook ({k},{l}) exceeds the default limit {GUARD_HOOK}")
    d = getattr(args, "vars", None)
    if d is not None and d > GUARD_VARS:
        breaches.append(f"--vars {d} exceeds the default limit {GUARD_VARS}")
    if d is not None and d < 1:
        raise SpecError("--vars must be >= 1")
    if not breaches:
        return
    if getattr(args, "force", False):
        for b in breaches:
            print(f"warning: {b}; proceeding as requested (--force)", file=sys.stderr)
    else:
        raise SpecError("; ".join(breaches) + " (pass --force to proceed anyway)")


# ---------------------------------------------------------------------------
# route computation
# ---------------------------------------------------------------------------


def _closed_mult_tag(n: int, d: int) -> str | None:
    if n == 1:
        return "E"
    if n == 2:
        return "UT2E_parts2" if d == 2 else "UT2E"
    if n == 3 and d == 2:
        return "UT3E_parts2"
    return None


def _closed_hook_tag(n: int, k: int, l: int) -> str | None:
    if n == 1:
        return "E"
    if n == 2:
        return "UT2E"
    if n == 3 and (k, l) == (1, 1):
        return "UT3E_hook11"
    return None


def _mult_routes(n: int, d: int, trunc: int, domain: list[tuple[int, ...]],
                 series: Callable) -> dict[str, Callable]:
    def pipeline():
        ms = series()
        return {lam: ms.coefficient(lam) for lam in domain}

    def decompose():
        exp = hs_decompose(utn_hilbert(n, d, trunc), d, 0)
        return {lam: exp.coefficient(lam) for lam in domain}

    routes = {"pipeline": pipeline, "decompose": decompose}
    tag = _closed_mult_tag(n, d)
    if tag is not None:
        routes["closed-form"] = lambda: {
            lam: closed_multiplicity(tag, lam) or 0 for lam in domain}
    return routes


def _hook_routes(n: int, k: int, l: int, trunc: int, domain: list[tuple[int, ...]],
                 series: Callable) -> dict[str, Callable]:
    def pipeline():
        hm = series()
        return {lam: hm.coefficient(lam) for lam in domain}

    def decompose():
        exp = hs_decompose(utn_double_hilbert(n, k, l, trunc), k, l)
        return {lam: exp.coefficient(lam) for lam in domain}

    routes = {"pipeline": pipeline, "decompose": decompose}
    tag = _closed_hook_tag(n, k, l)
    if tag is not None:
        routes["closed-form"] = lambda: {
            lam: closed_multiplicity(tag, lam) or 0 for lam in domain}
    return routes


def _select_routes(routes: dict[str, Callable], method: str) -> dict[str, Callable]:
    if method == "all":
        return {name: routes[name] for name in ROUTE_ORDER if name in routes}
    if method not in routes:
        raise SpecError(f"no {method} route for this algebra/variable combination")
    return {method: routes[method]}


def _compare_routes(results: dict[str, dict],
                    domain: list[tuple[int, ...]]) -> list[str]:
    diffs = []
    names = list(results)
    for lam in domain:
        vals = {name: results[name][lam] for name in names}
        if len(set(vals.values())) > 1:
            parts = ", ".join(f"{name}={vals[name]}" for name in names)
            diffs.append(f"{format_partition(lam)}: {parts}")
    return diffs


def _build_rows(results: dict[str, dict], domain: list[tuple[int, ...]]):
    names = list(results)
    first = results[names[0]]
    rows = []
    for lam in domain:
        m = first[lam]
        if m:
            rows.append((lam, sum(lam), m, names))
    return rows


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _format_monomial(names: Sequence[str], exps: Sequence[int]) -> str:
    pieces = []
    for name, e in zip(names, exps):
        if e == 1:
            pieces.append(name)
        elif e:
            pieces.append(f"{name}^{e}")
    return " ".join(pieces) if pieces else "1"


def _render_rows(rows, fmt: str, job: dict, extra: dict | None = None) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["partition", "weight", "multiplicity", "routes"])
        for lam, w, m, names in rows:
            writer.writerow([format_partition(lam), w, m, ";".join(names)])
        return buf.getvalue()
    if fmt == "json":
        obj = dict(job)
        obj["rows"] = [{"partition": list(lam), "weight": w, "multiplicity": m,
                        "routes": list(names)} for lam, w, m, names in rows]
        if extra:
            obj.update(extra)
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    lines = [f"{'partition':<18} {'weight':>6} {'multiplicity':>12}  routes"]
    for lam, w, m, names in rows:
        lines.append(f"{format_partition(lam):<18} {w:>6} {m:>12}  {';'.join(names)}")
    return "\n".join(lines) + "\n"


def _render_series(series, fmt: str, job: dict) -> str:
    if fmt == "json":
        obj = dict(job)
        obj["series"] = series.to_obj()
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        raise SpecError("csv output is defined for multiplicity tables, not raw series")
    lines = []
    for exps, c in series.sorted_terms():
        coeff = c if isinstance(c, int) else Fraction(c)
        lines.append(f"{_format_monomial(series.vars.names, exps)}: {coeff}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------


def _job_fields(args) -> dict:
    job = {"command": args.command, "algebra": args.algebra, "trunc": args.trunc}
    if getattr(args, "vars", None) is not None:
        job["vars"] = args.vars
    if getattr(args, "hook", None) is not None:
        job["hook"] = list(args.hook)
    if hasattr(args, "method"):
        job["method"] = args.method
    return job


def _cmd_hilbert(args) -> int:
    n = _parse_algebra(args.algebra)
    _check_guardrails(args, n)
    if (args.vars is None) == (args.hook is None):
        raise SpecError("hilbert needs exactly one of --vars or --hook")
    if args.vars is not None:
        series = utn_hilbert(n, args.vars, args.trunc)
    else:
        k, l = args.hook
        series = utn_double_hilbert(n, k, l, args.trunc)
    _emit(_render_series(series, args.format, _job_fields(args)), args.out)
    return 0


def _table_driver(args, routes_factory, domain, extra_factory=None) -> int:
    selected = _select_routes(routes_factory(), args.method)
    results = {name: route() for name, route in selected.items()}
    diffs = _compare_routes(results, domain)
    if diffs:
        print("route disagreement on "
              f"{len(diffs)} shape(s):", file=sys.stderr)
        for line in diffs[:20]:
            print(f"  {line}", file=sys.stderr)
        if len(diffs) > 20:
            print(f"  ... {len(diffs) - 20} more", file=sys.stderr)
        return 1
    rows = _build_rows(results, domain)
    extra = extra_factory() if extra_factory and args.format == "json" else None
    _emit(_render_rows(rows, args.format, _job_fields(args), extra), args.out)
    return 0


def _hook_domain(k: int, l: int, trunc: int) -> list[tuple[int, ...]]:
    return [lam for w in range(trunc + 1) for lam in hook_partitions_of(w, k, l)]


def _cmd_mult(args) -> int:
    n = _parse_algebra(args.algebra)
    _check_guardrails(args, n)
    domain = list(partitions_upto(args.trunc, max_parts=args.vars))
    # one pipeline run serves both the route and the JSON embed
    series = cache(lambda: utn_mult_series(n, args.vars, args.trunc))

    def extra():
        ms = series()
        return {"series": {"form": ms.form, "d": ms.d, "bound": ms.bound,
                           "terms": ms.series.to_obj()}}

    return _table_driver(
        args, lambda: _mult_routes(n, args.vars, args.trunc, domain, series),
        domain, extra)


def _cmd_hookmult(args) -> int:
    n = _parse_algebra(args.algebra)
    _check_guardrails(args, n)
    k, l = args.hook
    domain = _hook_domain(k, l, args.trunc)
    series = cache(lambda: utn_hook_mult_series(n, k, l, args.trunc))
    return _table_driver(
        args, lambda: _hook_routes(n, k, l, args.trunc, domain, series),
        domain, lambda: {"series": series().to_obj()})


def _cmd_table(args) -> int:
    n = _parse_algebra(args.algebra)
    _check_guardrails(args, n)
    if (args.vars is None) == (args.hook is None):
        raise SpecError("table needs exactly one of --vars or --hook")
    if args.vars is not None:
        domain = list(partitions_upto(args.trunc, max_parts=args.vars))
        series = lambda: utn_mult_series(n, args.vars, args.trunc)
        factory = lambda: _mult_routes(n, args.vars, args.trunc, domain, series)
    else:
        k, l = args.hook
        domain = _hook_domain(k, l, args.trunc)
        series = lambda: utn_hook_mult_series(n, k, l, args.trunc)
        factory = lambda: _hook_routes(n, k, l, args.trunc, domain, series)
    return _table_driver(args, factory, domain)


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    if args.format == "json":
        obj = [{"suite": r.suite, "name": r.name, "passed": r.passed,
                "detail": r.detail} for r in results]
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.suite}: {r.name} -- {r.detail}"
                 for r in results]
        failed = sum(1 for r in results if not r.passed)
        lines.append(f"{len(results)} checks, {failed} failed")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cochar",
        description="exact cocharacter-series computations with cross-route checking")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, methods=True, needs_vars=False, needs_hook=False, free=False):
        p.add_argument("--algebra", required=True,
                       help="E or UTnE (e.g. UT2E)")
        if needs_vars or free:
            p.add_argument("--vars", type=int, default=None,
                           required=needs_vars and not free,
                           help="number of variables in the single alphabet")
        if needs_hook or free:
            p.add_argument("--hook", type=_parse_hook, default=None,
                           required=needs_hook and not free,
                           help="hook arms k,l for the split pair of alphabets")
        p.add_argument("--trunc", type=int, required=True,
                       help="total-degree truncation bound")
        if methods:
            p.add_argument("--method",
                           choices=("pipeline", "decompose", "closed-form", "all"),
                           default="all",
                           help="route(s) to compute; 'all' cross-checks every "
                                "available route (default)")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--force", action="store_true",
                       help="proceed past the default size guardrails")

    p_hilbert = sub.add_parser("hilbert", help="raw series of an algebra")
    common(p_hilbert, methods=False, free=True)
    p_hilbert.set_defaults(driver=_cmd_hilbert)

    p_mult = sub.add_parser("mult", help="multiplicity table in d variables")
    common(p_mult, needs_vars=True)
    p_mult.set_defaults(driver=_cmd_mult)

    p_hookmult = sub.add_parser("hookmult", help="multiplicity table over a hook")
    common(p_hookmult, needs_hook=True)
    p_hookmult.set_defaults(driver=_cmd_hookmult)

    p_table = sub.add_parser("table", help="route-agreement table")
    common(p_table, free=True)
    p_table.set_defaults(driver=_cmd_table)

    p_verify = sub.add_parser("verify", help="run a check suite")
    p_verify.add_argument("--suite", choices=("invariants", "acceptance", "all"),
                          default="invariants")
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(driver=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.driver(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
