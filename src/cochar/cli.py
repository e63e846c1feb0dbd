"""Command line front end.

Subcommands:

* ``hilbert``  — raw series of an algebra in one alphabet (``--vars``) or a
  split pair of alphabets (``--hook``).
* ``mult``     — multiplicity table in ``--vars`` variables, computed along
  one or several routes; JSON also holds the series M(A; T_d), with the
  partitions as exponents (T-form), written from the rows of the table.
* ``hookmult`` — multiplicity table over a (k,l) hook; JSON also holds its
  split-encoded series, written from the rows too.
* ``table``    — the same table job without the series; accepts either
  ``--vars`` or ``--hook``.
* ``verify``   — run a named check suite and report pass/fail per check.

Every route is exact (integer / rational arithmetic throughout); whenever
more than one route is requested the tool insists on exact agreement and
exits nonzero with a diff report otherwise.  Output is deterministic:
repeated runs produce identical bytes.
"""

from __future__ import annotations

import errno
import gc
import os
import re
import sys
from functools import partial
from itertools import chain
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

from .closed_forms import closed_table
from .hilbert import _graded_terms, _sorted_coefficients
from .hooks import _peel, _symmetric_slices, _utn_hook_expansion
from .partitions import _format_partition, _hook_partitions_upto, _split_exps
from .series import ty

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
    m = re.fullmatch(r"UT([1-9][0-9]*)E", tag)
    if m is None:
        raise SpecError(f"unknown algebra {tag!r}: expected E or UTnE with n >= 1")
    return int(m.group(1))


def _parse_hook(text: str) -> tuple[int, int]:
    try:
        k, l = (int(p) for p in text.split(","))
    except ValueError:
        problem = "expected two integers like 2,3"
    else:
        if k >= 1 and l >= 1:
            return k, l
        problem = "both arms must be >= 1"
    import argparse  # for its error type only: a valid hook loads no argparse

    raise argparse.ArgumentTypeError(f"bad hook {text!r}: {problem}")


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


def _closed_tag(n: int, k: int, l: int) -> str | None:
    """Closed-form table for the (k, l) alphabets; one alphabet of d is (d, 0)."""
    if n < 3:
        return "E" if n == 1 else "UT2E"
    return {(3, 1, 0): "UT3E_parts2", (3, 2, 0): "UT3E_parts2",
            (3, 1, 1): "UT3E_hook11"}.get((n, k, l))


def _raw_expansion(n: int, k: int, l: int, trunc: int) -> dict:
    """The decompose route, peeling the raw series at its sorted coefficients:
    the nonzero multiplicity of each hook partition."""
    return _peel(_symmetric_slices(_sorted_coefficients(n, k + l, trunc), k, l), k, l)


def _routes(n: int, k: int, l: int, trunc: int, domain: list) -> dict[str, Callable]:
    """Each route as a thunk giving its multiplicity at every domain partition;
    the domain is canonical and in the hook, so the routes read it unvalidated.
    A computed route gives only nonzero coefficients, so one the domain misses
    fails its route."""
    def read(route: str, coeffs: dict) -> dict:
        got = {lam: coeffs.get(lam, 0) for lam in domain}
        if sum(1 for c in got.values() if c) != len(coeffs):
            lam = min((lam for lam in coeffs if lam not in got), key=lambda p: (sum(p), p))
            raise ValueError(f"{route} route: {_format_partition(lam)} lies outside the domain")
        return got

    routes = {"pipeline": lambda: read("pipeline", _utn_hook_expansion(n, k, l, trunc).coeffs),
              "decompose": lambda: read("decompose", _raw_expansion(n, k, l, trunc))}
    tag = _closed_tag(n, k, l)
    if tag is not None:
        table = closed_table(tag)
        routes["closed-form"] = lambda: {lam: table(lam) or 0 for lam in domain}
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
            diffs.append(f"{_format_partition(lam)}: {parts}")
    return diffs


def _run_routes(n: int, k: int, l: int, trunc: int, method: str) -> tuple[list, dict, list]:
    """Run the ``method`` routes of the (k, l) job over its domain, as every
    table job and the route checks of :mod:`cochar.verify` do: the domain,
    each route's multiplicities and the per-shape diffs of :func:`_compare_routes`."""
    domain = _hook_partitions_upto(trunc, k, l)
    selected = _select_routes(_routes(n, k, l, trunc, domain), method)
    results = {name: route() for name, route in selected.items()}
    return domain, results, _compare_routes(results, domain)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _quote(s: str) -> str:
    """``json.dumps(s)`` for the names and algebra tags a document holds: none needs escapes."""
    return '"' + s + '"'


def _list_json(items: Iterable[str], pad: str) -> str:
    """What ``json.dumps(sort_keys=True, indent=2)`` writes for a list nested
    at ``pad`` whose members it writes as ``items``."""
    inner = "\n" + pad + "  "
    body = ("," + inner).join(items)
    return "[" + inner + body + "\n" + pad + "]" if body else "[]"


def _rows_json(rows: list, names: list[str]) -> str:
    """The ``rows`` member of a table job's JSON document: what ``json.dumps``
    writes for the list of {"partition", "weight", "multiplicity", "routes"}
    dicts, with one format string a row.  The routes block is the same on
    every row, so it is written once.  A multiplicity must be an int."""
    routes = _list_json(map(_quote, names), "      ")
    out = []
    for lam, m in rows:
        if type(m) is not int:
            raise TypeError(f"multiplicity of {lam} is a {type(m).__name__}, not an int")
        part = _list_json(map(str, lam), "      ")
        out.append(f'{{\n      "multiplicity": {m},\n      "partition": {part},\n'
                   f'      "routes": {routes},\n      "weight": {sum(lam)}\n    }}')
    return _list_json(out, "  ")


def _terms_json(terms: Iterable, arity: int, pad: str) -> Iterable[str]:
    """What ``json.dumps`` writes for ``to_obj()`` of a series in ``arity`` variables at
    ``pad``: a chunk a term, ``terms`` in :meth:`Series.sorted_terms` order, each c an int."""
    inner = pad + "    "
    term = (f'%s\n{pad}  {{\n{inner}"den": "1",\n'
            f'{inner}"exp": {_list_json(["%d"] * arity, inner)},\n'
            f'{inner}"num": "%d"\n{pad}  }}')
    sep, close = "[", "[]"
    for exps, c in terms:
        if type(c) is not int:
            raise TypeError(f"coefficient of {exps} is a {type(c).__name__}, not an int")
        yield term % (sep, *exps, c)
        sep, close = ",", "\n" + pad + "]"
    yield close


def _hook_series_json(rows: list, k: int, l: int, trunc: int) -> str:
    """The ``series`` member of a hookmult job's JSON document: what
    ``json.dumps`` writes for ``encode_hook_mult(e).to_obj()``, e the
    expansion of the (k, l) job's nonzero ``rows``.

    to_obj sorts its terms by (|lam|, lam), since the split exponents of lam
    sum to |lam| and assemble back to lam, so each row is split once, in
    that order, and written by one template of 2k + l int slots.  The
    document holds no bound, so ``trunc`` goes unread.
    """
    pad = "        "
    term = ('{\n        "coeff": "%s",\n'
            f'        "lambda0": {_list_json(["%d"] * k, pad)},\n'
            f'        "mu": {_list_json(["%d"] * k, pad)},\n'
            f'        "nu": {_list_json(["%d"] * l, pad)}\n'
            '      }')
    terms = [term % ((m,) + _split_exps(lam, k, l))
             for lam, m in sorted(rows, key=lambda row: (sum(row[0]), row[0]))]
    return (f'{{\n    "hook": {_list_json((str(k), str(l)), "    ")},\n'
            f'    "terms": {_list_json(terms, "    ")}\n  }}')


def _document_json(job: dict, members: dict[str, str]) -> str:
    """A job's JSON document: the job fields, each an int, a str or a list of
    ints, and ``members``, written at indent 2, all in sorted key order."""
    fields = {key: int.__repr__(v) if type(v) is int else _quote(v) if type(v) is str
              else _list_json(map(str, v), "  ") for key, v in job.items()}
    return "{\n  " + ",\n  ".join(f"{_quote(key)}: {text}"
                                    for key, text in sorted((fields | members).items())) + "\n}\n"


def _render_rows(rows: list, names: list[str], fmt: str, job: dict,
                 series: str | None = None) -> str:
    """The table of (partition, multiplicity) rows that ``names`` agree on.

    JSON holds the job's fields, the rows and the series member, if given,
    in sorted key order.  CSV rows are those of ``csv.writer(lineterminator="\\n")``,
    which quotes a field exactly when it holds a comma, as a partition of
    two or more parts does.
    """
    routes = ";".join(names)
    if fmt == "csv":
        lines = ["partition,weight,multiplicity,routes\n"]
        for lam, m in rows:
            p = _format_partition(lam)
            lines.append(f'"{p}",{sum(lam)},{m},{routes}\n' if "," in p
                         else f"{p},{sum(lam)},{m},{routes}\n")
        return "".join(lines)
    if fmt == "json":
        members = {"rows": _rows_json(rows, names)}
        if series is not None:
            members["series"] = series
        return _document_json(job, members)
    lines = [f"{'partition':<18} {'weight':>6} {'multiplicity':>12}  routes"]
    for lam, m in rows:
        lines.append(f"{_format_partition(lam):<18} {sum(lam):>6} {m:>12}  {routes}")
    return "\n".join(lines) + "\n"


def _check_out(out: str | None) -> None:
    """Refuse an ``--out`` path that cannot be written, before any route runs:
    an empty path, a directory, a path whose directory is missing or not
    writable, or a file that is not writable.  The file itself is opened only
    by :func:`_emit`."""
    if out is None:
        return
    parent = os.path.dirname(out) or "."
    if not out:
        err = errno.ENOENT
    elif os.path.isdir(out):
        err = errno.EISDIR
    elif os.path.lexists(out):
        err = 0 if os.access(out, os.W_OK) else errno.EACCES
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        err = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if err:
        raise SpecError(f"cannot write {out}: {os.strerror(err)}")


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write each chunk with one ``write``; a str would go a character at a time."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise SpecError(f"cannot write {out}: {exc.strerror}") from None


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


def _job(args) -> tuple[int, int, int]:
    """The n and the (k, l) hook of a checked request, one alphabet of d
    variables being (d, 0); the mult and hookmult parsers require theirs."""
    n = _parse_algebra(args.algebra)
    _check_guardrails(args, n)
    d, hook = getattr(args, "vars", None), getattr(args, "hook", None)
    if (d is None) == (hook is None):
        raise SpecError(f"{args.command} needs exactly one of --vars or --hook")
    return (n, d, 0) if d is not None else (n, *hook)


def _cmd_hilbert(args) -> int:
    n, k, l = _job(args)
    if args.format == "csv":
        raise SpecError("csv output is defined for multiplicity tables, not raw series")
    # the one step that can fail runs before the first byte is written
    terms = _graded_terms(_sorted_coefficients(n, k + l, args.trunc), k + l, args.trunc)
    if args.format == "json":
        head, tail = _document_json(_job_fields(args), {"series": "\0"}).split("\0")
        _emit(chain((head,), _terms_json(terms, k + l, "  "), (tail,)), args.out)
    else:
        # each variable's pieces "", "t1", "t1^2", ... are built once, not per term
        pieces = [("", name, *(f"{name}^{e}" for e in range(2, args.trunc + 1)))
                  for name in ty(k, l)]
        _emit((f"{' '.join([p[e] for p, e in zip(pieces, exps) if e]) or '1'}: {c}\n"
               for exps, c in terms), args.out)
    return 0


def _mult_series_json(rows: list, d: int, l: int, trunc: int) -> str:
    """The ``series`` member of a mult job's JSON document: what ``json.dumps``
    writes for {"bound", "d", "form": "T", "terms": ``s.to_obj()``} of the
    series s over t_1..t_d of the (d, 0) job's nonzero ``rows``: m t^lam,
    lam padded with zeros to d parts, at each row (lam, m).

    to_obj orders terms by weight, then descending lex, which on partitions
    of at most d parts is the order of the domain and so of ``rows``, so
    they are written in order, unsorted.  ``l`` is 0 and goes unread.
    """
    terms = ((lam + (0,) * (d - len(lam)), m) for lam, m in rows)
    return (f'{{\n    "bound": {trunc},\n    "d": {d},\n    "form": "T",\n'
            f'    "terms": {"".join(_terms_json(terms, d, "    "))}\n  }}')


def _cmd_table(args, series: Callable[[list, int, int, int], str] | None = None) -> int:
    """Run the selected routes over the domain and write the rows they agree
    on; a JSON job also writes ``series`` of those rows."""
    n, k, l = _job(args)
    domain, results, diffs = _run_routes(n, k, l, args.trunc, args.method)
    if diffs:
        print("route disagreement on "
              f"{len(diffs)} shape(s):", file=sys.stderr)
        for line in diffs[:20]:
            print(f"  {line}", file=sys.stderr)
        if len(diffs) > 20:
            print(f"  ... {len(diffs) - 20} more", file=sys.stderr)
        return 1
    names = list(results)
    first = results[names[0]]
    rows = [(lam, first[lam]) for lam in domain if first[lam]]
    embed = series(rows, k, l, args.trunc) if series and args.format == "json" else None
    _emit((_render_rows(rows, names, args.format, _job_fields(args), embed),), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite)
    if args.format == "json":
        import json

        text = json.dumps([r._asdict() for r in results], sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.suite}: {r.name} -- {r.detail}"
                 for r in results]
        failed = sum(1 for r in results if not r.passed)
        lines.append(f"{len(results)} checks, {failed} failed")
        text = "\n".join(lines) + "\n"
    _emit((text,), args.out)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# The command line, declared once: each subcommand's help, driver and options
# in help order, as (name, add_argument keywords).  As in argparse, an option's
# dest is its name without the dashes, and its default is None unless given.
_ALGEBRA = ("--algebra", {"required": True, "help": "E or UTnE (e.g. UT2E)"})
_VARS = ("--vars", {"type": int, "help": "number of variables in the single alphabet"})
_HOOK = ("--hook", {"type": _parse_hook,
                    "help": "hook arms k,l for the split pair of alphabets"})
_TRUNC = ("--trunc", {"type": int, "required": True, "help": "total-degree truncation bound"})
_METHOD = ("--method", {"choices": (*ROUTE_ORDER, "all"),
                        "default": "all",
                        "help": "route(s) to compute; 'all' cross-checks every "
                                "available route (default)"})
_FORMAT = ("--format", {"choices": ("json", "csv", "text"), "default": "text"})
_OUT = ("--out", {"help": "write output to a file"})
_FORCE = ("--force", {"action": "store_true", "default": False,
                      "help": "proceed past the default size guardrails"})


def _required(option: tuple[str, dict]) -> tuple[str, dict]:
    return option[0], dict(option[1], required=True)


COMMANDS = {
    "hilbert": ("raw series of an algebra", _cmd_hilbert,
                (_ALGEBRA, _VARS, _HOOK, _TRUNC, _FORMAT, _OUT, _FORCE)),
    "mult": ("multiplicity table in d variables",
             partial(_cmd_table, series=_mult_series_json),
             (_ALGEBRA, _required(_VARS), _TRUNC, _METHOD, _FORMAT, _OUT, _FORCE)),
    "hookmult": ("multiplicity table over a hook",
                 partial(_cmd_table, series=_hook_series_json),
                 (_ALGEBRA, _required(_HOOK), _TRUNC, _METHOD, _FORMAT, _OUT, _FORCE)),
    "table": ("route-agreement table", _cmd_table,
              (_ALGEBRA, _VARS, _HOOK, _TRUNC, _METHOD, _FORMAT, _OUT, _FORCE)),
    "verify": ("run a check suite", _cmd_verify,
               (("--suite", {"choices": ("invariants", "acceptance", "all"),
                             "default": "invariants"}),
                ("--format", {"choices": ("json", "text"), "default": "text"}),
                ("--out", {}))),
}


def _build_parser():
    """The argparse parser of :data:`COMMANDS`, which words help, usage and
    every error; it is imported here, so a valid job never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cochar",
        description="exact cocharacter-series computations with cross-route checking")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, driver, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, keywords in options:
            p.add_argument(name, **keywords)
        p.set_defaults(driver=driver)
    return parser


def _parse_strict(argv: Sequence[str]) -> SimpleNamespace | None:
    """What ``_build_parser().parse_args(argv)`` returns, where argv needs
    none of argparse's own rules: a subcommand, then exact option names, each
    once, flags alone and other options with one value that does not start
    with ``-`` and passes its converter and choices, and every required
    option.  ``None`` for any other list, such as help, abbreviations,
    ``--opt=value``, repeats and bad values, which argparse parses."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, driver, options = COMMANDS[argv[0]]
    table = dict(options)
    given = {}
    words = iter(argv[1:])
    for name in words:
        keywords = table.get(name)
        if keywords is None or name in given:
            return None
        if keywords.get("action") == "store_true":
            given[name] = True
            continue
        text = next(words, "-")  # a missing value is refused as one starting with -
        if text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # argparse raises or words it again
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[name] = value
    if any(keywords.get("required") and name not in given for name, keywords in options):
        return None
    return SimpleNamespace(command=argv[0], driver=driver,
                           **{name[2:]: given.get(name, keywords.get("default"))
                              for name, keywords in options})


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_strict(argv) or _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.driver(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """Process entry point of ``cochar`` and ``python -m cochar.cli``.

    It runs :func:`main` with the cyclic collector off, since the package
    makes no reference cycles, and then freezes the heap, also when argparse
    exits, so that the collection at interpreter exit visits nothing.
    :func:`main` leaves the collector alone: tests and tracers call it
    in-process and go on running.  A reader of stdout that leaves early,
    as ``head`` does, ends the job with exit 1 and no traceback.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()  # a reader that left raises here, not at exit
        return code
    except BrokenPipeError:
        # as the SIGPIPE note of the signal docs does: the flush at exit
        # writes what is left to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
