import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cochar import cli
from cochar.hilbert import utn_double_hilbert, utn_hilbert, utn_mult_series
from cochar.hooks import decode_hook_mult, encode_hook_mult, utn_hook_mult_series, HookExpansion
from cochar.series import Series, ty
from test_hooks import time_limit


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _subprocess(argv, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True)


def test_mult_all_routes(capsys):
    code, out, err = run(["mult", "--algebra", "UT2E", "--vars", "2",
                          "--trunc", "8", "--method", "all"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["partition", "weight", "multiplicity", "routes"]
    row = next(l for l in lines if l.startswith("[5,2]"))
    assert row.split() == ["[5,2]", "7", "11", "pipeline;decompose;closed-form"]


@pytest.mark.parametrize("method, routes", [
    ("all", "pipeline;decompose;closed-form"), ("closed-form", "closed-form")])
def test_mult_in_one_variable(capsys, method, routes):
    # k + l = 1: the raw route's peel input has an empty branching block
    # and one alternant entry; H = 1/(1-x), so every multiplicity is 1, and
    # the one-row strip is in the two-row table of UT_3(E)
    code, out, err = run(["mult", "--algebra", "UT3E", "--vars", "1", "--trunc", "8",
                          "--method", method, "--format", "csv"], capsys)
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [(r[0], r[2], r[3]) for r in rows] == \
        [(f"[{m}]" if m else "[]", "1", routes) for m in range(9)]


def test_hookmult_csv(capsys):
    code, out, err = run(["hookmult", "--algebra", "UT2E", "--hook", "2,3",
                          "--trunc", "8", "--method", "all", "--format", "csv"],
                         capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["partition", "weight", "multiplicity", "routes"]
    assert ["[4,2,1,1]", "8", "38", "pipeline;decompose;closed-form"] in rows
    # commas inside the partition column survive the round trip
    assert all(len(r) == 4 for r in rows)


def test_mult_json_embeds_series(capsys):
    code, out, err = run(["mult", "--algebra", "E", "--vars", "2",
                          "--trunc", "5", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "mult"
    assert obj["series"]["form"] == "T"
    assert {"multiplicity": 1, "partition": [2, 1], "weight": 3,
            "routes": ["pipeline", "decompose", "closed-form"]} in obj["rows"]


def test_hookmult_json_embeds_series(capsys):
    code, out, err = run(["hookmult", "--algebra", "UT3E", "--hook", "1,1",
                          "--trunc", "6", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    terms = obj["series"]["terms"]
    assert {"lambda0": [1], "mu": [2], "nu": [2], "coeff": "6"} in terms


@pytest.mark.parametrize("argv, pipeline", [
    (["mult", "--algebra", "UT2E", "--vars", "2"], "utn_mult_series"),
    (["hookmult", "--algebra", "UT2E", "--hook", "1,1"], "utn_hook_mult_series"),
])
def test_json_embed_runs_the_pipeline_once(capsys, monkeypatch, argv, pipeline):
    # the embed is written from the rows that the selected routes agree on:
    # the all-route job runs the pipeline once, and a job without the
    # pipeline route runs it not at all, with the same series
    calls = []
    real = cli._utn_hook_expansion

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_utn_hook_expansion", counted)
    argv = argv + ["--trunc", "5", "--format", "json"]
    code, full, _ = run(argv, capsys)
    assert code == 0 and len(calls) == 1
    for method in ("decompose", "closed-form"):
        code, alone, _ = run(argv + ["--method", method], capsys)
        assert code == 0 and len(calls) == 1
        assert json.loads(alone)["series"] == json.loads(full)["series"]
    if pipeline == "utn_mult_series":
        want = _t_form_object(2, 2, 5)
    else:
        want = utn_hook_mult_series(2, 1, 1, 5).to_obj()
    assert json.loads(full)["series"] == want


# table jobs of every shape the writers meet: the pipeline series embedded
# for hookmult and mult, none for table; multi-part and empty partitions,
# l > k, the decompose route alone, E at trunc 0, and one variable at trunc 0
TABLE_JOBS = [
    (["hookmult", "--algebra", "UT3E", "--hook", "1,1", "--trunc", "8"], (3, 1, 1, 8)),
    (["hookmult", "--algebra", "UT2E", "--hook", "1,2", "--trunc", "8"], (2, 1, 2, 8)),
    (["hookmult", "--algebra", "UT2E", "--hook", "2,3", "--trunc", "7",
      "--method", "decompose"], (2, 2, 3, 7)),
    (["hookmult", "--algebra", "UT2E", "--hook", "3,4", "--trunc", "8"], (2, 3, 4, 8)),
    (["hookmult", "--algebra", "E", "--hook", "1,1", "--trunc", "0"], (1, 1, 1, 0)),
    (["mult", "--algebra", "UT2E", "--vars", "3", "--trunc", "8"], (2, 3, 0, 8)),
    (["mult", "--algebra", "UT2E", "--vars", "1", "--trunc", "0"], (2, 1, 0, 0)),
    (["mult", "--algebra", "UT3E", "--vars", "4", "--trunc", "10",
      "--method", "decompose"], (3, 4, 0, 10)),
    (["table", "--algebra", "UT2E", "--vars", "4", "--trunc", "8"], None),
    (["table", "--algebra", "UT2E", "--hook", "2,3", "--trunc", "8"], None),
]
TABLE_IDS = [" ".join(argv) for argv, _ in TABLE_JOBS]


def _table_job(argv, fmt, capsys, monkeypatch):
    """The job's output, and the rows, route names and job fields that it
    was written from."""
    seen = []
    render = cli._render_rows

    def spy(rows, names, fmt, job, *args):
        seen.append((rows, names, job))
        return render(rows, names, fmt, job, *args)

    monkeypatch.setattr(cli, "_render_rows", spy)
    code, out, err = run(argv + ["--format", fmt], capsys)
    assert code == 0, err
    (rows, names, job), = seen
    return out, rows, names, job


def _t_form_object(n, d, bound):
    """The mult embed as a generic writer makes it: the T-form series over
    t_1..t_d, t^lam at each partition lam of the pipeline padded with zeros
    to d parts, serialised by Series.to_obj."""
    e = decode_hook_mult(utn_mult_series(n, d, bound))
    s = Series(ty(d, 0), bound, {lam + (0,) * (d - len(lam)): c for lam, c in e.coeffs.items()})
    return {"form": "T", "d": d, "bound": bound, "terms": s.to_obj()}


def _old_table_object(rows, names, job, pipeline):
    """The object that table jobs serialised before they wrote their rows and
    the hookmult series themselves: a dict per row, and the embed of the
    library's encoded series."""
    obj = dict(job, rows=[{"partition": list(lam), "weight": sum(lam), "multiplicity": m,
                           "routes": list(names)} for lam, m in rows])
    if pipeline is not None:
        n, k, l, trunc = pipeline
        if job["command"] == "hookmult":
            obj["series"] = utn_hook_mult_series(n, k, l, trunc).to_obj()
        else:
            obj["series"] = _t_form_object(n, k, trunc)
    return obj


@pytest.mark.parametrize("argv, pipeline", TABLE_JOBS, ids=TABLE_IDS)
def test_table_json_matches_the_generic_writer(capsys, monkeypatch, argv, pipeline):
    out, rows, names, job = _table_job(argv, "json", capsys, monkeypatch)
    assert rows and job["command"] == argv[0]
    obj = _old_table_object(rows, names, job, pipeline)
    assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv, pipeline", TABLE_JOBS, ids=TABLE_IDS)
def test_table_csv_matches_the_csv_module(capsys, monkeypatch, argv, pipeline):
    out, rows, names, _ = _table_job(argv, "csv", capsys, monkeypatch)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["partition", "weight", "multiplicity", "routes"])
    for lam, m in rows:
        writer.writerow([cli._format_partition(lam), sum(lam), m, ";".join(names)])
    assert out == buf.getvalue()


def test_empty_table_matches_the_generic_writer():
    job = {"command": "table", "algebra": "E", "trunc": 3, "vars": 2, "method": "all"}
    obj = dict(job, rows=[])
    assert cli._render_rows([], ["pipeline", "decompose"], "json", job) \
        == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert cli._render_rows([], ["pipeline"], "csv", job) == "partition,weight,multiplicity,routes\n"
    # both embeds of a job with no nonzero row
    for writer, k, l, obj in (
            (cli._hook_series_json, 2, 3, encode_hook_mult(HookExpansion(2, 3, 10)).to_obj()),
            (cli._mult_series_json, 2, 0, {"form": "T", "d": 2, "bound": 10,
                                           "terms": Series(ty(2, 0), 10).to_obj()})):
        embed = json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n  ")
        assert writer([], k, l, 10) == embed


@pytest.mark.parametrize("m", [Fraction(1, 2), 1.0])
def test_table_json_rejects_a_multiplicity_that_is_no_int(m):
    job = {"command": "table", "algebra": "E", "trunc": 3, "vars": 2, "method": "all"}
    with pytest.raises(TypeError):
        cli._render_rows([((2, 1), m)], ["pipeline"], "json", job)


@pytest.mark.parametrize("argv", [
    ["--algebra", "E", "--vars", "1", "--trunc", "0"],
    ["--algebra", "UT2E", "--vars", "3", "--trunc", "6"],
    ["--algebra", "UT3E", "--hook", "3,1", "--trunc", "7"],
    ["--algebra", "UT2E", "--hook", "2,3", "--trunc", "7"],  # l > k
], ids=" ".join)
def test_hilbert_json_matches_json_dumps(capsys, argv):
    code, out, err = run(["hilbert", *argv, "--format", "json"], capsys)
    assert code == 0, err
    opts = dict(zip(argv[::2], argv[1::2]))
    job = {"command": "hilbert", "algebra": opts["--algebra"], "trunc": int(opts["--trunc"])}
    if "--vars" in opts:
        job["vars"] = int(opts["--vars"])
        k, l = job["vars"], 0
    else:
        job["hook"] = [int(x) for x in opts["--hook"].split(",")]
        k, l = job["hook"]
    s = utn_double_hilbert(cli._parse_algebra(job["algebra"]), k, l, job["trunc"])
    assert out == json.dumps(dict(job, series=s.to_obj()), sort_keys=True, indent=2) + "\n"


def test_terms_writer_rejects_a_coefficient_that_is_no_int():
    s = Series(ty(2, 0), 4, {(1, 0): 3, (0, 1): Fraction(1, 2)})
    with pytest.raises(TypeError, match="not an int"):
        "".join(cli._terms_json(s.sorted_terms(), 2, "  "))
    assert "".join(cli._terms_json([], 2, "  ")) == "[]"


def test_quote_is_json_dumps_on_every_document_string():
    names = [*cli.COMMANDS, *cli.ROUTE_ORDER, "T", "E", "UT1E", "UT4E", "UT12E"]
    for _, _, options in cli.COMMANDS.values():
        names += [c for _, keywords in options for c in keywords.get("choices", ())]
    assert {"hilbert", "decompose", "closed-form", "all"} <= set(names)
    for s in names:
        assert cli._quote(s) == json.dumps(s)


def test_failed_hilbert_writes_nothing(tmp_path, capsys, monkeypatch):
    def fail(n, width, bound):
        raise ArithmeticError("product-form sum is not divisible")
    monkeypatch.setattr(cli, "_sorted_coefficients", fail)
    target = tmp_path / "h.json"
    target.write_text("earlier series\n")
    job = ["hilbert", "--algebra", "UT2E", "--hook", "2,3", "--trunc", "6", "--format", "json"]
    for argv in (job, job + ["--out", str(target)]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err == "computation failed: product-form sum is not divisible\n"
    assert target.read_text() == "earlier series\n"


def test_table_json_is_written_in_one_call(capsys, monkeypatch):
    class Writes(io.StringIO):
        calls = 0

        def write(self, s):
            self.calls += 1
            return super().write(s)

    argv = ["hookmult", "--algebra", "UT2E", "--hook", "1,1", "--trunc", "6", "--format", "json"]
    code, expected, err = run(argv, capsys)
    monkeypatch.setattr(sys, "stdout", Writes())
    assert cli.main(argv) == 0
    assert (sys.stdout.calls, sys.stdout.getvalue()) == (1, expected)


def test_hilbert_json_matches_module(capsys):
    code, out, err = run(["hilbert", "--algebra", "UT2E", "--vars", "2",
                          "--trunc", "6", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["series"] == utn_hilbert(2, 2, 6).to_obj()


# sha256 of the hilbert output as the Horner loop of ray passes gave it
HILBERT_PINS = [
    (["--algebra", "UT3E", "--hook", "2,3", "--trunc", "9"], "text",
     "54ed98681394aef5b5d57211e0ddd4ce101ddd064eab4020b71b886250a02d00"),
    (["--algebra", "UT2E", "--vars", "4", "--trunc", "8"], "text",
     "80aa6052b46aa7d5081431abb143a7279045bd0e2dd7a37b09951811726a730c"),
    (["--algebra", "UT3E", "--hook", "2,3", "--trunc", "9"], "json",
     "020a02831b39b22a3b7de32327468ad33a69abba3263752271d51357feabcbd8"),
    (["--algebra", "UT2E", "--vars", "4", "--trunc", "8"], "json",
     "fad19b2ad90fb01558d50e65dab1340f8199a4608036ee4c3318924a23129a29"),
]


@pytest.mark.parametrize("job, fmt, digest", HILBERT_PINS,
                         ids=[f"{p[0][1]}-{p[0][3]}-{p[1]}" for p in HILBERT_PINS])
def test_hilbert_output_is_unchanged(capsys, job, fmt, digest):
    code, out, err = run(["hilbert"] + job + ["--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_hilbert_text_constant_term(capsys):
    code, out, err = run(["hilbert", "--algebra", "E", "--vars", "1",
                          "--trunc", "3"], capsys)
    assert code == 0
    assert out.splitlines() == ["1: 1", "t1: 1", "t1^2: 1", "t1^3: 1"]


@pytest.mark.parametrize("tag", ["XYZ", "UT\u0662E", "UT02E", "UT0E"])
def test_invalid_algebra(capsys, tag):
    # n is written in ASCII digits without a leading zero: UT\u0662E (an
    # Arabic-Indic two) and UT02E are no UT2E
    code, out, err = run(["mult", "--algebra", tag, "--vars", "2",
                          "--trunc", "4"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: unknown algebra {tag!r}: expected E or UTnE with n >= 1\n"


def test_guardrails(capsys):
    code, out, err = run(["mult", "--algebra", "UT5E", "--vars", "2",
                          "--trunc", "4"], capsys)
    assert code == 2
    assert "--force" in err

    code, out, err = run(["mult", "--algebra", "UT2E", "--vars", "2",
                          "--trunc", "25", "--method", "pipeline"], capsys)
    assert code == 2

    code, out, err = run(["mult", "--algebra", "UT2E", "--vars", "2",
                          "--trunc", "25", "--method", "pipeline", "--force"],
                         capsys)
    assert code == 0
    assert "warning" in err
    assert "[25]" in out  # the requested bound is honored, not quietly lowered


def test_missing_route(capsys):
    code, out, err = run(["mult", "--algebra", "UT3E", "--vars", "3",
                          "--trunc", "4", "--method", "closed-form"], capsys)
    assert code == 2
    assert "no closed-form route" in err


def test_hilbert_rejects_csv_and_needs_one_alphabet(capsys):
    code, out, err = run(["hilbert", "--algebra", "E", "--vars", "2",
                          "--trunc", "4", "--format", "csv"], capsys)
    assert code == 2

    code, out, err = run(["hilbert", "--algebra", "E", "--trunc", "4"], capsys)
    assert code == 2

    code, out, err = run(["hilbert", "--algebra", "E", "--vars", "2",
                          "--hook", "1,1", "--trunc", "4"], capsys)
    assert code == 2


def test_hilbert_rejects_csv_before_computing(capsys):
    # the series at hook (4, 4), trunc 24 takes tens of seconds to build
    with time_limit(5):
        code, out, err = run(["hilbert", "--algebra", "UT4E", "--hook", "4,4",
                              "--trunc", "24", "--format", "csv"], capsys)
    assert (code, out) == (2, "")
    assert "csv output is defined for multiplicity tables" in err


def test_bad_hook_argument(capsys):
    with pytest.raises(SystemExit):
        cli.main(["hookmult", "--algebra", "E", "--hook", "two,three",
                  "--trunc", "4"])
    capsys.readouterr()


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, err = run(["mult", "--algebra", "E", "--vars", "2", "--trunc", "4",
                          "--format", "csv", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "partition,weight,multiplicity,routes"


def test_out_to_an_unopenable_path_is_a_bad_request(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(["hookmult", "--algebra", "UT2E", "--hook", "1,1", "--trunc", "4",
                          "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_empty_out_fails_before_the_routes(capsys, monkeypatch):
    def route(*args):
        raise AssertionError("a route ran")

    monkeypatch.setattr(cli, "_utn_hook_expansion", route)
    code, out, err = run(["hookmult", "--algebra", "UT2E", "--hook", "1,1", "--trunc", "4",
                          "--method", "pipeline", "--out", ""], capsys)
    assert (code, out) == (2, "")
    assert err == "error: cannot write : No such file or directory\n"


def test_unwritable_out_fails_before_the_routes(tmp_path, capsys):
    # the job takes half a minute; each refusal gives the reason open() gives
    (tmp_path / "file").write_text("")
    job = ["hookmult", "--algebra", "UT4E", "--hook", "4,4", "--trunc", "24",
           "--method", "all", "--format", "csv", "--out"]
    for target in (tmp_path / "missing" / "x.csv", tmp_path, tmp_path / "file" / "x.csv"):
        with pytest.raises(OSError) as opened:
            open(target, "w")
        with time_limit(2):
            code, out, err = run(job + [str(target)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: {opened.value.strerror}\n"
    assert (tmp_path / "file").read_text() == ""


def test_route_disagreement_leaves_the_out_file_untouched(tmp_path, capsys, monkeypatch):
    target = tmp_path / "rows.csv"
    target.write_text("earlier rows\n")
    monkeypatch.setattr(cli, "closed_table", lambda tag: lambda lam: 99)
    code, out, err = run(["mult", "--algebra", "E", "--vars", "2", "--trunc", "3",
                          "--out", str(target)], capsys)
    assert code == 1 and "route disagreement" in err
    assert target.read_text() == "earlier rows\n"


def test_route_disagreement_exits_nonzero(capsys, monkeypatch):
    def wrong(tag):
        return lambda lam: 99
    monkeypatch.setattr(cli, "closed_table", wrong)
    code, out, err = run(["mult", "--algebra", "E", "--vars", "2",
                          "--trunc", "3", "--method", "all"], capsys)
    assert code == 1
    assert "route disagreement" in err
    assert "closed-form=99" in err


def test_a_long_disagreement_prints_twenty_shapes(capsys, monkeypatch):
    # the 25 partitions of at most two parts to weight 8 all differ
    monkeypatch.setattr(cli, "closed_table", lambda tag: lambda lam: 99)
    code, out, err = run(["mult", "--algebra", "E", "--vars", "2", "--trunc", "8",
                          "--format", "csv"], capsys)
    lines = err.splitlines()
    assert (code, out) == (1, "")
    assert lines[0] == "route disagreement on 25 shape(s):"
    assert lines[1] == "  []: pipeline=1, decompose=1, closed-form=99"
    assert len(lines) == 22 and all(": pipeline=" in line for line in lines[1:21])
    assert lines[21] == "  ... 5 more"


@pytest.mark.parametrize("argv, message", [
    (["mult", "--algebra", "UT2E", "--vars", "9", "--trunc", "4"],
     "--vars 9 exceeds the default limit 8 (pass --force to proceed anyway)"),
    (["hookmult", "--algebra", "UT2E", "--hook", "5,1", "--trunc", "4"],
     "hook (5,1) exceeds the default limit 4 (pass --force to proceed anyway)"),
    (["mult", "--algebra", "UT2E", "--vars", "0", "--trunc", "4"], "--vars must be >= 1"),
])
def test_alphabet_size_refusals(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_write_that_fails_is_a_bad_request(capsys):
    # /dev/full takes the open and refuses the bytes, when the file is closed
    code, out, err = run(["mult", "--algebra", "UT2E", "--vars", "2", "--trunc", "6",
                          "--format", "csv", "--out", "/dev/full"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: cannot write /dev/full: No space left on device\n"


def test_verify_suite(capsys):
    code, out, err = run(["verify", "--suite", "invariants"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].endswith("0 failed")

    code, out, err = run(["verify", "--suite", "invariants", "--format", "json"],
                         capsys)
    assert code == 0
    results = json.loads(out)
    assert results and all(r["passed"] for r in results)


def test_unknown_suite_name():
    from cochar.verify import run_suite
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


def test_table_needs_exactly_one_alphabet(capsys):
    # hilbert shares the job set-up of the table commands
    for command in ("table", "hilbert"):
        for alphabets in ([], ["--vars", "2", "--hook", "1,1"]):
            code, out, err = run([command, "--algebra", "E", *alphabets, "--trunc", "4"], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: {command} needs exactly one of --vars or --hook\n"


def test_suite_choices_are_the_verify_suites():
    # the parser states the suite names itself, so that it loads no cochar.verify
    from cochar import verify
    (_, keywords), *_ = cli.COMMANDS["verify"][2]
    assert keywords["choices"] == (*verify.SUITES, "all")


def test_cli_import_skips_dataclasses_and_inspect():
    # every CLI job pays its import; dataclasses and inspect cost about 9 ms
    # of it, fractions (with decimal) about 5 ms, and json, csv, fractions,
    # argparse and the check suites load only where they are used
    code = ("import cochar.cli, sys; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'json', 'csv', "
            "'fractions', 'decimal', 'cochar.verify', 'argparse') if m in sys.modules))")
    proc = _subprocess(["-c", code], None)
    assert proc.returncode == 0 and proc.stdout.strip() == b"[]"


@pytest.mark.parametrize("argv", [
    ["hookmult", "--algebra", "UT3E", "--hook", "1,1", "--trunc", "6", "--format", "json"],
    ["mult", "--algebra", "UT2E", "--vars", "2", "--trunc", "6", "--format", "csv",
     "--out", "table.csv"],
    ["hookmult", "--algebra", "UT9E", "--hook", "1,1", "--trunc", "6"],  # SpecError
    ["hookmult", "--algebra", "UT2E", "--hook", "1", "--trunc", "6"],  # argparse error
])
def test_module_entry_point_matches_main(tmp_path, monkeypatch, capsysbinary, argv):
    # python -m cochar.cli goes through run(), which freezes the heap on the
    # way out; bytes, files and exit codes are those of main() in-process
    (tmp_path / "sub").mkdir()
    (tmp_path / "here").mkdir()
    proc = _subprocess(["-m", "cochar.cli", *argv], tmp_path / "sub")
    monkeypatch.chdir(tmp_path / "here")
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsysbinary.readouterr()
    assert proc.returncode == code
    assert proc.stdout == captured.out
    assert proc.stderr == captured.err
    written = sorted(p.name for p in (tmp_path / "here").iterdir())
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == written
    for name in written:
        assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_a_reader_that_leaves_ends_the_job_quietly(tmp_path):
    # about 1.5 MB of JSON, far more than a pipe holds: the reader takes one
    # line and leaves, so a later write meets a broken pipe; run() exits 1
    # with no traceback, and -X dev -W error turns any warning at exit into
    # stderr bytes
    argv = ["hilbert", "--algebra", "UT2E", "--hook", "2,3", "--trunc", "14", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=SRC)
    with subprocess.Popen([sys.executable, "-X", "dev", "-W", "error", "-m", "cochar.cli", *argv],
                          env=env, cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == b""


def test_only_the_entry_point_freezes(tmp_path):
    # import and main() leave the heap alone; run() freezes it, also when
    # argparse exits
    code = """if True:
        import gc, sys
        import cochar.cli as cli
        counts = [gc.get_freeze_count()]
        argv = ["hookmult", "--algebra", "UT2E", "--hook", "1,1", "--trunc", "5"]
        cli.main(argv)
        counts.append(gc.get_freeze_count())
        sys.argv = ["cochar", *argv]
        cli.run()
        counts.append(gc.get_freeze_count())
        gc.unfreeze()
        sys.argv = ["cochar", "hookmult", "--hook", "1"]
        try:
            cli.run()
        except SystemExit:
            counts.append(gc.get_freeze_count())
        print(*counts)
    """
    proc = _subprocess(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    a, b, c, d = map(int, proc.stdout.decode().splitlines()[-1].split())
    assert (a, b) == (0, 0) and c > 0 and d > 0


@pytest.mark.parametrize("argv", [
    ["hookmult", "--algebra", "UT3E", "--hook", "1,1", "--trunc", "6"],
    ["mult", "--algebra", "UT2E", "--vars", "3", "--trunc", "6"],
    ["hilbert", "--algebra", "UT2E", "--vars", "2", "--trunc", "5"],
    ["hilbert", "--algebra", "UT2E", "--hook", "2,3", "--trunc", "5"],
], ids=" ".join)
def test_json_job_skips_json_package(tmp_path, argv):
    # plain ASCII strings are quoted in line and series written from their
    # int coefficients; importing json costs about 2 ms, fractions about 5
    code = (f"import sys, cochar.cli; cochar.cli.main({argv + ['--format', 'json']!r}); "
            "print(sorted(m for m in ('json', 'fractions') if m in sys.modules), "
            "file=sys.stderr)")
    proc = _subprocess(["-c", code], tmp_path)
    assert proc.returncode == 0 and proc.stderr == b"[]\n"


def test_valid_jobs_skip_argparse(tmp_path):
    # argparse, its gettext and the locale that gettext loads cost about
    # 4 ms a job; only help and errors build the parser
    code = """if True:
        import sys, cochar.cli
        for argv in (
                ["hookmult", "--algebra", "UT3E", "--hook", "1,1", "--trunc", "6"],
                ["mult", "--algebra", "UT2E", "--vars", "2", "--trunc", "6", "--format", "csv"],
                ["table", "--algebra", "UT2E", "--hook", "1,1", "--trunc", "5", "--force"],
                ["hilbert", "--algebra", "E", "--vars", "2", "--trunc", "4", "--format", "json"],
                ["verify", "--suite", "invariants"]):
            assert cochar.cli.main(argv) == 0
        print(sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules),
              file=sys.stderr)
    """
    proc = _subprocess(["-c", code], tmp_path)
    assert proc.returncode == 0 and proc.stderr == b"[]\n"


def test_csv_job_skips_csv_package(tmp_path):
    # the rows are written by f-strings, quoted as csv.writer quotes them
    code = ("import sys, cochar.cli; cochar.cli.main(['hookmult', '--algebra', 'UT3E', "
            "'--hook', '1,1', '--trunc', '6', '--format', 'csv']); "
            "print('csv' in sys.modules, file=sys.stderr)")
    proc = _subprocess(["-c", code], tmp_path)
    assert proc.returncode == 0 and proc.stderr == b"False\n"


@pytest.mark.parametrize("argv", [
    ["hookmult", "--algebra", "UT3E", "--hook", "1,1", "--trunc", "8", "--format", "json"],
    ["mult", "--algebra", "UT2E", "--vars", "3", "--trunc", "8", "--format", "json"],
    ["table", "--algebra", "UT2E", "--vars", "4", "--trunc", "8", "--format", "csv"],
    ["hilbert", "--algebra", "E", "--vars", "2", "--trunc", "5", "--format", "json"],
    ["verify", "--suite", "invariants"],
])
def test_jobs_leave_no_cochar_function_in_a_cycle(capsys, argv):
    # run() keeps the collector off, so a reference cycle would live until
    # exit; a valid job builds no parser, and only help and error runs leave
    # argparse's own cyclic objects
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [f.__qualname__ for f in gc.garbage if isinstance(f, types.FunctionType)
                  and (f.__module__ or "").startswith("cochar")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert leaked == []


def test_only_the_entry_point_disables_the_collector(tmp_path):
    code = """if True:
        import gc, sys
        import cochar.cli as cli
        seen = [gc.isenabled()]
        argv = ["hookmult", "--algebra", "UT2E", "--hook", "1,1", "--trunc", "5"]
        cli.main(argv)
        seen.append(gc.isenabled())
        main = cli.main
        def spy():
            seen.append(gc.isenabled())
            return main(argv)
        cli.main = spy
        cli.run()
        print(*seen)
    """
    proc = _subprocess(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "True True False"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _hand_written_parser():
    """The parser as it was written before the command table: the reference
    for the help, usage and error bytes of the parser built from the table.
    Its drivers are those of the table."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cochar",
        description="exact cocharacter-series computations with cross-route checking")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, methods=True, needs_vars=False, needs_hook=False, free=False):
        p.add_argument("--algebra", required=True, help="E or UTnE (e.g. UT2E)")
        if needs_vars or free:
            p.add_argument("--vars", type=int, default=None, required=needs_vars and not free,
                           help="number of variables in the single alphabet")
        if needs_hook or free:
            p.add_argument("--hook", type=cli._parse_hook, default=None,
                           required=needs_hook and not free,
                           help="hook arms k,l for the split pair of alphabets")
        p.add_argument("--trunc", type=int, required=True, help="total-degree truncation bound")
        if methods:
            p.add_argument("--method", choices=("pipeline", "decompose", "closed-form", "all"),
                           default="all", help="route(s) to compute; 'all' cross-checks every "
                                               "available route (default)")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--force", action="store_true",
                       help="proceed past the default size guardrails")

    for name, summary, kinds in (
            ("hilbert", "raw series of an algebra", dict(methods=False, free=True)),
            ("mult", "multiplicity table in d variables", dict(needs_vars=True)),
            ("hookmult", "multiplicity table over a hook", dict(needs_hook=True)),
            ("table", "route-agreement table", dict(free=True))):
        p = sub.add_parser(name, help=summary)
        common(p, **kinds)
        p.set_defaults(driver=cli.COMMANDS[name][1])
    p = sub.add_parser("verify", help="run a check suite")
    p.add_argument("--suite", choices=("invariants", "acceptance", "all"), default="invariants")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(driver=cli.COMMANDS["verify"][1])
    return parser


def _argparse_outcome(parser, argv):
    """vars() of the namespace, or None and the exit code, with the bytes
    that argparse wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            result, code = None, exc.code
    return result, code, out.getvalue(), err.getvalue()


OPTION_NAMES = sorted({name for _, _, options in cli.COMMANDS.values() for name, _ in options})
# valid values of each option, then ints, hooks and words that are valid
# for some options only or for none
GOOD_VALUES = {"--algebra": ["E", "UT2E", "UT3E"], "--vars": ["2", "3"], "--hook": ["1,1", "2,3"],
               "--trunc": ["0", "6"], "--out": ["rows.txt"]}
OTHER_VALUES = [" 4", "+5", "1_0", "-1", "0", "x", "1,x", "0,1", "1,2,3", " 1, 2", "UT0E", "",
                "-", "-x", "--force", "json", "csv", "text", "all", "pipeline", "closed-form",
                "acceptance"]
OTHER_WORDS = ["--alg", "--tr", "--fo", "--f", "--hoo", "-h", "--help", "--", "--format=json",
               "--trunc=4", "--hook=1,1", "--force=1", "--bogus", "x", "-1", "hookmult"]


@st.composite
def argument_lists(draw):
    """A subcommand or another word, then the subcommand's options in any
    order, now and then dropped, renamed or followed by another word; each
    option mostly with a valid value."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", "--help"]))
    _, _, options = cli.COMMANDS.get(command, cli.COMMANDS["table"])
    argv = [command]
    for name, keywords in draw(st.permutations(options)):
        if draw(st.integers(0, 7)) == 0:
            continue
        if draw(st.integers(0, 7)) == 0:
            name = draw(st.sampled_from(OPTION_NAMES + OTHER_WORDS))
        argv.append(name)
        if keywords.get("action") != "store_true" or draw(st.integers(0, 7)) == 0:
            good = list(keywords.get("choices", GOOD_VALUES.get(name, [])))
            argv.append(draw(st.sampled_from(good if good and draw(st.integers(0, 3))
                                             else OTHER_VALUES)))
        if draw(st.integers(0, 9)) == 0:
            argv.append(draw(st.sampled_from(OTHER_WORDS + OTHER_VALUES)))
    return argv


@settings(max_examples=300, deadline=None)
@given(argument_lists())
@example(["hookmult", "--algebra", "UT2E", "--hook", "1,1", "--trunc", " 4", "--force"])
@example(["mult", "--algebra", "E", "--vars", "+5", "--trunc", "1_0", "--out", ""])
@example(["hookmult", "--algebra", "E", "--hook", "1,1", "--trunc", "4", "--out", "-"])
@example(["hookmult", "--algebra", "E", "--hook", "1,1", "--trunc", "4", "--out", "--force"])
@example(["hookmult", "--algebra", "E", "--hook", "1,1", "--trunc", "4", "--out"])
@example(["hookmult", "--algebra", "E", "--hook", "1,1", "--trunc", "4", "--trunc", "5"])
@example(["hookmult", "--algebra", "E", "--hook", "1,1", "--trunc", "4", "--", "--force"])
def test_strict_parser_agrees_with_argparse(argv):
    # the strict parser gives argparse's namespace or leaves the list to it,
    # and the parser built from the table parses as the hand-written one did
    built = _argparse_outcome(cli._build_parser(), argv)
    assert built == _argparse_outcome(_hand_written_parser(), argv)
    strict = cli._parse_strict(argv)
    if strict is not None:
        assert vars(strict) == built[0]


def _known_jobs():
    """Every job of the bench families, the CI steps and the README block."""
    spec = json.loads((ROOT / "bench" / "spec.json").read_text())
    jobs = [job["args"] for w in spec["workloads"].values()
            for job in [*w["family"], w["smoke"]]]
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    jobs += [m.split() for m in re.findall(
        r"\b((?:hilbert|mult|hookmult|table|verify)(?: +--[a-z]+ +[\w,.][\w,.-]*)+)", ci)]
    readme = (ROOT / "README.md").read_text()
    jobs += [m.split() for m in re.findall(r"^cochar (.+)$", readme, re.M)]
    return jobs


KNOWN_JOBS = _known_jobs()


@pytest.mark.parametrize("argv", KNOWN_JOBS, ids=[" ".join(a) for a in KNOWN_JOBS])
def test_strict_parser_takes_every_known_job(argv):
    strict = cli._parse_strict(argv)
    assert strict is not None
    assert vars(strict) == vars(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([command, "--help"] for command in cli.COMMANDS),
    ["hookmult", "--alg", "UT2E", "--hook", "1,1", "--trunc", "4"],
    ["hookmult", "--algebra", "UT2E", "--hook", "1,1", "--trunc", "4", "--format=json"],
    ["hookmult", "--algebra", "UT2E", "--hook", "1,1", "--trunc", "-1"],
    ["hookmult", "--algebra", "UT2E", "--hook", "1,x", "--trunc", "4"],
    ["hookmult", "--algebra", "UT2E", "--hook", "0,1", "--trunc", "4"],
], ids=" ".join)
def test_help_and_errors_are_those_of_the_hand_written_parser(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")

    def outcome():
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    got = outcome()
    monkeypatch.setattr(cli, "_parse_strict", lambda argv: None)
    monkeypatch.setattr(cli, "_build_parser", _hand_written_parser)
    assert got == outcome()


def test_a_partition_the_domain_misses_fails_its_route(capsys, monkeypatch):
    every = cli._hook_partitions_upto
    monkeypatch.setattr(cli, "_hook_partitions_upto",
                        lambda *a: [lam for lam in every(*a) if lam != (3, 2, 1)])
    code, out, err = run(["hookmult", "--algebra", "UT2E", "--hook", "2,2", "--trunc", "8",
                          "--method", "all", "--format", "csv"], capsys)
    assert (code, out) == (1, "")
    assert err == "computation failed: pipeline route: [3,2,1] lies outside the domain\n"


def test_the_lightest_partition_the_domain_misses_is_named(capsys, monkeypatch):
    every = cli._hook_partitions_upto
    monkeypatch.setattr(cli, "_hook_partitions_upto",
                        lambda *a: [lam for lam in every(*a) if lam not in ((4, 1), (2, 2, 1))])
    code, out, err = run(["hookmult", "--algebra", "UT2E", "--hook", "2,2", "--trunc", "8",
                          "--method", "decompose", "--format", "csv"], capsys)
    assert (code, out) == (1, "")
    assert err == "computation failed: decompose route: [2,2,1] lies outside the domain\n"
