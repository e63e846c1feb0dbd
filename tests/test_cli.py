import csv
import io
import json

import pytest

from cochar import cli
from cochar.hilbert import utn_hilbert


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mult_all_routes(capsys):
    code, out, err = run(["mult", "--algebra", "UT2E", "--vars", "2",
                          "--trunc", "8", "--method", "all"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["partition", "weight", "multiplicity", "routes"]
    row = next(l for l in lines if l.startswith("[5,2]"))
    assert row.split() == ["[5,2]", "7", "11", "pipeline;decompose;closed-form"]


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
    calls = []
    real = getattr(cli, pipeline)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, pipeline, counted)
    argv = argv + ["--trunc", "5", "--format", "json"]
    code, full, _ = run(argv, capsys)
    assert code == 0 and len(calls) == 1
    # the decompose route alone still embeds the pipeline series
    code, alone, _ = run(argv + ["--method", "decompose"], capsys)
    assert code == 0 and len(calls) == 2
    assert json.loads(alone)["series"] == json.loads(full)["series"]


def test_hilbert_json_matches_module(capsys):
    code, out, err = run(["hilbert", "--algebra", "UT2E", "--vars", "2",
                          "--trunc", "6", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["series"] == utn_hilbert(2, 2, 6).to_obj()


def test_hilbert_text_constant_term(capsys):
    code, out, err = run(["hilbert", "--algebra", "E", "--vars", "1",
                          "--trunc", "3"], capsys)
    assert code == 0
    assert out.splitlines() == ["1: 1", "t1: 1", "t1^2: 1", "t1^3: 1"]


def test_invalid_algebra(capsys):
    code, out, err = run(["mult", "--algebra", "XYZ", "--vars", "2",
                          "--trunc", "4"], capsys)
    assert code == 2
    assert "unknown algebra" in err


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


def test_route_disagreement_exits_nonzero(capsys, monkeypatch):
    def wrong(tag, lam):
        return 99
    monkeypatch.setattr(cli, "closed_multiplicity", wrong)
    code, out, err = run(["mult", "--algebra", "E", "--vars", "2",
                          "--trunc", "3", "--method", "all"], capsys)
    assert code == 1
    assert "route disagreement" in err
    assert "closed-form=99" in err


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
    code, out, err = run(["table", "--algebra", "E", "--trunc", "4"], capsys)
    assert code == 2
    code, out, err = run(["table", "--algebra", "E", "--vars", "2",
                          "--hook", "1,1", "--trunc", "4"], capsys)
    assert code == 2
