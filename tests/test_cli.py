"""End-to-end CLI: file formats, exit codes, report determinism."""

import enum
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitref.cli import build_parser, main
from orbitref.fileio import _pretty, load_matrix_data, render_report

SHEAR_GF3 = {"field": "gf", "p": 3, "rows": [["1", "1"], ["0", "1"]]}
DIAG_Q = {"field": "q", "rows": [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "5"]]}
GAP2_Q = {"field": "q", "rows": [
    ["1", "0", "0", "0"],
    ["1", "1", "0", "0"],
    ["0", "1", "1", "0"],
    ["0", "0", "0", "1"],
]}
ROTATION_Q = {"field": "q", "rows": [["0", "-1"], ["1", "0"]]}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_jordan_profile(tmp_path, capsys):
    path = _write(tmp_path, "diag.json", DIAG_Q)
    code, out = _run(capsys, ["jordan", "--input", path])
    assert code == 0
    report = json.loads(out)
    entries = {e["eigenvalue"]: e["block_sizes"] for e in report["profile"]["entries"]}
    assert entries == {"2": [1, 1], "5": [1]}
    assert report["input"]["sha256"]
    assert report["report_hash"]


def test_jordan_not_split_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "rot.json", ROTATION_Q)
    code = main(["jordan", "--input", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "t^2+1" in err
    assert "--field qi" in err


@pytest.mark.parametrize("data,hint", [
    ({"field": "q", "rows": [["0", "2"], ["1", "0"]]},
     "hint: escalate the field with --field qi (exact Gaussian rationals) or "
     "--field c64 (floating complex)\n"),
    ({"field": "qi", "rows": [["0", "3"], ["1", "0"]]},
     "hint: escalate the field with --field c64 (floating complex)\n"),
    # qi and c64 both refuse a GF(q) matrix with exit 2
    ({"field": "gf", "p": 5, "rows": [["0", "2"], ["1", "0"]]}, ""),
], ids=["q", "qi", "gf"])
def test_not_split_hint_names_only_fields_that_take_the_input(tmp_path, capsys, data,
                                                              hint):
    path = _write(tmp_path, "m.json", data)
    assert main(["jordan", "--input", path]) == 3
    message, _, rest = capsys.readouterr().err.partition("\n")
    assert message.startswith("orbitref: characteristic polynomial does not split")
    assert rest == hint
    for field in re.findall(r"--field (\w+)", hint):
        assert main(["jordan", "--input", path, "--field", field]) != 2


def test_field_escalation_resolves_not_split(tmp_path, capsys):
    path = _write(tmp_path, "rot.json", ROTATION_Q)
    code, out = _run(capsys, ["jordan", "--input", path, "--field", "qi"])
    assert code == 0
    report = json.loads(out)
    eigs = sorted(e["eigenvalue"] for e in report["profile"]["entries"])
    assert eigs == ["-i", "i"]


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["jordan", "--input", str(bad)]) == 2
    zig = _write(tmp_path, "zig.json", {"field": "gf", "p": 4,
                                        "rows": [["1", "0"], ["0", "1"]]})
    assert main(["jordan", "--input", zig]) == 2
    for field, entry in (("q", "3/0"), ("qi", "1/2+3/0i")):
        zero = _write(tmp_path, "zero.json", {"field": field, "rows": [[entry]]})
        assert main(["jordan", "--input", zero]) == 2
    # JSON true and false are no scalars, though Python reads them as 1 and 0
    flags = _write(tmp_path, "flags.json", {"field": "q", "rows": [[True, False], [False, True]]})
    assert main(["jordan", "--input", flags]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("params", [
    {"p": "3"},
    {"p": 3.0},
    {"p": 3, "k": "2"},
    {"p": 3, "k": 2.0},
    {"p": 3, "k": 2, "modulus": 5},
    {"p": 3, "k": 2, "modulus": ["x^2+2x+2"]},
    {"p": 3, "k": True},
])
def test_bad_field_parameters_exit_2(tmp_path, capsys, params):
    path = _write(tmp_path, "bad.json", {"field": "gf", **params, "rows": [["1"]]})
    assert main(["jordan", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("orbitref: parse error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1e300"])
def test_bad_tol_exit_2(tmp_path, capsys, tol):
    path = _write(tmp_path, "diag.json", DIAG_Q)
    assert main(["jordan", "--input", path, "--field", "c64", "--tol", tol]) == 2
    bad = tmp_path / "bad.json"
    # the JSON reader accepts NaN and Infinity
    bad.write_text('{"field": "c64", "tol": %s, "rows": [["1"]]}'
                   % {"nan": "NaN", "inf": "Infinity"}.get(tol, tol))
    assert main(["jordan", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("orbitref: parse error: ") == 2
    assert "Traceback" not in err


# eigenvalues 1 and 1.001: a c64 file keeps its own tol, 1e-9 by default
NEAR_C64 = {"field": "c64", "rows": [["1.0+0.0i", "0.0+0.0i"],
                                     ["0.0+0.0i", "1.001+0.0i"]]}


@pytest.mark.parametrize("data,field", [
    (NEAR_C64, ["--field", "c64"]),
    (DIAG_Q, []),
    (DIAG_Q, ["--field", "qi"]),
], ids=["c64-file", "no-field", "qi"])
def test_tol_that_no_widening_reads_exits_2(tmp_path, capsys, data, field):
    path = _write(tmp_path, "m.json", data)
    assert main(["jordan", "--input", path, *field, "--tol", "0.01"]) == 2
    assert capsys.readouterr().err == (
        "orbitref: parse error: --tol needs --field c64 on q or qi input; "
        'a c64 file sets its own "tol"\n')


def test_tol_sets_the_c64_widening_of_q_input(tmp_path, capsys):
    path = _write(tmp_path, "diag.json", DIAG_Q)
    code, out = _run(capsys, ["jordan", "--input", path, "--field", "c64",
                              "--tol", "0.01"])
    assert code == 0
    report = json.loads(out)
    assert report["input"]["echo"]["tol"] == 0.01
    assert report["profile"]["field"]["tol"] == 0.01


def test_decide_gf3_delegates_to_oracle(tmp_path, capsys):
    path = _write(tmp_path, "shear.json", SHEAR_GF3)
    code, out = _run(capsys, ["decide", "--input", path])
    assert code == 0
    report = json.loads(out)
    (verdict,) = report["verdicts"]
    assert verdict["property"] == "algebraic_orbit_reflexive"
    assert verdict["answer"] is False
    assert verdict["certificate"]["enumeration"]["equal"] is False
    assert verdict["certificate"]["difference_sample"]


def test_decide_budget_exit_4(tmp_path, capsys):
    path = _write(tmp_path, "shear.json", SHEAR_GF3)
    assert main(["decide", "--input", path, "--budget", "10"]) == 4
    capsys.readouterr()


def test_decide_attaches_witness_on_false_c_orbit(tmp_path, capsys):
    path = _write(tmp_path, "gap2.json", GAP2_Q)
    code, out = _run(capsys, ["decide", "--input", path,
                              "--powers", "2000", "--samples", "10"])
    assert code == 0
    report = json.loads(out)
    verdicts = {v["property"]: v for v in report["verdicts"]}
    assert verdicts["reflexive"]["answer"] is False
    assert verdicts["orbit_reflexive"]["answer"] is True
    assert verdicts["c_orbit_reflexive"]["answer"] is False
    w = report["witness"]
    assert w["commutator_nonzero"] is True
    assert w["verdict_supported"] is True
    assert len(w["membership_residuals"]) == 4 + 10
    assert report["parameters"]["seed"] == 0


def test_decide_true_c_orbit_no_witness(tmp_path, capsys):
    path = _write(tmp_path, "diag.json", DIAG_Q)
    code, out = _run(capsys, ["decide", "--input", path])
    report = json.loads(out)
    verdicts = {v["property"]: v for v in report["verdicts"]}
    assert verdicts["c_orbit_reflexive"]["answer"] is True
    assert "witness" not in report


def test_decide_unknown_property_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "diag.json", DIAG_Q)
    assert main(["decide", "--input", path, "--properties", "bogus"]) == 2
    capsys.readouterr()


def test_witness_command(tmp_path, capsys):
    path = _write(tmp_path, "gap2.json", GAP2_Q)
    code, out = _run(capsys, ["witness", "--input", path,
                              "--powers", "400", "--samples", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["witness"]["witness_rows"][2] == ["1", "1", "0", "0"]
    assert report["witness"]["block_order"] == [["1", 3], ["1", 1]]


def test_witness_command_criterion_holds(tmp_path, capsys):
    path = _write(tmp_path, "diag.json", DIAG_Q)
    code, out = _run(capsys, ["witness", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["witness"] is None
    assert "no witness exists" in report["note"]


def test_oracle_membership_and_enumeration(tmp_path, capsys):
    t_path = _write(tmp_path, "shear.json", SHEAR_GF3)
    s_path = _write(tmp_path, "cand.json", {"field": "gf", "p": 3,
                                            "rows": [["0", "1"], ["0", "1"]]})
    code, out = _run(capsys, ["oracle", "--input", t_path,
                              "--candidate", s_path])
    assert code == 0
    assert json.loads(out)["oracle"]["contains"] is True

    code, out = _run(capsys, ["oracle", "--input", t_path])
    report = json.loads(out)
    assert report["oracle"]["equal"] is False
    assert report["oracle"]["difference_sample"]


def test_ffscan_summary_and_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache.jsonl")
    code, out = _run(capsys, ["ffscan", "--q", "2", "--d", "2",
                              "--cache", cache])
    assert code == 0
    first = json.loads(out)
    assert first["scan"]["total"] == 16
    assert first["scan"]["from_cache"] == 0
    code, out = _run(capsys, ["ffscan", "--q", "2", "--d", "2",
                              "--cache", cache])
    second = json.loads(out)
    assert second["scan"]["from_cache"] == 16
    assert second["scan"]["counts"] == first["scan"]["counts"]


@pytest.mark.parametrize("argv", [
    ["witness", "--powers", "10"],
    ["decide", "--powers", "10"],
    ["witness", "--samples", "-1"],
    ["decide", "--samples", "-1"],
    ["decide", "--seed", "-1"],
    ["ffscan", "--q", "2", "--d", "4", "--no-cache"],
    ["ffscan", "--q", "2", "--d", "0", "--no-cache"],
    ["ffscan", "--q", "2", "--d", "2", "--no-cache", "--limit", "-3"],
    ["demo-counterexample", "--n", "1"],
    ["decide", "--budget", "0"],
    ["oracle", "--budget", "-1"],
    ["oracle", "--budget", "0"],
    ["ffscan", "--q", "2", "--d", "2", "--no-cache", "--budget", "0"],
    ["ffscan", "--q", "2", "--d", "2", "--no-cache", "--workers", "0"],
    ["ffscan", "--q", "2", "--d", "2", "--no-cache", "--workers", "-3"],
    ["demo-counterexample", "--n", "201"],
])
def test_out_of_range_numbers_exit_2(tmp_path, capsys, argv):
    if argv[0] in ("witness", "decide"):
        argv = argv + ["--input", _write(tmp_path, "gap2.json", GAP2_Q)]
    elif argv[0] == "oracle":
        argv = argv + ["--input", _write(tmp_path, "shear.json", SHEAR_GF3)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("orbitref: parse error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("candidate", [
    {"field": "gf", "p": 5, "rows": [["0", "1"], ["0", "1"]]},
    {"field": "q", "rows": [["0", "1"], ["0", "1"]]},
    {"field": "gf", "p": 3, "rows": [["0"] * 3] * 3},
])
def test_oracle_candidate_of_another_field_or_size_exits_2(tmp_path, capsys,
                                                          candidate):
    t_path = _write(tmp_path, "shear.json", SHEAR_GF3)
    s_path = _write(tmp_path, "cand.json", candidate)
    assert main(["oracle", "--input", t_path, "--candidate", s_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("orbitref: parse error: candidate is ")
    assert "Traceback" not in err


# every option string of each subcommand: a new option is a deliberate edit
OPTIONS = {
    "jordan": ["--field", "--format", "--input", "--out", "--tol"],
    "decide": ["--budget", "--field", "--format", "--input", "--out", "--powers",
               "--properties", "--samples", "--seed", "--tol"],
    "witness": ["--field", "--format", "--input", "--out", "--powers", "--samples",
                "--seed", "--tol"],
    "oracle": ["--budget", "--candidate", "--format", "--input", "--out"],
    "ffscan": ["--budget", "--cache", "--d", "--format", "--limit", "--nilpotent-only",
               "--no-cache", "--out", "--q", "--rigidity", "--workers"],
    "demo-counterexample": ["--format", "--n", "--out"],
}


def test_option_inventory():
    parser = build_parser()
    [sub] = [a for a in parser._actions if a.dest == "command"]
    assert [o for a in parser._actions for o in a.option_strings] == [
        "-h", "--help", "--version"]
    options = {name: sorted(o for a in p._actions for o in a.option_strings
                            if o not in ("-h", "--help"))
               for name, p in sub.choices.items()}
    assert options == OPTIONS
    fields = {name: next(a.choices for a in p._actions if a.dest == "field")
              for name, p in sub.choices.items() if "--field" in OPTIONS[name]}
    assert fields == dict.fromkeys(["jordan", "decide", "witness"], ["qi", "c64"])


@pytest.mark.parametrize("argv,message", [
    (["ffscan", "--q", "3", "--d", "1", "--no-cache", "--no-dedup"],
     "unrecognized arguments: --no-dedup"),
    (["demo-counterexample", "--n", "3", "--max-power", "3"],
     "unrecognized arguments: --max-power 3"),
    (["jordan", "--input", "m.json", "--field", "q"],
     "argument --field: invalid choice: 'q'"),
], ids=["no-dedup", "max-power", "field-q"])
def test_removed_options_exit_2_from_argparse(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_decide_and_witness_have_no_workers_option(tmp_path, capsys):
    path = _write(tmp_path, "gap2.json", GAP2_Q)
    for command in ("decide", "witness"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", path, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_ffscan_rejects_non_prime_power(capsys):
    for q in ("6", "1", "12", "0", "-4"):
        assert main(["ffscan", "--q", q, "--d", "2", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "a prime q or a stock extension field, q = 4, 8, 9" in err
        assert err.endswith(f"; {q} is neither\n")


@pytest.mark.parametrize("argv,data,code", [
    (["jordan"], {"field": "q", "rows": [[f"1/{(2 ** 61 - 1) ** 2}"]]}, 0),
    (["jordan"], {"field": "gf", "p": 2 ** 89 - 1, "rows": [["1"]]}, 2),
    (["ffscan", "--q", "1000000007", "--d", "1", "--no-cache"], None, 4),
    (["ffscan", "--q", str(2 ** 61 - 1), "--d", "1", "--no-cache"], None, 4),
    (["ffscan", "--q", "3317044064679887385961981", "--d", "1", "--no-cache"], None, 2),
    # companions of (t - 5)^2 (t - 7) and of t^3 - 2, which has no root:
    # 2 is no cube mod 1000003
    (["jordan"], {"field": "gf", "p": 1000003,
                  "rows": [["0", "0", "175"], ["1", "0", "999908"], ["0", "1", "17"]]}, 0),
    (["jordan"], {"field": "gf", "p": 1000003,
                  "rows": [["0", "0", "2"], ["1", "0", "0"], ["0", "1", "0"]]}, 3),
    # 1x1 over GF(10007): few candidates, but q^2 entries in the vector
    # tables of an enumeration or a scan; a candidate check builds none
    (["decide"], {"field": "gf", "p": 10007, "rows": [["5"]]}, 4),
    (["oracle", "--candidate", "m.json"], {"field": "gf", "p": 10007, "rows": [["5"]]}, 0),
    (["ffscan", "--q", "10007", "--d", "1", "--no-cache"], None, 4),
    # the demo's work grows as n^3: the largest n answers, a huge one is refused
    (["demo-counterexample", "--n", "200"], None, 0),
    (["demo-counterexample", "--n", "100000"], None, 2),
], ids=["jordan-mersenne-square", "gf-above-primality-bound", "ffscan-large-prime",
        "ffscan-mersenne-prime", "ffscan-above-primality-bound", "jordan-gf-large-prime-split",
        "jordan-gf-large-prime-irreducible-cubic", "decide-gf-table-budget",
        "oracle-candidate-gf-table-budget", "ffscan-gf-table-budget",
        "demo-largest-n", "demo-n-above-bound"])
def test_cli_answers_within_10_s(tmp_path, argv, data, code):
    # each of these hung before: a subprocess with a timeout makes a
    # regression fail instead of stalling the suite
    if data is not None:
        argv = argv + ["--input", _write(tmp_path, "m.json", data)]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # run in tmp_path, where a relative path names the written matrix
    proc = subprocess.run([sys.executable, "-m", "orbitref", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr



def _shear_and_candidate(tmp_path, p):
    # over GF(p) the candidate passes every vector check, after
    # p (p^2 - 1) / 2 walk steps in all: about 4.7e6 at p = 211, 4.7e8 at 997
    return (_write(tmp_path, "t.json", {"field": "gf", "p": p,
                                        "rows": [["1", "1"], ["0", "1"]]}),
            _write(tmp_path, "s.json", {"field": "gf", "p": p,
                                        "rows": [["0", "1"], ["0", "1"]]}))


@pytest.mark.parametrize("p,budget", [(211, 10 ** 5), (997, 10 ** 6)])
def test_oracle_candidate_walk_steps_exceed_budget(tmp_path, p, budget):
    # the p^2 vector checks fit either budget; their walks do not, and are
    # refused as they run instead of running for seconds to minutes
    t_path, s_path = _shear_and_candidate(tmp_path, p)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "orbitref", "oracle", "--input", t_path,
                           "--candidate", s_path, "--budget", str(budget)],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 4, proc.stderr
    assert "walk steps exceed the budget" in proc.stderr


def test_oracle_candidate_walks_fit_default_budget(tmp_path, capsys):
    t_path, s_path = _shear_and_candidate(tmp_path, 101)
    code, out = _run(capsys, ["oracle", "--input", t_path, "--candidate", s_path])
    assert code == 0
    assert json.loads(out)["oracle"]["contains"] is True

def test_ffscan_worker_determinism(tmp_path, capsys):
    outputs = []
    for w in ("1", "2", "8"):
        code, out = _run(capsys, ["ffscan", "--q", "3", "--d", "2",
                                  "--no-cache", "--workers", w])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_repeat_invocation_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, "gap2.json", GAP2_Q)
    argv = ["decide", "--input", path, "--powers", "200", "--samples", "8"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert out1 == out2


def test_demo_counterexample(capsys):
    code, out = _run(capsys, ["demo-counterexample", "--n", "8"])
    assert code == 0
    report = json.loads(out)
    assert report["demo"]["no_single_power"] is True
    assert len(report["demo"]["witnesses"]) == 8
    assert len(report["demo"]["truncations"]) == 8


def test_table_format(tmp_path, capsys):
    path = _write(tmp_path, "gap2.json", GAP2_Q)
    code, out = _run(capsys, ["decide", "--input", path, "--powers", "200",
                              "--samples", "4", "--format", "table"])
    assert code == 0
    assert "c_orbit_reflexive" in out and "NO" in out


def test_out_file(tmp_path, capsys):
    path = _write(tmp_path, "diag.json", DIAG_Q)
    dest = tmp_path / "report.json"
    code, _ = _run(capsys, ["jordan", "--input", path, "--out", str(dest)])
    assert code == 0
    assert json.loads(dest.read_text())["profile"]["dim"] == 3


def test_report_hash_self_consistent(tmp_path, capsys):
    path = _write(tmp_path, "diag.json", DIAG_Q)
    _, out = _run(capsys, ["jordan", "--input", path])
    report = json.loads(out)
    recomputed = json.loads(render_report(
        {k: v for k, v in report.items() if k != "report_hash"}))
    assert recomputed["report_hash"] == report["report_hash"]


CANDIDATE_GF3 = {"field": "gf", "p": 3, "rows": [["0", "1"], ["0", "1"]]}


@pytest.mark.parametrize("argv", [
    ["jordan", "--input", "diag.json"],
    ["jordan", "--input", "rot.json", "--field", "c64"],
    ["decide", "--input", "gap2.json", "--powers", "200", "--samples", "4"],
    ["witness", "--input", "gap2.json", "--powers", "400", "--samples", "5"],
    ["oracle", "--input", "shear.json"],
    ["oracle", "--input", "shear.json", "--candidate", "cand.json"],
    ["ffscan", "--q", "2", "--d", "2", "--no-cache"],
    ["demo-counterexample", "--n", "5"],
], ids=["jordan", "jordan-c64", "decide-witness", "witness", "oracle",
        "oracle-candidate", "ffscan", "demo-counterexample"])
def test_report_shapes_round_trip(tmp_path, capsys, argv):
    # every report shape prints as json's own indented text of itself, and
    # its hash recomputes over json's compact form
    inputs = {"diag.json": DIAG_Q, "rot.json": ROTATION_Q, "gap2.json": GAP2_Q,
              "shear.json": SHEAR_GF3, "cand.json": CANDIDATE_GF3}
    argv = [_write(tmp_path, a, inputs[a]) if a in inputs else a for a in argv]
    code, out = _run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    body = {k: v for k, v in report.items() if k != "report_hash"}
    compact = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    assert report["report_hash"] == hashlib.sha256(compact.encode()).hexdigest()


_SPECIAL_TEXT = st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é",
                                 "\u2028", "\U0001f600", "</script>"])
_BEYOND_64_BITS = st.integers(min_value=2 ** 64, max_value=2 ** 200)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), _BEYOND_64_BITS, _BEYOND_64_BITS.map(lambda n: -n),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]),
    st.text(max_size=8), _SPECIAL_TEXT,
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6) | _SPECIAL_TEXT, kids, max_size=4),
        st.dictionaries(st.integers(), kids, max_size=3),
        st.dictionaries(st.floats(), kids, max_size=3)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_pretty_matches_json_indent(tree):
    assert _pretty(tree, "") == json.dumps(tree, sort_keys=True, indent=2,
                                           ensure_ascii=True)


class _Level(enum.IntEnum):
    HIGH = 3


class _Label(str):
    pass


class _Half(float):
    def __repr__(self):
        return "half"


@pytest.mark.parametrize("value", [
    {"a": np.float64(1e-05), "b": _Level.HIGH, "c": _Label("x"), "d": _Half(0.5)},
    {True: 1, False: 2}, {None: [None]}, {_Label("k"): 1}, {2.5: 3, 7: 4, 10: 5},
    [np.float64("nan"), (1, [])],
    np.int64(3), {1, 2}, {"a": b"x"}, {(1, 2): 3}, {None: 1, 2: 3},
])
def test_pretty_follows_json_outside_its_table(value):
    # subclasses render as json renders their base type; whatever json
    # rejects raises the same error
    try:
        expected = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True)
    except TypeError as exc:
        with pytest.raises(TypeError, match=re.escape(str(exc))):
            _pretty(value, "")
    else:
        assert _pretty(value, "") == expected


def test_load_matrix_data_validations():
    from orbitref import ParseError

    with pytest.raises(ParseError):
        load_matrix_data({"field": "q", "rows": [["1", "2"]]})  # not square
    with pytest.raises(ParseError):
        load_matrix_data({"field": "zz", "rows": [["1"]]})
    with pytest.raises(ParseError):
        load_matrix_data({"field": "c64", "tol": -1, "rows": [["1.0+0.0i"]]})
    mf = load_matrix_data({"field": "gf", "p": 3, "k": 2,
                           "rows": [["x+1", "0"], ["0", "2"]]})
    assert mf.raw["modulus"] == "x^2+2x+2"


def test_ffscan_budget_exit_4(capsys):
    assert main(["ffscan", "--q", "3", "--d", "2", "--no-cache",
                 "--budget", "10"]) == 4
    capsys.readouterr()


def test_cache_env_override(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache.jsonl"
    monkeypatch.setenv("ORBITREF_CACHE", str(cache))
    code, out = _run(capsys, ["ffscan", "--q", "2", "--d", "2"])
    assert code == 0
    assert cache.exists()
    assert json.loads(out)["scan"]["cache"] == str(cache)


def test_decide_gf_nonsplit_still_settles_algebraic(tmp_path, capsys):
    # char poly t^2 + t + 1 is irreducible over GF(2); the algebraic verdict
    # is still settled exactly by the oracle, with the residual echoed
    data = {"field": "gf", "p": 2, "rows": [["0", "1"], ["1", "1"]]}
    path = _write(tmp_path, "irr.json", data)
    code, out = _run(capsys, ["decide", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["profile"]["split"] is False
    assert "t^2+t+1" in report["profile"]["residual_factor"]
    (verdict,) = report["verdicts"]
    assert verdict["answer"] in (True, False)


def test_witness_rejects_finite_field(tmp_path, capsys):
    path = _write(tmp_path, "shear.json", SHEAR_GF3)
    assert main(["witness", "--input", path]) == 2
    capsys.readouterr()


def test_ffscan_nilpotent_only_after_full_scan(tmp_path, capsys):
    cache = str(tmp_path / "mixed.jsonl")
    code, _ = _run(capsys, ["ffscan", "--q", "2", "--d", "2", "--cache", cache])
    assert code == 0
    code, out = _run(capsys, ["ffscan", "--q", "2", "--d", "2", "--cache", cache,
                              "--nilpotent-only", "--rigidity"])
    assert code == 0
    scan = json.loads(out)["scan"]
    # only the q^(d^2-d) = 4 nilpotent matrices are counted
    assert scan["counts"]["nilpotent"] == scan["scanned"] == 4
    # without --rigidity the unfiltered scan's rows serve, and its other
    # 12 rows are passed over
    code, out = _run(capsys, ["ffscan", "--q", "2", "--d", "2", "--cache", cache,
                              "--nilpotent-only"])
    assert code == 0
    scan = json.loads(out)["scan"]
    assert scan["from_cache"] == scan["scanned"] == 4


def test_ffscan_p_k_flags(capsys):
    # --q is the one way to name the field: q = 4 reaches GF(2^2) and its
    # stock modulus, and --p and --k are no options
    code, out = _run(capsys, ["ffscan", "--q", "4", "--d", "2",
                              "--no-cache", "--limit", "10"])
    assert code == 0
    report = json.loads(out)
    scan = report["scan"]
    assert scan["q"] == 4 and scan["field"]["modulus"] == "x^2+x+1"
    assert report["parameters"]["q"] == 4
    assert main(["ffscan", "--d", "2", "--no-cache"]) == 2
    assert "ffscan needs --q" in capsys.readouterr().err
    for argv in (["--p", "2", "--k", "2"], ["--q", "4", "--k", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["ffscan", *argv, "--d", "1", "--no-cache"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_unsupported_extension_field_names_what_to_give(tmp_path, capsys):
    # ffscan has no modulus option, so it names the fields it can scan
    assert main(["ffscan", "--q", "32", "--d", "1", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "q = 4, 8, 9, 16, 25, 27, 49, 121, 169; 32 is neither" in err
    assert "modulus=" not in err
    # a matrix file names its field, so it can give the modulus itself
    g32 = {"field": "gf", "p": 2, "k": 5, "rows": [["1", "1"], ["0", "1"]]}
    assert main(["oracle", "--input", _write(tmp_path, "g32.json", g32)]) == 2
    err = capsys.readouterr().err
    assert '"modulus" key' in err and "modulus=" not in err
    path = _write(tmp_path, "g32m.json", {**g32, "modulus": "x^5+x^2+1"})
    code, out = _run(capsys, ["jordan", "--input", path])
    assert code == 0
    assert json.loads(out)["input"]["echo"]["modulus"] == "x^5+x^2+1"


DATA = pathlib.Path(__file__).parent / "data"


# goldens of error paths: their exit code; the file holds stderr
ERROR_GOLDENS = {"residual_q_jordan_stderr": 3}


def _assert_golden(capsys, argv, golden):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    if golden in ERROR_GOLDENS:
        assert (code, captured.out) == (ERROR_GOLDENS[golden], "")
        assert captured.err == (DATA / f"{golden}.golden.txt").read_text()
    else:
        assert code == 0
        assert captured.out == (DATA / f"{golden}.golden.json").read_text()


def test_jordan_golden_report(capsys):
    _assert_golden(capsys, ["jordan", "--input", "diag_input.json"],
                   "diag_jordan_report")


GOLDEN_CASES = [
    (["decide", "--input", "shear_q_input.json", "--samples", "5"],
     "shear_q_decide_report"),
    (["decide", "--input", "gf9_input.json"], "gf9_decide_report"),
    (["jordan", "--field", "c64", "--input", "modulus_tie_input.json"],
     "modulus_tie_c64_jordan_report"),
    (["ffscan", "--q", "3", "--d", "2", "--no-cache"], "ffscan_q3_d2_report"),
    (["jordan", "--input", "residual_q_input.json"], "residual_q_jordan_stderr"),
    (["decide", "--input", "nil3_q_input.json", "--samples", "5"],
     "nil3_q_decide_report"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES)
def test_golden_report(capsys, argv, golden):
    # byte-exact reports: a dense shear-conjugated Q matrix with a witness,
    # a GF(9) matrix, a c64 modulus tie inside the 10x band (fragile), a
    # whole-space scan, the not-split error of a Q matrix whose char poly
    # is (t - 1/2)(t^2 + 1/3), with its residual factor, and the lone
    # nilpotent 3-chain over Q, whose zero block fails the gap against 0
    _assert_golden(capsys, argv, golden)


def test_golden_reports_back_to_back(capsys):
    # one parser serves every call of the process, and no call leaves state
    # behind that changes the next report
    assert build_parser() is build_parser()
    for argv, golden in GOLDEN_CASES + GOLDEN_CASES[::-1]:
        _assert_golden(capsys, argv, golden)


def test_decide_builds_the_witness_once(capsys, monkeypatch):
    # decide validates the Jordan model and witness that its false C-orbit
    # verdict already carries, and builds neither a second time
    from orbitref import cli, witness

    calls = {"canonical_jordan": 0, "build_c_orbit_witness": 0}
    for name in calls:
        original = getattr(witness, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(witness, name, counted)
        monkeypatch.setattr(cli, name, counted)
    _assert_golden(capsys, GOLDEN_CASES[0][0], GOLDEN_CASES[0][1])
    assert calls == {"canonical_jordan": 1, "build_c_orbit_witness": 1}


@pytest.mark.parametrize("data", [
    SHEAR_GF3, {"field": "gf", "p": 2, "k": 2, "rows": [["x", "1"], ["0", "x"]]}],
    ids=["gf3", "gf4"])
def test_gf_decide_sieves_once(tmp_path, capsys, monkeypatch, data):
    # the profile and the algebraic verdict read one eigenvalue sieve, kept
    # on the matrix
    from orbitref import _poly, spectra

    calls = []

    def counted(*args):
        calls.append(args)
        return _poly.split_roots(*args)
    monkeypatch.setattr(spectra, "split_roots", counted)
    code, out = _run(capsys, ["decide", "--input", _write(tmp_path, "m.json", data)])
    assert code == 0
    report = json.loads(out)
    assert report["profile"]["entries"][0]["block_sizes"] == [2]
    assert [v["property"] for v in report["verdicts"]] == ["algebraic_orbit_reflexive"]
    assert len(calls) == 1


def test_jordan_large_prime_denominator(tmp_path, capsys):
    # 2^61 - 1 is prime: the sieve factors it by one primality test, not
    # by trial division up to its square root
    path = _write(tmp_path, "p61.json",
                  {"field": "q", "rows": [["1/2305843009213693951"]]})
    code, out = _run(capsys, ["jordan", "--input", path])
    assert code == 0
    entries = json.loads(out)["profile"]["entries"]
    assert [(e["eigenvalue"], e["block_sizes"]) for e in entries] == [
        ("1/2305843009213693951", [1])]


def test_decide_c64_input(tmp_path, capsys):
    data = {"field": "c64", "tol": 1e-9, "rows": [
        ["1.0+0.0i", "0.0+0.0i", "0.0+0.0i"],
        ["1.0+0.0i", "1.0+0.0i", "0.0+0.0i"],
        ["0.0+0.0i", "1.0+0.0i", "1.0+0.0i"],
    ]}
    path = _write(tmp_path, "float3.json", data)
    code, out = _run(capsys, ["decide", "--input", path, "--powers", "2000",
                              "--samples", "5"])
    assert code == 0
    report = json.loads(out)
    verdicts = {v["property"]: v for v in report["verdicts"]}
    # a lone float Jordan 3-chain at eigenvalue 1: gap 3 against 0
    assert verdicts["c_orbit_reflexive"]["answer"] is False
    assert report["profile"]["entries"][0]["block_sizes"] == [3]
    assert report["witness"]["verdict_supported"] is True


def test_decide_nilpotent_input(tmp_path, capsys):
    data = {"field": "q", "rows": [
        ["0", "0", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "0", "0"],
    ]}
    path = _write(tmp_path, "nil.json", data)
    code, out = _run(capsys, ["decide", "--input", path])
    assert code == 0
    report = json.loads(out)
    verdicts = {v["property"]: v for v in report["verdicts"]}
    assert report["profile"]["nilpotent"] is True
    assert verdicts["reflexive"]["answer"] is False      # gap 3 vs 1
    # at spectral radius 0 the zero blocks pool: [3, 1] has gap 2
    assert verdicts["c_orbit_reflexive"]["answer"] is False
    assert report["witness"]["verdict_supported"] is True
