"""The known-defect ledger: one strict xfail per standing defect.

Each test asserts the correct behaviour through `cli.main` and names the
ROADMAP item that fixes it.  A strict xfail turns red once its defect is
fixed; the fixing change then drops the marker, and the test stays as a
plain test.  `pytest -rxX tests/test_known_defects.py` lists the ledger.
The c64 cluster defects (item 7) stay in perfbench's known-defect probe,
and the exit-3 hint over GF(q) (item 10) is fixed and tested in
test_cli.py.
"""

import json

import pytest

from orbitref.cli import main


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _jordan_rows(blocks):
    """The rows, as text, of the direct sum of lower-chain Jordan blocks,
    given as (eigenvalue text, size) pairs."""
    d = sum(size for _, size in blocks)
    rows = [["0"] * d for _ in range(d)]
    start = 0
    for eigenvalue, size in blocks:
        for i in range(start, start + size):
            rows[i][i] = eigenvalue
            if i > start:
                rows[i][i - 1] = "1"
        start += size
    return rows


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the extension-field "
                   "rule answers true on a nilpotent gap >= 2")
def test_gf4_nilpotent_chain_algebraic_verdict_matches_oracle(tmp_path, capsys):
    path = _write(tmp_path, "j3.json",
                  {"field": "gf", "p": 2, "k": 2, "rows": _jordan_rows([("0", 3)])})
    code, out = _run(capsys, ["decide", "--input", path, "--properties", "algebraic"])
    assert code == 0
    (verdict,) = json.loads(out)["verdicts"]
    code, out = _run(capsys, ["oracle", "--input", path])
    assert code == 0
    assert verdict["answer"] == json.loads(out)["oracle"]["equal"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: float residual "
                   "thresholds reject a correct false verdict")
def test_long_chain_witness_supports_its_verdict(tmp_path, capsys):
    path = _write(tmp_path, "j5.json", {"field": "q", "rows": _jordan_rows([("-2", 5)])})
    code, out = _run(capsys, ["witness", "--input", path])
    assert code == 0
    assert json.loads(out)["witness"]["verdict_supported"] is True


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the oracle refuses "
                   "d = 4 over GF(3) up front")
def test_gf3_d4_decide_answers(tmp_path, capsys):
    rows = _jordan_rows([("1", 2), ("0", 1), ("0", 1)])
    path = _write(tmp_path, "t.json", {"field": "gf", "p": 3, "rows": rows})
    code, _ = _run(capsys, ["decide", "--input", path])
    assert code == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: a non-split rational "
                   "characteristic polynomial exits 3")
def test_non_split_rational_jordan_answers(tmp_path, capsys):
    path = _write(tmp_path, "r.json", {"field": "q", "rows": [["0", "2"], ["1", "0"]]})
    code, _ = _run(capsys, ["jordan", "--input", path])
    assert code == 0


# far fewer than the q = 10^6 + 3 elements the sieve walks today
ROOT_DRAWS = 10 ** 4


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the GF(q) root "
                   "search tries every element")
def test_large_prime_field_root_search_draws_few_candidates(tmp_path, capsys, monkeypatch):
    # the companion of t^3 - 2, which has no root in GF(10^6 + 3); the
    # candidates the sieve draws are counted, and the walk stops once it
    # passes the bound, so a failing run stays fast
    from orbitref import _poly, spectra

    draws = 0

    def counted(poly, candidates, *ops):
        def capped():
            nonlocal draws
            for x in candidates:
                draws += 1
                if draws > ROOT_DRAWS:
                    return
                yield x
        return _poly.split_roots(poly, capped(), *ops)
    monkeypatch.setattr(spectra, "split_roots", counted)
    path = _write(tmp_path, "c.json", {"field": "gf", "p": 1000003,
                                       "rows": [["0", "0", "2"], ["1", "0", "0"],
                                                ["0", "1", "0"]]})
    code, _ = _run(capsys, ["jordan", "--input", path])
    assert code == 3
    assert draws < ROOT_DRAWS
