"""tools/report_digests.py: one digest line per benchmark op, equal across
runs with the same work directory."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"(op|probe) (\S.*) exit=(\d+) out=[0-9a-f]{64} err=[0-9a-f]{64} "
                  r"cache=([0-9a-f]{64}|-)")


def _digests(work, workload):
    proc = subprocess.run([sys.executable, "tools/report_digests.py", "--workload", workload,
                           "--seed", "1", "--work", str(work), "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", ["exact", "finite"])
def test_report_digests_tiny_corpus(tmp_path, workload):
    work = tmp_path / "work"
    lines = _digests(work, workload)
    assert lines
    matches = [LINE.fullmatch(line) for line in lines]
    assert all(matches), lines
    assert not list(work.iterdir())      # the corpus and the caches are removed
    # paths inside the work directory are shown relative to it
    assert all(str(work) not in m.group(2) for m in matches)
    if workload == "finite":
        assert any(m.group(4) != "-" for m in matches)   # ffscan caches digested
    assert _digests(work, workload) == lines

    (work / "stale").write_text("")
    proc = subprocess.run([sys.executable, "tools/report_digests.py", "--workload", workload,
                           "--seed", "1", "--work", str(work), "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "is not empty" in proc.stderr
