"""tools/bench_compare.py on the committed BENCH files: it reads them and
runs nothing."""

import json
import pathlib
import statistics
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "bench_compare.py"


def compare(old, new):
    proc = subprocess.run([sys.executable, str(TOOL), old, new], cwd=REPO,
                          capture_output=True, text=True)
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in proc.stdout.splitlines()[1:]}
    return proc.returncode, rows


def test_bench_36_against_37():
    code, rows = compare("BENCH_36.json", "BENCH_37.json")
    assert len(rows) == 8  # two workloads, four end-to-end metrics
    # solve's pass_s by hand: medians over seeds 1-3 and their relative change
    old, new = (statistics.median(run["result"]["metrics"]["pass_s"]["value"]
                                  for run in json.loads((REPO / name).read_text())
                                  ["runs"]["solve"]["trace0"].values())
                for name in ("BENCH_36.json", "BENCH_37.json"))
    assert (old, new) == (6.3814380222916895, 7.909931728894795)
    assert rows[("solve", "pass_s")] == [f"{old:.6g}", f"{new:.6g}",
                                         f"{new / old - 1:+.2%}", "25%", "within"]
    # setup_s rose by 29% against its 25% bound: the run exits 1
    assert rows[("solve", "setup_s")][-1] == "WORSE"
    assert code == 1


def test_a_file_against_itself_is_within_every_bound():
    code, rows = compare("BENCH_37.json", "BENCH_37.json")
    assert code == 0
    assert {row[2] for row in rows.values()} == {"+0.00%"}
