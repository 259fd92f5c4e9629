"""Checks of the benchmark itself, at tiny query counts.

Each run happens in a child process: set-up re-imports kbfplan, which must
not disturb the kbfplan modules that other tests in this process hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _child(code: str) -> dict:
    """Run code with run.py importable; it prints one JSON object last."""
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(HERE)!r})\n"
                           + code], capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


TINY = "n_queries=4, trace_queries=4"


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_every_metric_and_digest(workload):
    out = _child(f"""
import json, run
plain = run.run({workload!r}, 5, 0, False, {TINY})
again = run.run({workload!r}, 5, 3, False, {TINY})
traced = run.run({workload!r}, 5, 0, True, {TINY})
print(json.dumps({{"plain": plain, "again": again, "traced": traced}}))
""")
    for mode, units in (("plain", run.END_TO_END), ("traced", run.PER_LAYER)):
        info, result = out[mode]
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] == 4
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert out["plain"][1]["metrics"]["success_share"]["value"] == 1.0
    assert out["traced"][0]["digest_consistent"] is True
    # the three-second run repeats its four queries, and every repeat must agree
    assert out["again"][0]["executions"] > 4
    assert out["again"][0]["repeats_consistent"] is True
    digests = {out[mode][0]["digest"] for mode in ("plain", "again", "traced")}
    assert len(digests) == 1


def test_digest_changes_with_seed():
    out = _child(f"""
import json, run
print(json.dumps([run.run("kbf-plan", s, 0, False, {TINY})[0]["digest"] for s in (1, 2)]))
""")
    assert out[0] != out[1]


def test_traced_run_restores_every_wrapped_attribute():
    out = _child(f"""
import json, run, tracer
kbf, _, _ = run.set_up(reps=1)
points = tracer.wrap_points(kbf)
before = [vars(owner)[attr] for owner, attr, _ in points]
run.traced_run(kbf, "mission", 3, 0, n_queries=2)
after_run = [vars(owner)[attr] for owner, attr, _ in points]
tr = tracer.Tracer()
try:
    with tr.installed(kbf):
        swapped = [vars(owner)[attr] for owner, attr, _ in points]
        raise KeyError("boom")
except KeyError:
    pass
after_error = [vars(owner)[attr] for owner, attr, _ in points]
print(json.dumps({{
    "n": len(points),
    "run": all(a is b for a, b in zip(before, after_run)),
    "error": all(a is b for a, b in zip(before, after_error)),
    "swapped": all(a is not b for a, b in zip(before, swapped)),
}}))
""")
    assert out == {"n": 14, "run": True, "error": True, "swapped": True}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "perfbench/run.py"
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kbf-plan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
