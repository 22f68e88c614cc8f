"""Self-test of the benchmark harness at a tiny size; asserts no timing.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

For every workload it runs the untraced and the traced mode with
``--size tiny`` and checks that each metric of BENCHMARK.json is printed
with its unit, that every main op passes its reference check, that every
probe is classified, and that each workload bypasses the layers it is
meant to bypass.  Every per-layer metric must be non-zero on at least one
workload, which catches a metric name that no span produces.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = re.compile(r"^probe (\S+) (pass|fail) (ok|exit-\d+|raises-\w+|wrong-value)\b")


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    nonzero: set[str] = set()
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            lines, result = run(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (name, trace, lines)
            assert result["attempted"] >= 1
            got = result["metrics"]
            assert set(got) == {m["name"] for m in wanted}, (name, trace, set(got) ^ {m["name"] for m in wanted})
            for m in wanted:
                assert got[m["name"]]["unit"] == m["unit"], (name, m["name"])
                printed = f"metric {m['name']} "
                assert any(line.startswith(printed) and f" {m['unit']}" in line for line in lines), printed
                if got[m["name"]]["value"] != 0:
                    nonzero.add(m["name"])
            assert any(line.startswith("metric error_rate ") for line in lines), (name, "error_rate")
            probes = [line for line in lines if line.startswith("probe ")]
            assert probes, (name, "no probes")
            for line in probes:
                assert PROBE.match(line), f"unclassified probe: {line}"
            if trace:
                inverse = got["family.distortion_inverse.calls"]["value"]
                cli = got["cli.main.calls"]["value"]
                assert (inverse == 0) == (name == "moment-table"), (name, "distortion_inverse")
                assert (cli > 0) == (name == "cli-export"), (name, "cli.main")
        print(f"ok {name}")
    silent = {m["name"] for m in bench["per_layer"]} - nonzero
    assert not silent, f"per-layer metrics zero on every workload: {sorted(silent)}"
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
