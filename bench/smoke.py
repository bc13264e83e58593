"""Smoke check of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

For every workload and both trace modes it runs ``bench/run.py`` at a
twentieth of the normal size and checks that the last output line parses,
has exactly the result keys, and carries every metric that BENCHMARK.json
declares for that mode, with the declared unit. It then forces the
same-seed digests to differ and checks that the benchmark reports an error
and prints no result. Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"


def _declared() -> tuple[list[str], dict[int, dict[str, str]]]:
    """Workload names, and metric name -> unit for each trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    return [w["name"] for w in spec["workloads"]], units


def _check_result(line: str, want: dict[str, str]) -> list[str]:
    try:
        res = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(res)}")
        return problems
    if not isinstance(res["correct"], bool):
        problems.append("correct is not a boolean")
    for key, least in (("attempted", 1), ("failed", 0)):
        if not isinstance(res[key], int) or res[key] < least:
            problems.append(f"{key} is not a whole number >= {least}")
    got = res["metrics"]
    if set(got) != set(want):
        problems.append(f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(
                f"{name} has unit {m.get('unit')!r}, want {unit!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    return problems


def check_outputs() -> list[str]:
    workloads, declared = _declared()
    failures = []
    for workload in workloads:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"),
                   "--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--scale", SCALE]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=170)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            problems = _check_result(lines[-1] if lines else "",
                                     declared[trace])
            failures += [f"{label}: {p}" for p in problems]
            print(f"{label}: {'ok' if not problems else 'FAILED'}")
    return failures


def check_digest_mismatch() -> list[str]:
    """Make every digest unique; the run must end in an error, no result."""
    sys.path.insert(0, str(HERE))
    import run

    real = run.Bench.digest
    calls = []

    def drifting(self, report):
        calls.append(1)
        return f"{real(self, report)}-{len(calls)}"

    run.Bench.digest = drifting
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "ingest", "--seed", "3",
                             "--seconds", "0", "--scale", SCALE])
    finally:
        run.Bench.digest = real
    failures = []
    if code == 0:
        failures.append("forced digest mismatch: exit code 0")
    if "same-seed runs differ" not in err.getvalue():
        failures.append(f"forced digest mismatch: no error on stderr, got "
                        f"{err.getvalue()!r}")
    if out.getvalue().strip():
        failures.append("forced digest mismatch: a result was printed")
    print(f"forced digest mismatch: {'ok' if not failures else 'FAILED'}")
    return failures


def main() -> int:
    failures = check_outputs() + check_digest_mismatch()
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
