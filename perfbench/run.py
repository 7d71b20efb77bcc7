"""The repository benchmark: build, serve and live-update workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a detail record (host, workload sizes, phase figures),
which is also written with the spans of a traced run under
``.perfbench_out/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def host_block() -> dict:
    """CPUs, RAM, library versions and git sha of the machine and checkout."""
    import numpy
    import scipy

    mem_kb = 0
    with open("/proc/meminfo", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cpus": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gb": round(mem_kb / 2**20, 2), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha,
        "machine": platform.machine(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Command-line arguments (the benchmark contract)."""
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one workload and print its result line; returns the exit code."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    import runner
    import workloads

    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    # SIGTERM unwinds like Ctrl-C, so the server is always stopped and reaped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        bench = runner.Runner(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work)
        result, detail = asyncio.run(bench.run())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["host"] = host_block()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(detail, indent=2, sort_keys=True))
    if args.trace:
        bench.tracer.write_jsonl(OUT / "results" / f"{stem}.spans.jsonl")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
