"""One workload's closed loop, run by perfbench/run.py in a fresh process.

Usage: python3 perfbench/worker.py PLAN.json

The plan names the calls of one cycle as (command, RunConfig fields), the
seconds to measure, the minimum number of cycles, whether to trace, the
output directory handed to ``cli.run`` and the file this process writes its
result to.  Every call goes through the public entry ``cli.run`` followed by
``cli.emit_report``, as ``rfw <command> --out DIR`` does.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from run import NUMERIC
from tracer import Tracer


def timed_call(cli, cycle: int, index: int, command: str, cfg, outdir: Path,
               traced: bool) -> dict:
    """One cli.run + emit_report call, timed; a raised error is recorded, not re-raised."""
    record = {"cycle": cycle, "call": index, "command": command, "traced": traced}
    start = time.perf_counter()
    try:
        report, _ = cli.run(command, cfg, outdir)
        data = cli.emit_report(report, outdir / "report.json")
    except Exception as exc:  # a call that raises is a failed call; the loop goes on
        record["seconds"] = time.perf_counter() - start
        record["error"] = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return record
    record["seconds"] = time.perf_counter() - start
    record["sha256"] = hashlib.sha256(data).hexdigest()
    record["report"] = json.loads(data)
    return record


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    cli = importlib.import_module("ritusfw.cli")
    for name in NUMERIC:
        importlib.import_module(f"ritusfw.{name}")
    if src not in Path(cli.__file__).resolve().parents:
        print(f"worker: ritusfw imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    outdir = Path(plan["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    calls = []
    for command, fields in plan["calls"]:
        cfg = cli.RunConfig(**fields)
        cfg.validate()
        calls.append((command, cfg))

    # Runs every command function once, so that timed calls pay neither the
    # imports inside them nor other first-use costs.  N=512, n_max=2 is the
    # smallest default-profile grid on which `all` trips no guard; the result
    # is not checked.
    cli.run("all", cli.RunConfig(grid_n=512, n_max=2), outdir)

    tracer = Tracer() if plan["trace"] else None
    records = []
    cycles = 0
    start = time.perf_counter()
    while cycles < plan["min_cycles"] or time.perf_counter() - start < plan["seconds"]:
        for index, (command, cfg) in enumerate(calls):
            records.append(timed_call(cli, cycles, index, command, cfg, outdir, traced=False))
            if tracer is not None:
                tracer.install()
                try:
                    records.append(timed_call(cli, cycles, index, command, cfg, outdir, traced=True))
                finally:
                    tracer.uninstall()
        cycles += 1

    result = {
        "cycles": cycles,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["functions"] = tracer.functions()
        result["spans"] = tracer.spans
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: worker.py PLAN.json")
    sys.exit(main(sys.argv[1]))
