"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload road --seed 1 --seconds 35 --trace 0

The program under test is imported from ``src/`` of the same checkout.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it holds the run's details: input hashes, the output digest, the
exact simulated figures, sample counts and the host calibration probe.
Spans of a traced run are written to ``.perfbench/`` in the checkout.

Exit status 0 means figures were produced (check ``correct``); any other
status is a benchmark error, such as a missing program or changed
inputs, and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path and make sure the
    ``repro`` that imports is the one in it."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not from {src}")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["road", "mlmq", "serve-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench import serve_mixed, sim
    from perfbench.inputs import BenchmarkError
    from perfbench.measure import calibration_probe

    spec = _spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    probe_start = calibration_probe()
    module = serve_mixed if args.workload == "serve-mixed" else sim
    try:
        ledger, values, details = module.run(
            args.workload, args.seed, args.seconds, bool(args.trace), out_dir
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    probe_end = calibration_probe()

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            if not args.trace:
                print(f"perfbench: {args.workload} did not measure {m['name']}", file=sys.stderr)
                return 3
            # a layer that does not run on this workload did no work
            values[m["name"]] = 0.0
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        host_probe={"start": probe_start, "end": probe_end},
        failures=ledger.failures[:20],
    )
    with open(out_dir / f"details-{args.workload}-{args.seed}-{args.trace}.json", "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    print(json.dumps({k: v for k, v in details.items() if k != "layers"}, default=str))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
