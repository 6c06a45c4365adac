"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload iris-analytic-train --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with no wrappers installed
(times in reference seconds, see ``perfbench/calibration.py``); ``--trace 1``
installs the layer wrappers and reports the per-layer metrics mapped in
``perfbench/layers.json``.
Each metric is printed as one ``workload metric value unit`` line, and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The environment fingerprint, the
result and (traced runs) every span in Chrome trace format are written under
``.perfbench/`` in the checkout.

The benchmark imports ``repro`` from the checkout's ``src/`` only; without
it the run fails with a non-zero exit code and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _bootstrap():
    """Import paths for ``perfbench`` and the checkout's ``repro``; numpy
    must not be imported before the BLAS thread cap is set."""
    from perfbench import env  # standard library only at import time

    blas_threads = env.cap_blas_threads()
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(source, "")):
        raise ImportError(f"repro was imported from {repro.__file__}, not from {source}")
    return blas_threads


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict,
                 fingerprint: dict) -> dict:
    from perfbench import workloads

    workload = workloads.WORKLOADS[name]
    if trace:
        metrics, tally, details, tracer = workloads.per_layer(
            workload, seed, seconds, fingerprint["memcpy_gbps"]
        )
        wanted = spec["per_layer"]
        tracer.write_chrome_trace(os.path.join(OUT_DIR, f"{name}-seed{seed}.trace.json"))
    else:
        metrics, tally, details = workloads.end_to_end(workload, seed, seconds)
        wanted = spec["end_to_end"]
    missing = [entry["name"] for entry in wanted if entry["name"] not in metrics]
    if missing:
        raise RuntimeError(f"{name}: no value for metric(s) {missing}")
    result = {
        "correct": tally.failed == 0,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {
            entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
            for entry in wanted
        },
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": fingerprint, "details": details, "result": result}
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    for metric, entry in result["metrics"].items():
        print(f"{name}  {metric}  {entry['value']:.6g}  {entry['unit']}")
    print(f"{name}  attempted {result['attempted']}  failed {result['failed']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        blas_threads = _bootstrap()
        spec = _spec()
    except (ImportError, OSError, ValueError) as error:
        print(f"perfbench: cannot start: {error}", file=sys.stderr)
        return 2
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2

    from perfbench import env

    os.makedirs(OUT_DIR, exist_ok=True)
    fingerprint = env.fingerprint(ROOT, blas_threads, env.measure_memcpy_gbps())
    print("env " + json.dumps(fingerprint, sort_keys=True))
    selected = names if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), spec, fingerprint)
        for name in selected
    }
    if len(results) == 1:
        summary = results[selected[0]]
    else:
        summary = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
