"""End-to-end benchmark of ChatIYP in its served configuration.

Run one workload::

    python3 benchmarks/e2e/run.py --workload ask_cold_mix --seed 7 --seconds 10 --trace 0

or all four, each in its own fresh subprocess::

    python3 benchmarks/e2e/run.py --seed 7 --json out.json

BENCHMARK.json gates two of them; ``graph_refresh`` and ``served_open_loop``
run and compare the same way but are not gated (README.md, "Why two
workloads are gated").  Gated times are reference times (``pace.py``).
Every metric is printed as ``<workload> <metric> = <value> <unit>``; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json, or its per-layer metrics with ``--trace 1``).  The exit
code is non-zero when an output check fails.

Compare runs of two commits (files written with ``--json``)::

    python3 benchmarks/e2e/run.py --compare parent-*.json --change change-*.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
SRC = ROOT / "src"


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args, spec: dict, workloads) -> int:
    scale = workloads.Scale(seconds=args.seconds, smoke=args.smoke)
    if args.draw_inputs:
        json.dump(workloads.draw_inputs(args.workload, args.seed, scale), sys.stdout)
        return 0
    spans_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    run = workloads.WORKLOADS[args.workload](args.seed, scale, spans_path)
    result = workloads.report(run)
    result.update({"workload": args.workload, "seed": args.seed, "trace": args.trace})

    units = _units(spec)
    for section in ("end_to_end", "per_layer"):
        for name, value in sorted(result[section].items()):
            print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, value in result["wall"].items():
        print(f"{args.workload} wall {name} = {value:.6g} ms")
    for rank, op in enumerate(result["slowest"], start=1):
        print(f"{args.workload} slowest[{rank}] {op['ref_ms']:.1f} ms "
              f"({op['time_share']:.1%} of the run) {op['outcome']}: {op['cypher']}")
    print(f"{args.workload} digest = {result['digest']}")
    print(f"{args.workload} checks = {json.dumps(result['checks'])}")
    if spans_path is not None:
        print(f"{args.workload} spans written to {spans_path.relative_to(ROOT)}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=1)

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _declared(result, spec, args.trace),
    }))
    return 0 if result["correct"] else 1


def _declared(result: dict, spec: dict, trace: int, prefix: str = "") -> dict:
    """The metrics BENCHMARK.json declares for this mode; a layer the
    workload never enters reads 0."""
    section = "per_layer" if trace else "end_to_end"
    return {
        prefix + metric["name"]: {"value": result[section].get(metric["name"], 0.0),
                                  "unit": metric["unit"]}
        for metric in spec[section]
    }


def run_all(args, spec: dict, names: list[str]) -> int:
    """Each workload in its own fresh interpreter; a combined JSON last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in names:
            out = Path(tmp) / f"{workload}.json"
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--json", str(out)]
            if args.smoke:
                command.append("--smoke")
            code = subprocess.call(command)
            if code != 0 or not out.exists():
                combined["correct"] = False
                continue
            with open(out) as handle:
                result = json.load(handle)
            results.append(result)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(_declared(result, spec, args.trace, f"{workload}."))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=1)
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: repeat the run instrumented and report per-layer metrics")
    parser.add_argument("--json", help="write the full result (all metrics, slowest "
                                       "operations, digest, checks) to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="40 operations per workload and a 3 s open loop")
    parser.add_argument("--draw-inputs", action="store_true",
                        help="print the workload's drawn inputs as JSON and exit "
                             "(the workload runs this in a child process)")
    parser.add_argument("--compare", nargs="+", metavar="PARENT.json",
                        help="result files of the parent commit")
    parser.add_argument("--change", nargs="+", metavar="CHANGE.json",
                        help="result files of the change (with --compare)")
    args = parser.parse_args(argv)
    spec = _spec()
    if args.compare:
        import compare

        if not args.change:
            parser.error("--compare needs --change")
        return compare.main(spec, args.compare, args.change)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload is None:
        if args.draw_inputs:
            parser.error("--draw-inputs needs --workload")
        return run_all(args, spec, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, spec, workloads)


if __name__ == "__main__":
    raise SystemExit(main())
