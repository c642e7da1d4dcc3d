"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload he_exec --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs span
wrappers around the layers' public functions and prints the per-layer
metrics, with the traced end-to-end numbers beside the untraced ones
recorded by earlier runs of the same sources.  Lines starting with ``#``
are the human-readable report (machine record, sample counts, exact
counts); the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

from common import (
    SRC,
    load_json,
    machine_record,
    median,
    metric_units,
    results_path,
    source_digest,
)

#: per-layer metrics with one row per kernel
RUN_MS = "runtime.run_ms."


def _check_exact(workload, seed, trace, digest, exact) -> list[str]:
    """Compare exact counts with an earlier run of the same seed and sources."""
    path = results_path(f"exact-{workload}-s{seed}-t{trace}-{digest}.json")
    earlier = load_json(path)
    if earlier is None:
        path.write_text(json.dumps(exact, sort_keys=True))
        return []
    return sorted(
        name for name in set(earlier) | set(exact)
        if earlier.get(name) != exact.get(name)
    )


def _overhead_report(workload, digest, traced: dict, units: dict) -> None:
    """Traced end-to-end numbers beside the untraced runs' medians."""
    path = results_path(f"e2e-{workload}-{digest}.jsonl")
    try:
        runs = [json.loads(line) for line in path.read_text().splitlines()]
    except OSError:
        runs = []
    if not runs:
        print("# tracing overhead: no untraced run of these sources recorded "
              "yet; run --trace 0 first")
        return
    print(f"# tracing overhead vs median of {len(runs)} untraced run(s):")
    for name, unit in units.items():
        base = median([run[name] for run in runs])
        delta = (traced[name] - base) / base * 100 if base else 0.0
        print(f"#   {name:18s} traced {traced[name]:12.4f} untraced "
              f"{base:12.4f} {unit:6s} ({delta:+.1f}%)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("synth_suite", "he_exec", "serve_closed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its compile children and servers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC} (run from a full "
              "checkout of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    end_to_end, per_layer = metric_units()

    from tracing import install_tracer
    from workloads import SETUPS, WORKLOADS, knobs

    tracer = install_tracer() if args.trace else None
    started = time.perf_counter()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    wall = time.perf_counter() - started

    e2e = dict(outcome.metrics)
    e2e["ok_frac"] = (outcome.attempted - outcome.failed) / outcome.attempted
    exact = dict(outcome.exact)
    unsteady = list(outcome.unsteady)
    if tracer is not None:
        run_kernels = [n[len(RUN_MS):] for n in per_layer if n.startswith(RUN_MS)]
        layer, traced_exact, traced_unsteady = tracer.layer_metrics(
            tracer.dump() + outcome.spans, SETUPS, run_kernels
        )
        exact.update(traced_exact)
        unsteady += traced_unsteady
        for name in outcome.inexact:
            exact.pop(name, None)
        layer.update(
            {k: v for k, v in outcome.exact.items() if k in per_layer}
        )
        layer.update(outcome.layer)
    digest = source_digest()
    mismatched = _check_exact(args.workload, args.seed, args.trace, digest, exact)

    record = machine_record(outcome.session, outcome.kernels, knobs())
    print("# machine " + json.dumps(record, sort_keys=True))
    print("# notes " + json.dumps(outcome.notes, sort_keys=True, default=str))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{outcome.attempted} attempted, {outcome.failed} failed "
          f"(fail_frac {outcome.failed / outcome.attempted:.4f}), "
          f"{wall:.1f} s wall, sources {digest}")
    print("# exact counts " + json.dumps(exact, sort_keys=True))
    if mismatched:
        print("# EXACT-COUNT MISMATCH vs an earlier run of this seed: "
              + ", ".join(mismatched))
    if unsteady:
        print("# EXACT-COUNT MISMATCH inside this run, kernels: "
              + ", ".join(unsteady))
    for name, unit in end_to_end.items():
        print(f"# {name:18s} {e2e[name]:14.4f} {unit}")

    if tracer is None:
        with results_path(f"e2e-{args.workload}-{digest}.jsonl").open("a") as f:
            f.write(json.dumps(e2e) + "\n")
        names = end_to_end
        values = e2e
    else:
        _overhead_report(args.workload, digest, e2e, end_to_end)
        for name, unit in per_layer.items():
            print(f"# {name:28s} {layer.get(name, 0):14.4f} {unit}")
        names = per_layer
        values = layer

    result = {
        "correct": outcome.failed == 0 and not mismatched and not unsteady,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0)), "unit": unit}
            for name, unit in names.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
