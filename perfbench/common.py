"""Shared helpers for the benchmark: statistics, the output oracle, records.

Everything here is independent of the code under test except for the
kernel specifications themselves: the oracle recomputes every expected
output with ``Spec.reference_output`` (plain Python arithmetic on the
logical inputs) and never trusts a result's own ``matches_reference``
flag.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / ".results"


# -- statistics ----------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``.  With eleven or more
    samples the value is the one with exactly ten larger samples; with
    fewer it falls back to the maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 11:
        return float(ordered[n - 11]), 100.0 * (n - 10) / n, n
    return float(ordered[-1]), 100.0, n


def per_kernel_latency(samples: dict[str, list[float]]) -> dict:
    """Geomean over kernels of the per-kernel median, plus a pooled tail.

    Per-kernel sample counts are too small for a per-kernel tail, so the
    tail pools every sample divided by its kernel's median and scales the
    geomean by the pooled tail ratio.
    """
    medians = {name: median(v) for name, v in samples.items() if v}
    p50 = geomean(medians.values())
    ratios = [x / medians[name] for name, v in samples.items() for x in v]
    ratio, pct, n = tail(ratios)
    return {
        "p50": p50,
        "tail": p50 * ratio,
        "tail_pct": round(pct, 2),
        "samples": n,
        "per_kernel_p50": {k: round(v, 4) for k, v in medians.items()},
    }


# -- the oracle ----------------------------------------------------------------


def draw_inputs(spec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Random logical inputs inside the spec's plaintext-safe bound."""
    return {
        p.name: rng.integers(0, spec.backend_bound + 1, p.shape, dtype=np.int64)
        for p in spec.layout.inputs
    }


def reference(spec, env: dict[str, np.ndarray]) -> np.ndarray:
    return np.array(spec.reference_output(env), dtype=np.int64).reshape(
        spec.layout.output_shape
    )


def matches(spec, env, output) -> bool:
    """Whether ``output`` equals the benchmark's own reference."""
    got = np.asarray(output, dtype=np.int64)
    want = reference(spec, env)
    return got.shape == want.shape and bool(np.array_equal(got, want))


def interpreter_failures(program, spec, rng, trials: int) -> int:
    """Run ``program`` on the Quill interpreter against the reference."""
    from repro.quill.interpreter import evaluate

    failures = 0
    for _ in range(trials):
        env = draw_inputs(spec, rng)
        ct_env, pt_env = spec.packed_env(env)
        output = spec.layout.unpack_output(evaluate(program, ct_env, pt_env))
        failures += not matches(spec, env, output)
    return failures


def program_counts(programs: dict) -> dict[str, int]:
    """Exact Quill op counts summed over the workload's programs."""
    return {
        "quill.exec_ops": sum(p.instruction_count() for p in programs.values()),
        "quill.rotations": sum(p.rotation_count() for p in programs.values()),
        "quill.relins": sum(p.relin_count() for p in programs.values()),
        "quill.galois_keys": sum(
            p.galois_key_count() for p in programs.values()
        ),
    }


def cost_ratio(session, programs: dict) -> float:
    """Geomean of modelled latency, synthesized / hand-written baseline."""
    from repro.quill.latency import default_latency_model

    ratios = []
    for name, program in programs.items():
        model = default_latency_model(session.spec(name).params_name)
        ratios.append(
            model.program_latency(program)
            / model.program_latency(session.baseline(name))
        )
    return geomean(ratios)


def peak_rss_mb(who: int) -> float:
    """Peak resident set size in MiB (``resource.RUSAGE_SELF``/``_CHILDREN``)."""
    import resource

    kib = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        kib /= 1024
    return kib / 1024


# -- records -------------------------------------------------------------------


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources.

    Keys the exact-count and untraced-result records, so a change to
    either starts them afresh.
    """
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def _defaults(fn) -> dict:
    return {
        name: _jsonable(p.default)
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def machine_record(session, kernels, workload_knobs: dict) -> dict:
    """Machine, versions, presets and every knob value of this run."""
    from repro.api import HEBackend, Porcupine
    from repro.serve import ServeConfig

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    synthesis = {}
    for name in kernels:
        definition = session.definition(name)
        if not definition.is_composed:
            config = session.config_for(name)
            synthesis[name] = {
                f.name: _jsonable(getattr(config, f.name))
                for f in dataclasses.fields(config)
            }
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "presets": {name: session.spec(name).params_name for name in kernels},
        "knobs": {
            "synthesis": synthesis,
            "session.execute": _defaults(Porcupine.execute),
            "he_backend": _defaults(HEBackend.__init__),
            "serve_config": {
                f.name: _jsonable(f.default)
                for f in dataclasses.fields(ServeConfig)
            },
            "benchmark": _jsonable(workload_knobs),
        },
    }


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def results_path(name: str) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    return RESULTS / name


def load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
