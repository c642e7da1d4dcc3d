"""The three workloads.  Each returns a :class:`Outcome`.

Every workload is a cold compile of its kernels in a fresh process,
set-up, then a stream of requests checked against the benchmark's own
reference:

* ``synth_suite`` — cold synthesis of nine kernels, then one closed-loop
  caller of ``session.execute`` on the HE backend over the synthesized
  ``n4096`` kernels;
* ``he_exec`` — one closed-loop caller of ``session.execute`` on the HE
  backend, round-robin over five kernels at their registry presets;
* ``serve_closed`` — closed-loop waves of concurrent requests over TCP
  against a ``porcupine serve --backend he`` process, so same-kernel
  requests coalesce into lockstep batches.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import queue
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    BENCH_DIR,
    ROOT,
    SRC,
    cost_ratio,
    draw_inputs,
    interpreter_failures,
    load_json,
    matches,
    median,
    peak_rss_mb,
    per_kernel_latency,
    program_counts,
    results_path,
)

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: seeded interpreter checks per compiled program
INTERPRETER_TRIALS = 8
#: a cold compile that takes longer than this has failed
COMPILE_TIMEOUT_S = 150.0

SYNTH_SUITE = (
    "box_blur", "dot_product", "hamming", "linear_regression",
    "polynomial_regression", "gx", "gy", "sobel", "harris",
)
#: the synthesized suite kernels then run encrypted (the n4096 ones; harris
#: and polynomial_regression need n8192), for this share of --seconds
SYNTH_EXEC_KERNELS = (
    "box_blur", "dot_product", "hamming", "linear_regression", "gx", "gy",
    "sobel",
)
SYNTH_EXEC_SHARE = 0.5

HE_EXEC_KERNELS = ("box_blur", "gx", "hamming", "sobel", "polynomial_regression")

#: served kernels, one wave each per round-robin cycle (all n4096).  sobel
#: also makes each cold compile long enough to time steadily: without it
#: (about 6 s instead of 12 s on a 2-core VM) the quartile distance of
#: compile_s over ten seeds was 24% of its median
SERVE_KERNELS = ("box_blur", "gx", "hamming", "sobel")
#: concurrent connections; each sends one request per wave, so a wave is
#: one lockstep batch of this size when the requests coalesce
SERVE_CONNECTIONS = 2
#: ``porcupine serve`` arguments besides ``--cache-dir``; every other
#: server knob stays at its CLI default
SERVE_ARGS = (
    "serve", "--backend", "he", "--port", "0",
    "--precompile", ",".join(SERVE_KERNELS),
)
SERVE_BOOT_TIMEOUT_S = 120.0
SERVE_REPLY_TIMEOUT_S = 60.0


def knobs() -> dict:
    """The benchmark's own settings (recorded in the machine record)."""
    return {
        "setups": SETUPS,
        "interpreter_trials": INTERPRETER_TRIALS,
        "synth_suite": list(SYNTH_SUITE),
        "synth_exec_kernels": list(SYNTH_EXEC_KERNELS),
        "synth_exec_share": SYNTH_EXEC_SHARE,
        "he_exec_kernels": list(HE_EXEC_KERNELS),
        "serve_kernels": list(SERVE_KERNELS),
        "serve_connections": SERVE_CONNECTIONS,
        "serve_args": list(SERVE_ARGS),
    }


@dataclass
class Outcome:
    metrics: dict  # end-to-end metric -> value
    attempted: int
    failed: int
    exact: dict  # counts that must repeat exactly per seed
    layer: dict = field(default_factory=dict)  # per-layer numbers it measured
    notes: dict = field(default_factory=dict)  # sample counts, percentiles
    session: object = None  # for the machine record
    kernels: tuple = ()
    spans: list = field(default_factory=list)  # from traced subprocesses
    #: per-layer counts this workload cannot make exact
    inexact: tuple = ()
    #: kernels whose per-execution counts varied inside this run
    unsteady: list = field(default_factory=list)


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@contextlib.contextmanager
def _workdir():
    """Scratch directory for caches, logs and spans; removed afterwards."""
    work = results_path(f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


class _Compiler:
    """Cold compiles of one kernel list, each in a fresh child process.

    ``compile_s`` is the mean of the compiles; every compile must
    synthesize the same programs as the first.  In a traced run each
    child installs the span wrappers and its spans join the run's.
    """

    def __init__(self, work, kernels, session_kwargs, trace):
        self.work, self.kernels, self.trace = work, tuple(kernels), trace
        self.session_kwargs = session_kwargs
        self.results: list[dict] = []
        self.spans: list[dict] = []

    def compile(self) -> dict:
        """Run one cold compile into a fresh cache directory."""
        index = len(self.results)
        cache_dir = self.work / f"cache-{index}"
        command = [
            sys.executable, str(BENCH_DIR / "compile_child.py"),
            "--cache-dir", str(cache_dir),
            "--session", json.dumps(self.session_kwargs),
        ]
        spans_out = self.work / f"compile-spans-{index}.json"
        if self.trace:
            command += ["--spans", str(spans_out)]
        out = subprocess.run(
            [*command, *self.kernels], cwd=ROOT, env=_subprocess_env(),
            check=True, timeout=COMPILE_TIMEOUT_S, stdout=subprocess.PIPE,
            text=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        result["cache_dir"] = cache_dir
        if self.trace:
            self.spans.extend(load_json(spans_out))
        self.results.append(result)
        return result

    @property
    def cache_dir(self):
        """The first compile's cache, which the workload runs from."""
        return self.results[0]["cache_dir"]

    def compile_s(self) -> float:
        return sum(r["seconds"] for r in self.results) / len(self.results)

    def differing(self) -> list[str]:
        """Kernels whose program differs between the cold compiles."""
        first = self.results[0]["programs"]
        return sorted({
            f"{name} (program differs between cold compiles)"
            for result in self.results[1:]
            for name in self.kernels
            if result["programs"][name] != first[name]
        })

    def notes(self) -> dict:
        return {
            "compile_s_each": [r["seconds"] for r in self.results],
            "proof_incomplete": self.results[0]["incomplete"],
        }


def _load_checked(session, kernels, seed):
    """The first compile's programs from the cache, checked on the interpreter."""
    rng = np.random.default_rng([seed, 0])
    compiled = {name: session.compile(name) for name in kernels}
    failed = sum(
        interpreter_failures(compiled[name].program, session.spec(name), rng,
                             INTERPRETER_TRIALS)
        for name in kernels
    )
    programs = {name: c.program for name, c in compiled.items()}
    return programs, failed, len(kernels) * INTERPRETER_TRIALS


def _request_metrics(exec_samples, request_samples, ok, elapsed):
    """End-to-end latency metrics from per-kernel samples (ms).

    Both latencies are per kernel first (median, and a tail pooled over
    samples scaled by their kernel's median), so kernels of different
    speeds never mix in one percentile.
    """
    execs = per_kernel_latency(exec_samples)
    requests = per_kernel_latency(request_samples)
    return (
        {
            "exec_p50_ms": execs["p50"],
            "exec_tail_ms": execs["tail"],
            "serve_p50_ms": requests["p50"],
            "serve_tail_ms": requests["tail"],
            "serve_goodput_rps": ok / elapsed,
        },
        {
            "exec_tail_pct": execs["tail_pct"],
            "exec_samples": execs["samples"],
            "exec_p50_ms_per_kernel": execs["per_kernel_p50"],
            "serve_tail_pct": requests["tail_pct"],
            "serve_samples": requests["samples"],
            "serve_p50_ms_per_kernel": requests["per_kernel_p50"],
        },
    )


def _timed(loop, compiler, seconds) -> dict:
    """The request loop in two halves with the second cold compile between.

    Timing the cold compile twice, about half a run apart, and reporting
    the mean makes ``compile_s`` less sensitive to the host's speed
    changing over tens of seconds.
    """
    loop.run_for(seconds / 2)
    compiler.compile()
    loop.run_for(seconds / 2)
    result = loop.summary()
    result["unsteady"] += compiler.differing()
    return result


# -- in-process execution ------------------------------------------------------


def _warm_up(session, compiled, kernels, seed, index) -> tuple[int, int]:
    """One checked encrypted execution per kernel: keys, Galois keys, tapes."""
    failed = 0
    for name in kernels:
        spec = session.spec(name)
        env = draw_inputs(spec, np.random.default_rng([seed, 1, index]))
        result = session.execute(compiled[name], env, backend="he")
        failed += not matches(spec, env, result.logical_output)
    return len(kernels), failed


class _HELoop:
    """One caller of ``session.execute`` on HE, whole round-robin cycles.

    Call ``n`` draws its inputs from ``default_rng([seed, 2, n])``.  The
    NTT rows each call performed come from the session's executor stats.
    A kernel with plaintext inputs skips the encoding transforms whenever
    its executor's plaintext cache already holds the operand, so its count
    is the largest seen (an uncached call); any other kernel whose count
    varied between calls is reported as unsteady.
    """

    def __init__(self, session, compiled, kernels, seed):
        self.session, self.compiled, self.seed = session, compiled, seed
        self.specs = {name: session.spec(name) for name in kernels}
        self.exec_samples = {name: [] for name in kernels}
        self.request_samples = {name: [] for name in kernels}
        self.rows = {name: set() for name in kernels}
        self.ok = self.failed = self.calls = 0
        self.elapsed = 0.0

    def run_for(self, seconds: float) -> None:
        gc.collect()  # start every timed stretch from the same heap state
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for name in self.specs:  # whole cycles: equal samples per kernel
                self._call(name)
        self.elapsed += time.perf_counter() - started

    def _call(self, name: str) -> None:
        session, spec = self.session, self.specs[name]
        due = time.perf_counter()
        env = draw_inputs(spec, np.random.default_rng([self.seed, 2, self.calls]))
        self.calls += 1
        rows_before = session.executor_stats().ntts_performed
        try:
            t0 = time.perf_counter()
            result = session.execute(self.compiled[name], env, backend="he")
            self.exec_samples[name].append((time.perf_counter() - t0) * 1e3)
            good = matches(spec, env, result.logical_output)
        except Exception as error:  # noqa: BLE001 - counted, reported
            print(f"# request failed: {name}: {error!r}", file=sys.stderr)
            good = False
        self.rows[name].add(session.executor_stats().ntts_performed - rows_before)
        self.failed += not good
        self.ok += good
        self.request_samples[name].append((time.perf_counter() - due) * 1e3)

    def summary(self) -> dict:
        metrics, notes = _request_metrics(
            self.exec_samples, self.request_samples, self.ok, self.elapsed
        )
        notes["ntt_rows_per_kernel"] = {
            name: sorted(r) for name, r in self.rows.items()
        }
        return {
            "metrics": metrics,
            "notes": notes,
            "attempted": self.calls,
            "failed": self.failed,
            "ntt_rows": sum(max(r) for r in self.rows.values()),
            "unsteady": [
                name for name, r in self.rows.items()
                if len(r) != 1 and not self.specs[name].layout.pt_names
            ],
        }


def _in_process(seed, seconds, trace, kernels, exec_kernels, session_kwargs):
    """Cold compile, set-up three times, then the in-process HE loop.

    A set-up is a fresh session over the first compile's cache (compile
    hits for ``exec_kernels``) and one checked warm-up execution per
    kernel, which builds the keys, Galois keys and tapes.
    """
    from repro.api import Porcupine

    with _workdir() as work:
        compiler = _Compiler(work, kernels, session_kwargs, trace)
        compiler.compile()
        session = Porcupine(cache_dir=compiler.cache_dir, **session_kwargs)
        programs, failed, attempted = _load_checked(session, kernels, seed)
        exact = program_counts(programs)

        setup_times = []
        for index in range(SETUPS):
            started = time.perf_counter()
            session = Porcupine(cache_dir=compiler.cache_dir, **session_kwargs)
            compiled = {name: session.compile(name) for name in exec_kernels}
            warm_attempted, warm_failed = _warm_up(
                session, compiled, exec_kernels, seed, index
            )
            setup_times.append(time.perf_counter() - started)
            attempted += warm_attempted
            failed += warm_failed
        loop = _HELoop(session, compiled, exec_kernels, seed)
        result = _timed(loop, compiler, seconds)

    metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
        "compile_s": compiler.compile_s(),
        "synth_cost_ratio": cost_ratio(session, programs),
        **result["metrics"],
    }
    exact["runtime.ntt_rows"] = result["ntt_rows"]
    notes = dict(result["notes"], setup_s_each=setup_times, **compiler.notes())
    return Outcome(
        metrics, attempted + result["attempted"], failed + result["failed"],
        exact, notes=notes, session=session, kernels=kernels,
        spans=compiler.spans, unsteady=result["unsteady"],
    )


def synth_suite(seed: int, seconds: float, trace: bool) -> Outcome:
    """The seed is also ``SynthesisConfig.seed``; ``workers=1``."""
    return _in_process(
        seed, SYNTH_EXEC_SHARE * seconds, trace, SYNTH_SUITE,
        SYNTH_EXEC_KERNELS, {"seed": seed, "workers": 1},
    )


def he_exec(seed: int, seconds: float, trace: bool) -> Outcome:
    return _in_process(seed, seconds, trace, HE_EXEC_KERNELS, HE_EXEC_KERNELS, {})


# -- serve_closed --------------------------------------------------------------


class _Server:
    """One ``porcupine serve`` subprocess, booted and later shut down.

    In a traced run it starts through ``serve_launcher.py``, which
    installs the span wrappers and writes the spans to ``trace_out`` when
    the server stops.
    """

    def __init__(self, cache_dir, log_path, trace_out=None):
        args = [*SERVE_ARGS, "--cache-dir", str(cache_dir)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [
                sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                str(trace_out), *args,
            ]
        self.address = None
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=_subprocess_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=self._pump, args=(lines,), daemon=True
        )
        self._reader.start()
        try:
            line = lines.get(timeout=SERVE_BOOT_TIMEOUT_S)
        except queue.Empty:
            line = None
        if not line or not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server failed to boot (see {log_path})")
        self.boot_s = time.perf_counter() - started
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def _pump(self, lines):
        for line in self.process.stdout:
            lines.put(line.strip())
        lines.put(None)

    def peak_rss_mb(self) -> float:
        """The server's peak RSS so far (Linux ``VmHWM``; 0 elsewhere)."""
        try:
            with open(f"/proc/{self.process.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024
        except OSError:
            pass
        return 0.0

    def request(self, payload: dict) -> dict:
        import socket

        with socket.create_connection(
            self.address, timeout=SERVE_REPLY_TIMEOUT_S
        ) as sock:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            with sock.makefile("rb") as stream:
                return json.loads(stream.readline())

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                try:
                    if self.address is None:  # never booted: nothing to ask
                        self.process.kill()
                    else:
                        self.request({"op": "shutdown"})
                except OSError:
                    self.process.kill()
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=30)
        finally:
            self._reader.join(timeout=10)
            self.process.stdout.close()
            self._log.close()


class _ServeLoop:
    """Closed-loop waves of requests over ``SERVE_CONNECTIONS`` connections.

    In a wave every connection sends one ``run`` request for the wave's
    kernel, and the next wave starts once every response is in; waves go
    round-robin over the kernels in whole cycles.  Requests of one wave
    arrive together, so the server coalesces them into one lockstep
    batch.  Request ``n`` draws its inputs from ``default_rng([seed, 2,
    n])``.  Latencies are per request: the client's send to its receive
    (``serve_*``) and the server's reported execution time (``exec_*``).
    """

    def __init__(self, address, specs, seed):
        self.specs, self.seed = specs, seed
        self.exec_samples = {name: [] for name in specs}
        self.request_samples = {name: [] for name in specs}
        self.queue_ms, self.wire_ms, self.batched = [], [], []
        self.ok = self.failed = self.calls = 0
        self.elapsed = 0.0
        self.loop = asyncio.new_event_loop()
        self.streams = [
            self.loop.run_until_complete(
                asyncio.open_connection(*address, limit=1 << 20)
            )
            for _ in range(SERVE_CONNECTIONS)
        ]

    def run_for(self, seconds: float) -> None:
        gc.collect()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for name in self.specs:
                self.loop.run_until_complete(self._wave(name))
        self.elapsed += time.perf_counter() - started

    async def _wave(self, name: str) -> None:
        spec = self.specs[name]
        envs = []
        for _ in self.streams:
            envs.append(draw_inputs(
                spec, np.random.default_rng([self.seed, 2, self.calls])
            ))
            self.calls += 1
        await asyncio.gather(*(
            self._call(stream, name, env)
            for stream, env in zip(self.streams, envs)
        ))

    async def _call(self, stream, name, env) -> None:
        reader, writer = stream
        payload = json.dumps({
            "op": "run", "kernel": name,
            "inputs": {k: v.tolist() for k, v in env.items()},
        }).encode() + b"\n"
        sent = time.perf_counter()
        try:
            writer.write(payload)
            await writer.drain()
            line = await asyncio.wait_for(
                reader.readline(), SERVE_REPLY_TIMEOUT_S
            )
            received = time.perf_counter()
            response = json.loads(line)
            good = response.get("ok") is True and matches(
                self.specs[name], env, response.get("output")
            )
        except Exception as error:  # noqa: BLE001 - counted, reported
            print(f"# request failed: {name}: {error!r}", file=sys.stderr)
            good = False
        self.failed += not good
        self.ok += good
        if not good:
            return
        client_ms = (received - sent) * 1e3
        latency_ms = response["latency_s"] * 1e3
        execute_ms = response["execute_s"] * 1e3
        self.request_samples[name].append(client_ms)
        self.exec_samples[name].append(execute_ms)
        self.queue_ms.append(latency_ms - execute_ms)
        self.wire_ms.append(client_ms - latency_ms)
        self.batched.append(response["batched"])

    def close(self) -> None:
        for _, writer in self.streams:
            writer.close()
        for _, writer in self.streams:
            with contextlib.suppress(OSError):
                self.loop.run_until_complete(writer.wait_closed())
        self.loop.close()

    def summary(self) -> dict:
        metrics, notes = _request_metrics(
            self.exec_samples, self.request_samples, self.ok, self.elapsed
        )
        notes["batched_mean"] = (
            sum(self.batched) / len(self.batched) if self.batched else 0.0
        )
        return {
            "metrics": metrics,
            "notes": notes,
            "attempted": self.calls,
            "failed": self.failed,
            "unsteady": [],
        }


def serve_closed(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.api import Porcupine

    with _workdir() as work:
        compiler = _Compiler(work, SERVE_KERNELS, {}, trace)
        compiler.compile()
        session = Porcupine(cache_dir=compiler.cache_dir)
        programs, failed, attempted = _load_checked(
            session, SERVE_KERNELS, seed
        )
        exact = program_counts(programs)
        specs = {name: session.spec(name) for name in SERVE_KERNELS}

        # set-up: boot to ready (precompiled from the cache), then one
        # checked request per kernel, which builds keys and tapes
        setup_times, spans = [], []
        server = None
        try:
            for index in range(SETUPS):
                trace_out = work / f"server-spans-{index}.json" if trace else None
                started = time.perf_counter()
                server = _Server(compiler.cache_dir, work / "server.log",
                                 trace_out)
                for name in SERVE_KERNELS:
                    env = draw_inputs(
                        specs[name], np.random.default_rng([seed, 1, index])
                    )
                    reply = server.request({
                        "op": "run", "kernel": name,
                        "inputs": {k: v.tolist() for k, v in env.items()},
                    })
                    attempted += 1
                    failed += not (
                        reply.get("ok") is True
                        and matches(specs[name], env, reply.get("output"))
                    )
                setup_times.append(time.perf_counter() - started)
                if index < SETUPS - 1:
                    server.stop()
                    server = None
                    if trace_out is not None:
                        spans.extend(load_json(trace_out))
            for name, program in programs.items():
                reply = server.request({"op": "compile", "kernel": name})
                attempted += 1
                failed += not (
                    reply.get("ok")
                    and reply.get("instructions") == program.instruction_count()
                )
            server.request({"op": "stats", "reset": True})
            loop = _ServeLoop(server.address, specs, seed)
            try:
                result = _timed(loop, compiler, seconds)
            finally:
                loop.close()
            stats = server.request({"op": "stats"})
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        if trace:
            spans.extend(load_json(trace_out))

    scheduler = stats.get("scheduler", {})
    metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": rss,
        "compile_s": compiler.compile_s(),
        "synth_cost_ratio": cost_ratio(session, programs),
        **result["metrics"],
    }
    layer = {
        "serve.queue_ms": median(loop.queue_ms),
        "serve.execute_ms": result["metrics"]["exec_p50_ms"],
        "serve.wire_ms": median(loop.wire_ms),
        "serve.batch_occupancy": scheduler.get("mean_occupancy", 0.0),
        "serve.coalesce_ratio": scheduler.get("coalesce_ratio", 0.0),
        "serve.queue_peak": scheduler.get("queue_peak", 0),
    }
    notes = dict(
        result["notes"], setup_s_each=setup_times, **compiler.notes(),
        server_stats={
            "scheduler": scheduler, "executor": stats.get("executor"),
        },
    )
    return Outcome(
        metrics, attempted + result["attempted"], failed + result["failed"],
        exact, layer=layer, notes=notes, session=session,
        kernels=SERVE_KERNELS, spans=compiler.spans + spans,
        unsteady=result["unsteady"],
        # which requests share a batch, and so which NTT rows a request
        # needs, depends on arrival timing
        inexact=("runtime.ntt_rows",),
    )


WORKLOADS = {
    "synth_suite": synth_suite,
    "he_exec": he_exec,
    "serve_closed": serve_closed,
}
