"""In-memory spans around the calls into each layer's public functions.

:meth:`Tracer.install` wraps class-level public methods of the system from the
outside (nothing in ``src/`` knows about it), so it must run before any
session, executor or server is built.  Each call records one span: name,
start and end (monotonic ns), the enclosing span on the same thread, and
a few attributes read from the call's arguments and result.  Spans stay
in memory until :meth:`Tracer.layer_metrics` (or :meth:`Tracer.dump`, in
a traced compile child or server process) runs at the end.
"""

from __future__ import annotations

import functools
import os
import threading
import time

from common import median

#: BFVContext methods timed per call, keyed by the per-layer metric stem
HE_OPS = {
    "encrypt": "encrypt_vector",
    "decrypt": "decrypt_with_budgets",
    "rotate": "rotate_rows",
    "multiply": "multiply",
    "relin": "relinearize",
    "mul_plain": "multiply_plain",
    "add": "add",
}
KEYSWITCH_OPS = ("he.rotate", "he.relin")
TAPE_PASSES = ("runtime.run", "runtime.run_many")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tapes_seen: set[int] = set()
        self._pid = os.getpid()  # span ids stay unique across processes

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, start: int, end: int | None, attrs: dict) -> dict:
        stack = self._stack()
        span = {
            "name": name,
            "start": start,
            "end": end,
            "parent": stack[-1] if stack else None,
            **attrs,
        }
        with self._lock:
            span["id"] = f"{self._pid}-{len(self.spans)}"
            self.spans.append(span)
        return span

    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             skip=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` returns span attributes known at entry;
        ``after(span, result, args, kwargs)`` adds ones read from the result;
        a call for which ``skip(args, kwargs)`` holds records no span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return original(*args, **kwargs)
            attrs = before(args, kwargs) if before else {}
            span = self._add(name, time.perf_counter_ns(), None, attrs)
            stack = self._stack()
            stack.append(span["id"])
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, result, args, kwargs)
                return result
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()

        setattr(owner, attr, traced)

    def record(self, name: str, seconds: float, attrs: dict) -> None:
        """A span known only by its duration (pass-pipeline hooks)."""
        end = time.perf_counter_ns()
        self._add(name, end - int(seconds * 1e9), end, attrs)

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        from repro.api import PassPipeline, Porcupine
        from repro.he.context import BFVContext
        from repro.runtime.executor import HEExecutor
        from repro.solver.engine import SketchSearch

        def kernel_arg(args, kwargs):
            kernel = args[1] if len(args) > 1 else kwargs.get("kernel")
            return {"kernel": getattr(kernel, "name", kernel)}

        def compile_done(span, result, args, kwargs):
            span["hit"] = bool(result.cache_hit)

        self.wrap(Porcupine, "compile", "api.compile", kernel_arg, compile_done)

        # every pipeline built from now on reports each pass on its end hook
        pipeline_init = PassPipeline.__init__

        @functools.wraps(pipeline_init)
        def init_with_hook(pipeline, *args, **kwargs):
            pipeline_init(pipeline, *args, **kwargs)
            pipeline.on_pass_end(
                lambda name, ctx, elapsed: self.record(
                    f"pass.{name}", elapsed, {"kernel": ctx.spec.name}
                )
            )

        PassPipeline.__init__ = init_with_hook

        def search_done(span, outcome, args, kwargs):
            span["nodes"] = int(outcome.nodes)
            span["pruned"] = int(sum(outcome.pruned.values()))

        self.wrap(SketchSearch, "run", "solver.search", after=search_done)

        def tape_done(span, compiled, args, kwargs):
            # a first sighting of the returned tape is a real compile; later
            # calls (every run() starts with one) are cache lookups
            span["miss"] = id(compiled) not in self._tapes_seen
            self._tapes_seen.add(id(compiled))

        self.wrap(HEExecutor, "compile", "runtime.compile", after=tape_done)

        def tape_pass(batch_of):
            def before(args, kwargs):
                executor, program = args[0], args[1]
                return {
                    "kernel": executor.spec.name,
                    "plaintext_inputs": bool(executor.spec.layout.pt_names),
                    "batch": batch_of(args, kwargs),
                    "rows_before": executor.stats.ntts_performed,
                }

            def after(span, result, args, kwargs):
                span["rows"] = args[0].stats.ntts_performed - span.pop(
                    "rows_before"
                )

            return before, after

        before, after = tape_pass(lambda args, kwargs: 1)
        self.wrap(HEExecutor, "run", "runtime.run", before, after)
        before, after = tape_pass(
            lambda args, kwargs: len(
                args[2] if len(args) > 2 else kwargs["logical_envs"]
            )
        )
        self.wrap(HEExecutor, "run_many", "runtime.run_many", before, after)

        self.wrap(BFVContext, "__init__", "he.keygen")
        # every rotation asks for its key; only a missing one is key generation
        self.wrap(
            BFVContext, "generate_galois_key", "he.galois_keygen",
            skip=lambda args, kwargs: (
                (args[1] if len(args) > 1 else kwargs["galois_elt"])
                in args[0].galois_keys
            ),
        )
        for stem, method in HE_OPS.items():
            self.wrap(BFVContext, method, f"he.{stem}")

    # -- aggregation ---------------------------------------------------------------

    def dump(self) -> list[dict]:
        with self._lock:
            return [dict(span) for span in self.spans if span["end"] is not None]

    def layer_metrics(self, spans: list[dict], key_builds: int, kernels):
        """Per-layer numbers from finished spans (this and other processes).

        Returns ``(metrics, exact, unsteady)``: ``exact`` holds the counts
        that must repeat exactly across runs of one seed, ``unsteady`` the
        kernels whose per-execution counts already varied inside this run.
        """
        by_name: dict[str, list[dict]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)

        def secs(span):
            return (span["end"] - span["start"]) / 1e9

        def total_s(name):
            return sum(secs(s) for s in by_name.get(name, ()))

        def median_ms(spans_):
            values = [secs(s) * 1e3 for s in spans_]
            return median(values) if values else 0.0

        searches = by_name.get("solver.search", [])
        nodes = sum(s["nodes"] for s in searches)
        search_s = total_s("solver.search")
        compiles = by_name.get("api.compile", [])
        metrics = {
            "solver.nodes": nodes,
            "solver.nodes_per_s": nodes / search_s if search_s else 0.0,
            "solver.search_s": search_s,
            "solver.pruned": sum(s["pruned"] for s in searches),
            "core.synthesize_s": total_s("pass.synthesize"),
            "core.optimize_s": total_s("pass.optimize"),
            "core.compose_s": total_s("pass.compose"),
            "core.cegis_rounds": len(searches),
            "quill.rewrite_s": total_s("pass.rewrite"),
            "api.compile_hit_ms": median_ms(s for s in compiles if s["hit"]),
            "api.cache_hits": sum(1 for s in compiles if s["hit"]),
            "api.cache_misses": sum(1 for s in compiles if not s["hit"]),
            "he.keygen_s": (
                total_s("he.keygen") + total_s("he.galois_keygen")
            ) / max(1, key_builds),
            "runtime.tape_compile_ms": median_ms(
                s for s in by_name.get("runtime.compile", []) if s["miss"]
            ),
        }
        for stem in HE_OPS:
            metrics[f"he.{stem}_ms"] = median_ms(by_name.get(f"he.{stem}", []))

        # per tape pass: kernel, batch, NTT rows, keyswitches inside it
        passes = {
            s["id"]: s for name in TAPE_PASSES for s in by_name.get(name, [])
        }
        keyswitches = dict.fromkeys(passes, 0)
        for name in KEYSWITCH_OPS:
            for span in by_name.get(name, []):
                if span["parent"] in keyswitches:
                    keyswitches[span["parent"]] += 1
        per_kernel: dict[str, dict] = {}
        for pid, span in passes.items():
            entry = per_kernel.setdefault(
                span["kernel"],
                {"ms": [], "rows": set(), "ks": set(),
                 "cached_operands": span["plaintext_inputs"]},
            )
            entry["ms"].append(secs(span) * 1e3 / span["batch"])
            # a lockstep batch shares some transforms, so rows are only
            # comparable for single-request passes (and, for kernels with
            # plaintext inputs, only when the operand missed the executor's
            # plaintext cache: the largest count); keyswitch calls are one
            # per tape op whatever the batch size
            if span["batch"] == 1:
                entry["rows"].add(span["rows"])
            entry["ks"].add(keyswitches[pid])
        for name in kernels:
            entry = per_kernel.get(name)
            metrics[f"runtime.run_ms.{name}"] = (
                median(entry["ms"]) if entry else 0.0
            )
        batches = by_name.get("runtime.run_many", [])
        metrics["runtime.batch_ms_per_req"] = (
            median([secs(s) * 1e3 / s["batch"] for s in batches])
            if batches
            else 0.0
        )

        exact = {"solver.nodes": nodes}
        unsteady = []
        rows = ks = 0
        for name, entry in sorted(per_kernel.items()):
            # one value per kernel, or the count is not deterministic
            rows_varied = len(entry["rows"]) > 1 and not entry["cached_operands"]
            if rows_varied or len(entry["ks"]) != 1:
                unsteady.append(name)
            rows += max(entry["rows"], default=0)
            ks += max(entry["ks"])
        metrics["runtime.ntt_rows"] = rows
        metrics["he.keyswitches"] = ks
        exact["runtime.ntt_rows"] = rows
        exact["he.keyswitches"] = ks
        return metrics, exact, unsteady


def install_tracer() -> Tracer:
    tracer = Tracer()
    tracer.install()
    return tracer
