"""Property tests for the executor's execution path: the tape-level
NTT-domain plan, scratch-buffer arenas, and multicore lockstep sharding
must all be bit-identical to the big-integer oracle executor
(``tests/reference_bfv.py``) and to one worker — same decrypted outputs,
same model vectors, same noise budgets.

The planner's counters are also checked *exactly*: the plan is built by
simulating the executor's domain-state machine, so the predicted NTT row
counts must equal the measured ones, not just bound them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Porcupine
from repro.baselines import BASELINE_BUILDERS, baseline_for
from repro.he.params import toy_params
from repro.runtime.executor import HEExecutor
from repro.spec import get_spec
from tests.reference_bfv import reference_executor

# every registry kernel with a hand-written baseline; l2/roberts/harris
# overrun the toy noise budget, but BFV decryption stays deterministic,
# so bit-identity (outputs and budgets) is still a meaningful property
ALL_KERNELS = sorted(BASELINE_BUILDERS)
FAST_KERNELS = ["box_blur", "dot_product", "gx", "hamming"]


def _env(spec, seed, bound=5):
    rng = np.random.default_rng(seed)
    return {
        p.name: rng.integers(0, bound, p.shape) for p in spec.layout.inputs
    }


def _batch_envs(spec, seed, batch, bound=5):
    """Batch envs in the run_many contract: ciphertext inputs vary per
    element, server-side plaintext operands are shared."""
    base = _env(spec, seed, bound)
    ct_names = set(spec.packed_env(base)[0])
    envs = [base]
    for i in range(1, batch):
        drawn = _env(spec, seed + 1000 + i, bound)
        envs.append(
            {
                name: drawn[name] if name in ct_names else base[name]
                for name in base
            }
        )
    return envs


def _assert_reports_identical(a, b):
    assert np.array_equal(a.model_output, b.model_output)
    assert np.array_equal(a.logical_output, b.logical_output)
    assert a.output_noise_budget == b.output_noise_budget
    assert len(a.extra_model_outputs) == len(b.extra_model_outputs)
    for x, y in zip(a.extra_model_outputs, b.extra_model_outputs):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# Planned execution == big-integer oracle, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_KERNELS)
def test_planner_bit_identical_single_run(name):
    spec = get_spec(name)
    program = baseline_for(name)
    env = _env(spec, seed=hash(name) % 2**32)
    # fresh executors at identical RNG positions: same keys, same
    # encryption randomness, so budgets are comparable too
    oracle = reference_executor(spec, params=toy_params(), seed=11)
    planned = HEExecutor(spec, params=toy_params(), seed=11)
    _assert_reports_identical(
        oracle.run(program, env), planned.run(program, env)
    )


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_workers_and_planner_bit_identical_batch(name):
    spec = get_spec(name)
    program = baseline_for(name)
    envs = _batch_envs(spec, seed=hash(name) % 2**32, batch=3)
    oracle = reference_executor(spec, params=toy_params(), seed=12)
    tuned = HEExecutor(spec, params=toy_params(), seed=12, exec_workers=3)
    base = oracle.run_many(program, envs)
    fast = tuned.run_many(program, envs)
    assert fast.batch_size == base.batch_size == 3
    for a, b in zip(base.reports, fast.reports):
        _assert_reports_identical(a, b)


@given(
    name=st.sampled_from(FAST_KERNELS),
    seed=st.integers(0, 2**16),
    batch=st.integers(1, 4),
    workers=st.integers(2, 4),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_inputs_bit_identical_across_configs(
    name, seed, batch, workers
):
    spec = get_spec(name)
    program = baseline_for(name)
    envs = _batch_envs(spec, seed=seed, batch=batch)
    single = HEExecutor(spec, params=toy_params(), seed=7)
    tuned = HEExecutor(spec, params=toy_params(), seed=7, exec_workers=workers)
    base = single.run_many(program, envs)
    fast = tuned.run_many(program, envs)
    for a, b in zip(base.reports, fast.reports):
        _assert_reports_identical(a, b)


# ---------------------------------------------------------------------------
# The plan's NTT row counts are exact, not just upper bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_KERNELS)
def test_ntt_counts_match_plan_exactly(name):
    spec = get_spec(name)
    program = baseline_for(name)
    env = _env(spec, seed=5)

    planned = HEExecutor(spec, params=toy_params(), seed=13)
    plan = planned.compile(program).plan
    assert plan is not None

    planned.run(program, env)
    assert planned.stats.ntts_performed == plan.ntts_planned
    assert planned.stats.ntts_planned == plan.ntts_planned


def test_ntt_counts_scale_linearly_with_batch():
    spec = get_spec("box_blur")
    program = baseline_for("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=14)
    plan = executor.compile(program).plan
    envs = _batch_envs(spec, seed=3, batch=4)
    executor.run_many(program, envs)
    assert executor.stats.ntts_performed == 4 * plan.ntts_planned
    assert executor.stats.ntts_planned == 4 * plan.ntts_planned


# ---------------------------------------------------------------------------
# Scratch arenas: buffers are reused, never aliased into results
# ---------------------------------------------------------------------------

def test_arena_reuse_does_not_alias_results():
    """Back-to-back runs reuse arena buffers; a later run must never
    corrupt an earlier run's decrypted output (the aliasing regression
    the out= NTT path could introduce)."""
    spec = get_spec("gx")
    program = baseline_for("gx")
    executor = HEExecutor(spec, params=toy_params(), seed=9)
    env1, env2 = _env(spec, 1), _env(spec, 2)
    first = executor.run(program, env1)
    out1 = first.model_output.copy()
    logical1 = first.logical_output.copy()
    executor.run(program, env2)  # steady state: same buffers, new data
    again = executor.run(program, env1)
    # encryption randomness differs (the RNG advanced), but BFV decrypts
    # exactly: identical inputs must decrypt to identical outputs
    assert np.array_equal(again.model_output, out1)
    assert np.array_equal(again.logical_output, logical1)
    assert executor._arena.hits > 0  # the arena actually served reuses
    assert executor.stats.arena_bytes > 0


def test_worker_arenas_are_private_and_counted():
    spec = get_spec("box_blur")
    program = baseline_for("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=10, exec_workers=2)
    envs = _batch_envs(spec, seed=4, batch=4)
    batch = executor.run_many(program, envs)
    assert batch.all_match
    assert len(executor._worker_arenas) == 2
    assert executor.stats.exec_workers == 2
    assert executor.stats.arena_bytes > 0


# ---------------------------------------------------------------------------
# Counters surface through the executor stats and the session
# ---------------------------------------------------------------------------

def test_executor_stats_summary_shape():
    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=15)
    executor.run(baseline_for("dot_product"), _env(spec, 6))
    summary = executor.stats.summary()
    for key in (
        "runs",
        "ntts_performed",
        "ntts_planned",
        "arena_bytes",
        "exec_workers",
    ):
        assert key in summary
    assert summary["runs"] == 1
    assert summary["ntts_performed"] > 0


def test_session_flags_are_bit_identical_and_surfaced():
    base = Porcupine(seed=0)
    tuned = Porcupine(seed=0)
    a = base.run_many("box_blur", 3, backend="he", seed=0)
    b = tuned.run_many(
        "box_blur", 3, backend="he", seed=0, exec_workers=2
    )
    for x, y in zip(a.results, b.results):
        assert np.array_equal(x.logical_output, y.logical_output)
        assert x.noise_budget == y.noise_budget
    stats = tuned.executor_stats()
    assert stats.runs == 1
    assert stats.ntts_performed > 0
    assert stats.exec_workers == 2
