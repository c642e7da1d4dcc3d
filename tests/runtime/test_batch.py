"""Tests for the compiled instruction tape and batched program execution.

Covers the executor-side tentpole pieces: one-time program compilation
(displacement check, Galois keys, constants, liveness slots),
``run_many`` lockstep batching, the bounded/frozen plaintext cache, and
the requirement that the RNS executor decrypts bit-identically to the
big-integer oracle (``tests/reference_bfv.py``) on every seed kernel.
"""

import numpy as np
import pytest

from repro.api import Porcupine
from repro.baselines import BASELINE_BUILDERS, baseline_for
from repro.he.params import toy_params
from repro.quill.builder import ProgramBuilder
from repro.quill.ir import Opcode
from repro.runtime.executor import HEExecutor
from repro.spec import get_spec
from tests.reference_bfv import reference_executor

# every seed kernel whose baseline fits the toy parameter set's noise
# budget (l2/roberts need the larger presets; their ops are covered by
# the op-level equivalence suite in tests/he/test_rns_native.py)
SEED_KERNELS = [
    "box_blur",
    "dot_product",
    "hamming",
    "linear_regression",
    "gx",
    "gy",
]


def _logical(spec, rng, bound=5):
    return {
        p.name: rng.integers(0, bound, p.shape) for p in spec.layout.inputs
    }


# ---------------------------------------------------------------------------
# Compiled tape
# ---------------------------------------------------------------------------

def test_compile_is_cached_and_hoists_galois_keys():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=3)
    program = baseline_for("box_blur")
    compiled = executor.compile(program)
    assert executor.compile(program) is compiled  # cached per program
    # every rotation's key exists before any run
    for g in compiled.galois_elements:
        assert g in executor.ctx.galois_keys
    rotations = {
        executor.ctx.encoder.galois_element_for_rotation(i.amount)
        for i in program.instructions
        if i.opcode is Opcode.ROTATE
    }
    assert set(compiled.galois_elements) == rotations


def test_liveness_reuses_wire_slots():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=3)
    program = baseline_for("box_blur")
    compiled = executor.compile(program)
    # a straight-line kernel with dead-after-use intermediates needs far
    # fewer live slots than instructions
    assert compiled.slot_count < program.instruction_count()
    # executing through the tape still matches the reference
    rng = np.random.default_rng(0)
    report = executor.run(program, _logical(spec, rng))
    assert report.matches_reference


def test_long_rotation_chain_uses_constant_slots():
    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=3)
    b = ProgramBuilder(vector_size=spec.layout.vector_size)
    x = b.ct_input("x")
    b.pt_input("w")
    v = x
    for _ in range(6):
        v = b.rotate(v, 1)  # each intermediate dies immediately
    program = b.build(v)
    compiled = executor.compile(program)
    assert compiled.slot_count == 1


def test_unsafe_programs_rejected_at_compile_time():
    from repro.runtime.executor import DisplacementError

    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=3)
    b = ProgramBuilder(vector_size=spec.layout.vector_size)
    x = b.ct_input("x")
    b.pt_input("w")
    v = x
    for _ in range(5):
        v = b.rotate(v, 4)
    program = b.build(b.add(v, v))
    with pytest.raises(DisplacementError):
        executor.compile(program)


# ---------------------------------------------------------------------------
# Batched execution
# ---------------------------------------------------------------------------

def test_run_many_matches_single_runs():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=4)
    program = baseline_for("box_blur")
    rng = np.random.default_rng(1)
    envs = [_logical(spec, rng) for _ in range(5)]
    batch = executor.run_many(program, envs)
    assert batch.batch_size == 5
    assert batch.all_match
    assert batch.total_seconds > 0
    for env, report in zip(envs, batch.reports):
        single = executor.run(program, env)
        assert np.array_equal(report.logical_output, single.logical_output)
        assert report.output_noise_budget > 0


def test_run_many_rejects_divergent_plaintext_inputs():
    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=4)
    program = baseline_for("dot_product")
    rng = np.random.default_rng(2)
    envs = [
        {"x": rng.integers(0, 5, 8), "w": rng.integers(0, 5, 8)}
        for _ in range(2)
    ]
    with pytest.raises(ValueError):
        executor.run_many(program, envs)


def test_run_many_requires_inputs():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=4)
    with pytest.raises(ValueError):
        executor.run_many(baseline_for("box_blur"), [])


# ---------------------------------------------------------------------------
# RNS executor == big-integer oracle executor on every seed kernel
# ---------------------------------------------------------------------------

def _assert_matches_oracle(fast_report, slow_report):
    assert fast_report.matches_reference
    assert slow_report.matches_reference
    assert np.array_equal(
        fast_report.logical_output, slow_report.logical_output
    )
    assert np.array_equal(fast_report.model_output, slow_report.model_output)
    assert (
        fast_report.output_noise_budget == slow_report.output_noise_budget
    )


@pytest.mark.parametrize("name", SEED_KERNELS)
def test_seed_kernels_bit_identical_to_reference(name):
    assert name in BASELINE_BUILDERS
    spec = get_spec(name)
    program = baseline_for(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    env = _logical(spec, rng)
    fast = HEExecutor(spec, params=toy_params(), seed=21)
    slow = reference_executor(spec, params=toy_params(), seed=21)
    _assert_matches_oracle(fast.run(program, env), slow.run(program, env))

    # the same kernel as a sharded lockstep batch of 3 (server-side
    # plaintext operands are shared across a run_many batch)
    pt_names = set(spec.layout.pt_names)
    envs = [
        {
            key: env[key] if key in pt_names else values
            for key, values in _logical(spec, rng).items()
        }
        for _ in range(3)
    ]
    fast = HEExecutor(spec, params=toy_params(), seed=21, exec_workers=2)
    slow = reference_executor(spec, params=toy_params(), seed=21)
    fast_batch = fast.run_many(program, envs)
    slow_batch = slow.run_many(program, envs)
    assert fast_batch.batch_size == slow_batch.batch_size == 3
    for fast_report, slow_report in zip(fast_batch.reports, slow_batch.reports):
        _assert_matches_oracle(fast_report, slow_report)


# ---------------------------------------------------------------------------
# Plaintext cache policy
# ---------------------------------------------------------------------------

def test_plaintext_cache_entries_are_frozen():
    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=5)
    pt = executor._encode_cached(np.arange(8, dtype=np.int64))
    with pytest.raises(ValueError):
        pt.coeffs[0] = 99


def test_plaintext_cache_is_bounded():
    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=5)
    limit = executor.PLAINTEXT_CACHE_LIMIT
    for i in range(limit + 10):
        executor._encode_cached(
            np.full(4, i % 300 - 150, dtype=np.int64)
        )
    assert len(executor._plaintext_cache) <= limit


def test_plaintext_cache_hits_return_same_object():
    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=5)
    vec = np.arange(6, dtype=np.int64)
    assert executor._encode_cached(vec) is executor._encode_cached(vec.copy())


# ---------------------------------------------------------------------------
# Session / backend wiring
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def session():
    return Porcupine(seed=0)


def test_session_run_many_interpreter(session):
    batch = session.run_many("box_blur", 3, backend="interpreter")
    assert batch.backend == "interpreter"
    assert batch.batch_size == 3
    assert batch.all_match


def test_session_run_many_explicit_envs(session):
    spec = session.spec("box_blur")
    rng = np.random.default_rng(3)
    envs = [_logical(spec, rng) for _ in range(2)]
    batch = session.run_many("box_blur", envs, backend="interpreter")
    assert batch.batch_size == 2
    assert batch.all_match


def test_session_run_many_rejects_bad_batch_size(session):
    with pytest.raises(ValueError):
        session.run_many("box_blur", 0, backend="interpreter")


def test_session_run_many_shares_server_side_plaintexts(session):
    """Integer batch sizes draw fresh ct inputs per run but keep the
    server-side plaintext operands fixed (dot_product's weights), so the
    lockstep HE path accepts them."""
    batch = session.run_many("dot_product", 3, backend="interpreter")
    assert batch.batch_size == 3
    assert batch.all_match
    # outputs differ because the user-side inputs differ
    outs = [tuple(np.ravel(r.logical_output)) for r in batch.results]
    assert len(set(outs)) > 1


# ---------------------------------------------------------------------------
# run_many hardening and tape pinning (serving-path edge cases)
# ---------------------------------------------------------------------------

def test_run_many_empty_batch_message_names_the_fix():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=4)
    with pytest.raises(ValueError, match="at least one environment"):
        executor.run_many(baseline_for("box_blur"), [])


def test_run_many_single_element_batch_matches_run():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=4)
    program = baseline_for("box_blur")
    rng = np.random.default_rng(6)
    env = _logical(spec, rng)
    batch = executor.run_many(program, [env])
    assert batch.batch_size == 1
    assert batch.all_match
    single = executor.run(program, env)
    assert np.array_equal(
        batch.reports[0].logical_output, single.logical_output
    )


def test_run_many_names_missing_and_extra_inputs():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=4)
    program = baseline_for("box_blur")
    rng = np.random.default_rng(7)
    good = _logical(spec, rng)
    renamed = {"image": next(iter(good.values()))}
    with pytest.raises(ValueError) as excinfo:
        executor.run_many(program, [good, renamed])
    message = str(excinfo.value)
    # the error names the offending environment and both problems
    assert "environment 1 of 2" in message
    assert "img" in message and "image" in message
    extra = dict(good)
    extra["stray"] = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError, match="unexpected input.*stray"):
        executor.run_many(program, [extra])


def test_pinned_tapes_survive_cache_eviction():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=4)
    hot = baseline_for("box_blur")
    compiled = executor.pin(hot)
    # flood the per-program tape cache past its bound with cold programs
    cold = []
    for _ in range(40):
        program = baseline_for("box_blur")
        cold.append(program)  # keep alive: ids must stay distinct
        executor.compile(program)
    assert executor.compile(hot) is compiled  # pinned: never evicted
    executor.unpin(hot)
    for program in cold:
        executor.compile(program)
    rng = np.random.default_rng(8)
    report = executor.run(hot, _logical(spec, rng))
    assert report.matches_reference
