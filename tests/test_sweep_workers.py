"""The sweep driver's worker processes: results, errors and reaped children.

_sweep deals slices round-robin to the processes of a worker group, the
caller and forked children; a run keeps one group from measure_constants
to verify_expansion.  Every result and every error must be the serial
loop's, and no child may outlive its group, whichever way it ends.
"""

import json
import os
import pickle
import time

import numpy as np
import pytest

import mtcover.expansion
from mtcover import errors
from mtcover.cli import main
from mtcover.coverings import build_qm, build_stage_inventory
from mtcover.errors import MTCoverError, NonFiniteSlice, NotExpanding, UnboundedSelection
from mtcover.expansion import _sweep, local_vertical_conorms, measure_constants, verify_expansion

T_RES = 8  # slices i / 8: at 2 and 3 workers, slice 6 is the caller's and
# slices 1, 5 and 7 are children's


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_job(failures: dict):
    """Slice job t -> t that raises failures[i]() at slice i, or returns it
    where it is a float."""
    def job(t):
        i = round(t * T_RES)
        if i not in failures:
            return t
        if isinstance(failures[i], float):
            return failures[i]
        raise failures[i]()
    return job


def linalg():
    return np.linalg.LinAlgError("matrix is singular")


FAILURES = {
    "nan in a child": {5: np.nan},
    "linalg in a child": {1: linalg},
    "typed error in a child": {7: lambda: NotExpanding("child share")},
    "failure in the caller's share": {6: lambda: NotExpanding("caller share")},
    "child before caller": {5: linalg, 6: lambda: NotExpanding("caller share")},
    "caller before child": {0: lambda: NotExpanding("first"), 1: linalg},
    "raise before nan": {7: np.nan, 6: linalg},
}


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failures_match_the_serial_loop(case, threads):
    job = failing_job(FAILURES[case])
    with pytest.raises(MTCoverError) as serial:
        _sweep(job, T_RES, 1)
    with pytest.raises(MTCoverError) as pooled:
        _sweep(job, T_RES, threads)
    assert type(pooled.value) is type(serial.value)
    assert str(pooled.value) == str(serial.value)
    assert_no_child_left()


def test_the_lowest_failing_slice_wins():
    with pytest.raises(NonFiniteSlice, match=r"^slice t=0\.625: matrix is singular$"):
        _sweep(failing_job(FAILURES["child before caller"]), T_RES, 2)
    assert_no_child_left()


def test_an_exception_that_does_not_pickle_arrives_typed():
    class Unpicklable(Exception):
        pass  # a local class pickles by a name that cannot be looked up

    with pytest.raises(MTCoverError) as info:
        _sweep(failing_job({1: lambda: Unpicklable("lost in transit")}), T_RES, 2)
    assert type(info.value) is MTCoverError
    assert str(info.value) == "Unpicklable: lost in transit"
    assert_no_child_left()


def test_a_child_that_dies_without_a_result_is_a_typed_error():
    caller = os.getpid()

    def job(t):
        if os.getpid() != caller:
            os._exit(5)
        return t

    with pytest.raises(MTCoverError, match="slice 1 exited with status 5 without a result"):
        _sweep(job, T_RES, 2)
    assert_no_child_left()


def test_an_interrupt_kills_and_reaps_the_children():
    caller = os.getpid()

    def job(t):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)
        return t

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _sweep(job, T_RES, 3)
    assert time.perf_counter() - start < 30
    assert_no_child_left()


@pytest.mark.parametrize("cls", [obj for obj in vars(errors).values()
                                 if isinstance(obj, type) and issubclass(obj, MTCoverError)])
def test_every_package_error_survives_a_pickle_round_trip(cls):
    back = pickle.loads(pickle.dumps(cls("slice t=0.5: message")))
    assert type(back) is cls and str(back) == "slice t=0.5: message"


def counted_forks(monkeypatch) -> list:
    """The pids that os.fork returns to the caller from now on."""
    forked = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


@pytest.mark.parametrize("closed, slices", [(False, 4), (True, 5)])
def test_workers_never_outnumber_the_slices(monkeypatch, closed, slices):
    forked = counted_forks(monkeypatch)
    values = _sweep(lambda t: t, 4, 6, closed=closed)
    assert values.tolist() == (np.arange(slices) / 4).tolist()
    assert len(forked) == slices - 1
    assert_no_child_left()


def test_without_fork_the_sweep_is_serial(monkeypatch):
    monkeypatch.delattr(os, "fork")
    seen = []
    values = _sweep(lambda t: seen.append(t) or t, 4, 3)
    assert seen == values.tolist() == [0.0, 0.25, 0.5, 0.75]


def test_array_payloads_are_bitwise(tower2, psi, metric):
    f = build_stage_inventory(tower2, build_qm(tower2.level(0), 1, psi))["f"]
    serial = local_vertical_conorms(f, metric, 16, 8)
    pooled = local_vertical_conorms(f, metric, 16, 8, threads=3)
    assert serial.shape == pooled.shape == (8, 256)
    assert np.array_equal(serial, pooled)
    assert_no_child_left()


# ---------------------------------------------------------------------------
# One group per run

SMALL = dict(fiber_res=8, t_res=4)  # 4 slices: at 3 workers, slice 3 is the caller's


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("command", ["constants", "verify"])
def test_a_command_forks_its_workers_once(tmp_path, monkeypatch, command, threads):
    # six sweeps in a shear verify, one group: threads - 1 forks in all
    config = tmp_path / "shear.json"
    config.write_text(json.dumps({"n": 2, "eps": 0.1, "directions": 4, **SMALL,
                                  "field": [{"coeff": [1.0, 0.0], "freq": [0, 1],
                                             "phase": "sin"}]}))
    serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
    assert main([command, "--config", str(config), "--out", str(serial)]) == 0
    forked = counted_forks(monkeypatch)
    assert main([command, "--config", str(config), "--threads", str(threads),
                 "--out", str(pooled)]) == 0
    assert len(forked) == threads - 1
    assert pooled.read_bytes() == serial.read_bytes()
    assert_no_child_left()


def test_a_threaded_run_released_without_a_verify_reaps_its_workers(shear):
    run = measure_constants(shear, 1, **SMALL, threads=3)
    assert run.constants == measure_constants(shear, 1, **SMALL).constants
    assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # two workers wait with the run
    del run
    assert_no_child_left()


def test_a_failure_in_the_group_is_the_serial_error(shear):
    # the shear needs depth 2: every process of the group ends its depth
    # loop at the cap from the same slice values
    with pytest.raises(UnboundedSelection) as serial:
        measure_constants(shear, 1, **SMALL, k_cap=1)
    with pytest.raises(UnboundedSelection) as pooled:
        measure_constants(shear, 1, **SMALL, k_cap=1, threads=3)
    assert str(pooled.value) == str(serial.value)
    assert_no_child_left()


def test_a_failing_slice_of_the_verify_pass_is_the_serial_error(shear, monkeypatch):
    # patched before the run forks, so the workers fail alike: slice 1 is
    # the first worker's
    chain_factors = mtcover.expansion._chain_factors

    def broken(f, metric, t, *args):
        for factor in chain_factors(f, metric, t, *args):
            yield np.full_like(factor, np.nan) if t in (0.25, 0.75) else factor

    monkeypatch.setattr(mtcover.expansion, "_chain_factors", broken)
    with pytest.raises(NonFiniteSlice) as serial:
        verify_expansion(measure_constants(shear, 1, **SMALL))
    with pytest.raises(NonFiniteSlice) as pooled:
        verify_expansion(measure_constants(shear, 1, **SMALL, threads=3))
    assert str(pooled.value) == str(serial.value)
    assert "t=0.25" in str(serial.value)
    assert_no_child_left()


@pytest.mark.parametrize("step", ["measure", "verify"])
def test_an_interrupt_of_the_caller_kills_and_reaps_the_run_workers(shear, monkeypatch, step):
    caller = os.getpid()

    def interrupted(*args, **kwargs):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        if step == "measure":
            monkeypatch.setattr(mtcover.expansion, "estimate_K", interrupted)
            measure_constants(shear, 1, **SMALL, threads=3)
        else:
            run = measure_constants(shear, 1, **SMALL, threads=3)
            # patched after the fork: only the caller's pass is interrupted
            monkeypatch.setattr(mtcover.expansion, "_chain_factors", interrupted)
            verify_expansion(run)
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_two_threaded_runs_measured_before_either_is_verified(shear):
    first = measure_constants(shear, 1, **SMALL, threads=2)
    second = measure_constants(shear, 2, **SMALL, threads=3)
    assert verify_expansion(second) == verify_expansion(measure_constants(shear, 2, **SMALL))
    assert verify_expansion(first) == verify_expansion(measure_constants(shear, 1, **SMALL))
    assert_no_child_left()
