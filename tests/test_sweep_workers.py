"""The sweep driver's worker processes: results, errors and reaped children.

_sweep deals slices round-robin to the caller and forked children.  Every
result and every error must be the serial loop's, and no child may outlive
a sweep, whichever way it ends.
"""

import os
import pickle
import time

import numpy as np
import pytest

from mtcover import errors
from mtcover.coverings import build_f
from mtcover.errors import MTCoverError, NonFiniteSlice, NotExpanding
from mtcover.expansion import _sweep, local_vertical_conorms

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


@pytest.mark.parametrize("closed, slices", [(False, 4), (True, 5)])
def test_workers_never_outnumber_the_slices(monkeypatch, closed, slices):
    forked = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
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
    f = build_f(tower2, 1, psi)
    serial = local_vertical_conorms(f, metric, 16, 8)
    pooled = local_vertical_conorms(f, metric, 16, 8, threads=3)
    assert serial.shape == pooled.shape == (8, 256)
    assert np.array_equal(serial, pooled)
    assert_no_child_left()
