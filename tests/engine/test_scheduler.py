"""Min-clock scheduler semantics."""

import pytest

from repro.config import tiny_socket
from repro.engine import CoreState, FastSocket, Scheduler
from repro.engine.thread import ThreadContext
from repro.errors import SimulationError

from .gen_threads import FixedThread


def make_sched(threads_and_flags):
    socket = tiny_socket(n_cores=8)
    fast = FastSocket(socket)
    import numpy as np
    from repro.mem import AddressSpace

    space = AddressSpace(line_bytes=64)
    cores = []
    for idx, (thread, is_main) in enumerate(threads_and_flags):
        ctx = ThreadContext(
            socket=socket,
            addrspace=space,
            rng=np.random.default_rng(idx),
            core_id=idx,
        )
        thread.start(ctx)
        cores.append(
            CoreState(core_id=idx, thread=thread, gen=thread.chunks(), is_main=is_main)
        )
    return Scheduler(fast, cores)


class TestCompletion:
    def test_finite_main_runs_to_generator_end(self):
        sched = make_sched([(FixedThread(n_chunks=5, size=10), True)])
        outcome = sched.run()
        assert sched.cores[0].accesses == 50
        assert 0 in outcome.main_finish_ns

    def test_budget_stops_infinite_main(self):
        sched = make_sched([(FixedThread(n_chunks=None, size=10), True)])
        sched.run(main_access_budget=100)
        assert sched.cores[0].accesses == 100

    def test_budget_is_per_window(self):
        sched = make_sched([(FixedThread(n_chunks=None, size=10), True)])
        sched.run(main_access_budget=50)
        sched.reopen_mains()
        sched.run(main_access_budget=50)
        assert sched.cores[0].accesses == 100

    def test_interference_stops_with_mains(self):
        main = FixedThread(n_chunks=3, size=10, name="main")
        intf = FixedThread(n_chunks=None, size=10, name="intf")
        sched = make_sched([(main, True), (intf, False)])
        sched.run()
        assert sched.cores[0].done
        assert not sched.cores[1].done  # interference merely paused

    def test_multiple_mains_makespan_is_max(self):
        fastt = FixedThread(n_chunks=2, size=10, ops=1)
        slow = FixedThread(n_chunks=2, size=10, ops=500)
        sched = make_sched([(fastt, True), (slow, True)])
        outcome = sched.run()
        assert outcome.main_finish_ns[1] > outcome.main_finish_ns[0]
        assert outcome.makespan_ns == pytest.approx(
            max(outcome.main_finish_ns.values()) - outcome.start_ns
        )


class TestFairness:
    def test_min_clock_interleaves_equal_threads(self):
        """Two identical infinite threads must advance in lock step."""
        a = FixedThread(n_chunks=None, size=10)
        b = FixedThread(n_chunks=None, size=10)
        sched = make_sched([(a, True), (b, True)])
        sched.run(main_access_budget=200)
        assert abs(sched.cores[0].accesses - sched.cores[1].accesses) <= 10

    def test_slow_thread_executes_fewer_accesses(self):
        """A thread whose accesses cost 100x more must be granted fewer
        accesses per unit simulated time — that is what makes
        interference intensity emergent."""
        cheap = FixedThread(n_chunks=None, size=10, ops=1)
        costly = FixedThread(n_chunks=None, size=10, ops=200)
        sched = make_sched([(cheap, True), (costly, False)])
        sched.run(main_access_budget=2000)
        assert sched.cores[1].accesses < sched.cores[0].accesses / 10


class TestValidation:
    def test_requires_a_main(self):
        sched = make_sched([(FixedThread(n_chunks=1), False)])
        with pytest.raises(SimulationError, match="main"):
            sched.run()

    def test_rejects_duplicate_cores(self):
        socket = tiny_socket()
        fast = FastSocket(socket)
        t = FixedThread()
        cores = [
            CoreState(core_id=0, thread=t, gen=iter(()), is_main=True),
            CoreState(core_id=0, thread=t, gen=iter(()), is_main=False),
        ]
        with pytest.raises(SimulationError, match="duplicate"):
            Scheduler(fast, cores)

    def test_rejects_out_of_range_core(self):
        socket = tiny_socket(n_cores=2)
        fast = FastSocket(socket)
        t = FixedThread()
        cores = [CoreState(core_id=5, thread=t, gen=iter(()), is_main=True)]
        with pytest.raises(SimulationError, match="out of range"):
            Scheduler(fast, cores)

    def test_runaway_guard(self):
        sched = make_sched([(FixedThread(n_chunks=None, size=10), True)])
        with pytest.raises(SimulationError, match="exceeded"):
            sched.run(main_access_budget=10_000, max_total_accesses=100)

    def test_runaway_guard_fires_before_dispatch(self):
        """The safety limit is enforced *before* a chunk executes: the
        simulation never overshoots the budget, and the error names the
        core that would have crossed it."""
        sched = make_sched([(FixedThread(n_chunks=None, size=10), True)])
        with pytest.raises(SimulationError, match=r"core 0 \('fixed'\)"):
            sched.run(main_access_budget=10_000, max_total_accesses=95)
        assert sched.cores[0].accesses <= 95
