"""Property-based tests on the bounded ingestion queue's invariants.

Whatever the offer/take pattern, the queue never holds more than its
capacity and its ledger balances: every accepted cycle was either taken
or is still queued.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadcontrol.queue import BoundedCycleQueue


class TestQueueProperties:
    @given(
        capacity=st.integers(min_value=1, max_value=12),
        ops=st.lists(st.booleans(), min_size=1, max_size=100),
    )
    @settings(max_examples=60)
    def test_queue_ledger_always_balances(self, capacity, ops):
        queue = BoundedCycleQueue(capacity=capacity)
        for is_offer in ops:
            if is_offer:
                queue.offer(object())
            elif queue.depth:
                queue.take()
            assert queue.depth <= capacity
            assert queue.peak_depth <= capacity
            accepted = queue.offered - queue.rejected
            assert accepted == queue.taken + queue.depth
