"""The coordinator-side caller: timeout + bounded retry per request.

:class:`ShardClient` is the one place the fleet turns "invoke an RPC on
a shard" into the full reliability dance: seal an envelope with a
deterministic request id, send it through the transport, and on a
retryable failure (:class:`~repro.errors.TransportTimeout`,
:class:`~repro.errors.CorruptEnvelopeError`) retry under the shared
:class:`~repro.resilience.retry.RetryPolicy` with exponential backoff
and deterministic jitter; exhausted retries always surface as
:class:`~repro.errors.TransportTimeout`.  Because every retry reuses the
same request id, a retry whose first attempt actually executed is
absorbed by the endpoint's reply cache — so the caller sees exactly-once
*effects* over at-least-once *delivery*.

Not retried here, by design:

* :class:`~repro.errors.UnreachableShardError` — a severed link will
  not heal inside a retry loop; the fleet degrades the shard, buffers
  its cycles, and probes on subsequent cycles instead;
* :class:`~repro.errors.StaleLeaseError` — a refused write means this
  coordinator lost ownership; retrying would be the zombie hammering
  at the door.  It propagates so the caller can stand down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import CorruptEnvelopeError, TransportTimeout
from repro.resilience.retry import RetryPolicy, retry_call
from repro.transport.base import LEASE_ACQUIRE, Transport
from repro.transport.envelope import Envelope, Reply
from repro.transport.lease import ShardLease

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.observability.metrics import MetricsRegistry

__all__ = ["DEFAULT_CLIENT_POLICY", "ShardClient"]


def DEFAULT_CLIENT_POLICY() -> RetryPolicy:
    """Fresh default policy: 3 attempts, exponential backoff, 25% jitter.

    A factory (not a shared instance) so no caller can mutate a global.
    """
    return RetryPolicy(max_attempts=3, jitter=0.25)


class ShardClient:
    """Reliable calls to one shard over a :class:`Transport`."""

    def __init__(
        self,
        transport: Transport,
        shard: str,
        *,
        holder: str = "",
        policy: RetryPolicy | None = None,
        metrics: "MetricsRegistry | None" = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.transport = transport
        self.shard = shard
        self.holder = holder
        self.policy = policy if policy is not None else DEFAULT_CLIENT_POLICY()
        self.metrics = metrics
        self.sleep = sleep

    # -- observability -------------------------------------------------

    def _count(self, name: str, help_text: str, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                name, help_text, labels=tuple(sorted(labels))
            ).inc(**labels)

    # -- calls ---------------------------------------------------------

    def call(
        self,
        kind: str,
        payload: object = None,
        *,
        seq: int = 0,
        request_id: str | None = None,
        lease_epoch: int = 0,
    ) -> Reply:
        """Invoke ``kind`` on the shard; returns the :class:`Reply`.

        ``request_id`` defaults to ``"{shard}:{kind}:{seq}"`` — callers
        whose (kind, seq) does not uniquely identify the logical request
        (heartbeat probes, handoff checkpoints) must pass their own.
        """
        rid = (
            request_id
            if request_id is not None
            else f"{self.shard}:{kind}:{seq}"
        )
        attempts = {"n": 0}

        def send() -> Reply:
            envelope = Envelope.seal(
                request_id=rid,
                kind=kind,
                shard=self.shard,
                seq=seq,
                payload=payload,
                holder=self.holder,
                lease_epoch=lease_epoch,
                attempt=attempts["n"],
            )
            attempts["n"] += 1
            return self.transport.call(envelope)

        def on_retry(attempt: int, exc: BaseException) -> None:
            self._count(
                "fdeta_transport_retries_total",
                "Transport requests retried after timeout or corruption.",
                kind=kind,
            )

        self._count(
            "fdeta_transport_requests_total",
            "Logical transport requests issued by the coordinator.",
            kind=kind,
        )
        try:
            reply = retry_call(
                send,
                policy=self.policy,
                retryable=(TransportTimeout, CorruptEnvelopeError),
                label=f"{self.shard}:{kind}",
                on_retry=on_retry,
                sleep=self.sleep,
            )
        except CorruptEnvelopeError as exc:
            # Retries ran out on a garbled frame.  An earlier attempt
            # may still have executed (its reply lost), so the outcome
            # is the same as an exhausted timeout: delivery unknown.
            raise TransportTimeout(
                f"{rid}: no intact delivery in {attempts['n']} attempt(s)"
            ) from exc
        except Exception as exc:
            from repro.errors import UnreachableShardError

            if isinstance(exc, UnreachableShardError):
                self._count(
                    "fdeta_transport_unreachable_total",
                    "Calls that found the shard's link severed.",
                    shard=self.shard,
                )
            raise
        if reply.duplicate:
            self._count(
                "fdeta_transport_duplicates_absorbed_total",
                "Retries answered from the endpoint reply cache.",
                kind=kind,
            )
        return reply

    def acquire_lease(self, *, epoch: int, seq: int, ttl: int) -> ShardLease:
        """Claim (or renew) ownership of the shard at ``epoch``.

        The request id folds in holder, epoch, and seq so distinct
        acquisition attempts are distinct logical requests while a
        retried one is still absorbed as a duplicate.
        """
        reply = self.call(
            LEASE_ACQUIRE,
            ttl,
            seq=seq,
            lease_epoch=epoch,
            request_id=f"{self.shard}:lease:{self.holder}:{epoch}:{seq}",
        )
        granted = dict(reply.value)  # type: ignore[arg-type]
        return ShardLease(**granted)
