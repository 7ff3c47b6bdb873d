"""The one bounded-retry policy shared across the whole pipeline.

:class:`RetryPolicy` is bounded attempts with exponential backoff, the
shape every retry loop in the tree needs:

* transient storage errors (:func:`repro.storage.io.retry_io`);
* control-plane transport timeouts
  (:class:`repro.transport.ShardClient`), which additionally use the
  deterministic ``jitter`` so a fleet of retrying coordinators does not
  hammer a recovering shard in lockstep.

:func:`retry_call` is the one generic retry loop those callers share:
run an operation, retry the exception classes the caller declares
retryable, give up after ``max_attempts``.  Backoff never sleeps by
default — the pipeline is simulation-clocked — but the per-attempt
delay is computed (and handed to ``sleep`` when given) so a real
deployment pays real backoff.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Tuple, Type, TypeVar

from repro.errors import ConfigurationError

__all__ = ["RetryPolicy", "retry_call"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff.

    Parameters
    ----------
    max_attempts:
        Total attempts :func:`retry_call` makes before re-raising.
    backoff_base:
        Growth factor of the per-round delay: round ``r`` waits
        ``backoff_base ** r`` units before jitter.
    jitter:
        Fractional spread applied to :meth:`backoff` delays, in
        ``[0, 1)``.  The jitter is *deterministic* — a keyed hash of
        the caller's label and the attempt number — so chaos runs
        replay bit-identically while distinct callers still decorrelate
        their retry storms.
    """

    max_attempts: int = 2
    backoff_base: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ConfigurationError(
                f"max_attempts must be >= 0, got {self.max_attempts}"
            )
        if self.backoff_base < 1.0:
            raise ConfigurationError(
                f"backoff_base must be >= 1, got {self.backoff_base}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def attempt_cost(self, attempt: int) -> float:
        """Un-jittered backoff units of retry round ``attempt``."""
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        return float(self.backoff_base**attempt)

    def backoff(self, attempt: int, key: str = "") -> float:
        """The (jittered) backoff delay before retry round ``attempt``.

        Without jitter this equals :meth:`attempt_cost`.  With jitter
        the delay is scaled by a factor in ``[1 - jitter, 1 + jitter)``
        derived from a keyed hash of ``(key, attempt)`` — fully
        deterministic, so two coordinators retrying the same shard
        (different keys) spread out while a replayed run backs off
        identically.
        """
        base = self.attempt_cost(attempt)
        if self.jitter == 0.0:
            return base
        digest = hashlib.blake2b(
            f"{key}#{attempt}".encode("utf-8"), digest_size=8
        ).digest()
        unit = int.from_bytes(digest, "big") / float(1 << 64)  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))


def retry_call(
    operation: Callable[[], _T],
    *,
    policy: RetryPolicy,
    retryable: Tuple[Type[BaseException], ...] | Type[BaseException],
    label: str = "call",
    on_retry: Callable[[int, BaseException], None] | None = None,
    sleep: Callable[[float], None] | None = None,
) -> _T:
    """Run ``operation``, retrying ``retryable`` failures under ``policy``.

    The single retry loop behind :func:`repro.storage.io.retry_io` and
    the transport's :class:`~repro.transport.ShardClient`.  Only the
    declared ``retryable`` exception classes are retried — everything
    else propagates on the first raise — and ``policy.max_attempts``
    bounds total attempts.  ``on_retry(attempt, exc)`` fires before
    each retry (metrics, ledgers); ``sleep`` receives the jittered
    :meth:`RetryPolicy.backoff` delay and defaults to ``None`` because
    the pipeline is simulation-clocked (pass ``time.sleep`` in a real
    deployment).
    """
    attempt = 0
    while True:
        try:
            return operation()
        except retryable as exc:
            if attempt + 1 >= policy.max_attempts:
                raise
            attempt += 1
            if on_retry is not None:
                on_retry(attempt, exc)
            if sleep is not None:
                sleep(policy.backoff(attempt, key=label))
