"""Token-bucket rate limiting for the serving surface.

One verified query fans out to ``1 + l`` protocol round trips, so an
unthrottled HTTP client can multiply its offered load into the overlay.
The limiter shapes that at the front door with the classic token bucket:
a bucket holds up to ``burst`` tokens and refills at ``rate`` tokens per
second; each request spends one token; an empty bucket means 429 with a
``Retry-After`` telling the client when a token will exist.

Two layers: a **global** bucket bounds total overlay load, and a
**per-client** bucket keeps one chatty client from spending everyone's
budget.  Both clocks are injectable (default: the running loop's clock),
so refill arithmetic is deterministic on the virtual-clock fabric —
refill is computed lazily from elapsed time, never from a timer task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .cache import loop_time

__all__ = ["TokenBucket", "RateLimiter", "RateDecision"]


class TokenBucket:
    """Lazily-refilled token bucket (no background task)."""

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._now = clock if clock is not None else loop_time
        self._tokens = float(burst)
        self._updated: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._updated is None:
            self._updated = now
            return
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._updated = now

    @property
    def tokens(self) -> float:
        """Current token count (after refill) — mostly for tests."""
        self._refill(self._now())
        return self._tokens

    def try_acquire(self, amount: float = 1.0) -> bool:
        """Spend *amount* tokens if available; never blocks."""
        now = self._now()
        self._refill(now)
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False

    def retry_after(self, amount: float = 1.0) -> float:
        """Seconds until *amount* tokens will exist (0 if they do now)."""
        self._refill(self._now())
        deficit = amount - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


@dataclass(frozen=True)
class RateDecision:
    """Outcome of one admission check."""

    allowed: bool
    #: Seconds the client should wait before retrying (0 when allowed).
    retry_after: float = 0.0
    #: Which bucket said no: "client" or "global" (empty when allowed).
    limited_by: str = ""


#: Every admitted request's decision (frozen, so one instance serves all).
_ALLOWED = RateDecision(allowed=True)


class RateLimiter:
    """Global + per-client token buckets with bounded client tracking."""

    def __init__(
        self,
        *,
        global_rate: float = 500.0,
        global_burst: float = 1000.0,
        client_rate: float = 50.0,
        client_burst: float = 100.0,
        max_clients: int = 4096,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._clock = clock
        self.global_bucket = TokenBucket(global_rate, global_burst, clock=clock)
        self.client_rate = client_rate
        self.client_burst = client_burst
        self.max_clients = max_clients
        self._clients: Dict[str, TokenBucket] = {}
        self.allowed = 0
        self.limited = 0

    def _client_bucket(self, client: str) -> TokenBucket:
        bucket = self._clients.get(client)
        if bucket is None:
            if len(self._clients) >= self.max_clients:
                # Soft-state reset: forget everyone rather than tracking
                # unbounded client state (full buckets for all, briefly).
                self._clients.clear()
            bucket = TokenBucket(
                self.client_rate, self.client_burst, clock=self._clock
            )
            self._clients[client] = bucket
        return bucket

    def check(self, client: str) -> RateDecision:
        """Admit or reject one request from *client*."""
        client_bucket = self._client_bucket(client)
        if not client_bucket.try_acquire():
            self.limited += 1
            return RateDecision(
                allowed=False,
                retry_after=client_bucket.retry_after(),
                limited_by="client",
            )
        if not self.global_bucket.try_acquire():
            # Refund the client token: the request never ran, and a
            # globally-rejected client shouldn't also burn its own budget.
            client_bucket._tokens = min(
                client_bucket.burst, client_bucket._tokens + 1.0
            )
            self.limited += 1
            return RateDecision(
                allowed=False,
                retry_after=self.global_bucket.retry_after(),
                limited_by="global",
            )
        self.allowed += 1
        return _ALLOWED

    def tracked_clients(self) -> int:
        return len(self._clients)
