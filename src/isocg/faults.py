"""Deterministic bit-flip injection for silent-data-corruption studies.

Faults are modelled per matrix-vector call: with probability ``rate`` one
output element gets ``flips_per_event`` random bits XOR-flipped inside a
chosen region of the IEEE-754 double layout.  By default results that
would become NaN or +/-Inf are redrawn, keeping the corruption silent.

The raw 64-bit outputs of PCG64 fix every decision, drawn as numpy 2.x's
``Generator`` draws them.  Each call takes one raw output for the Bernoulli
test, whose top 53 bits scaled by 2**-53 are ``random()``.  A fault then
draws the element, ``integers(0, n)``, by Lemire's method on 32-bit halves
(the low half of a raw output, then its kept high half), and its bit
positions from the domain's k bits by ``choice(k, flips, replace=False)``:
Floyd's sampling, then a shuffle of the picks.  A result that is not
finite, unless allowed, is redrawn from the same domain up to
``_MAX_REDRAWS`` times and then replaced by flips from the sign/mantissa
domain.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector

__all__ = [
    "BIT_DOMAINS",
    "FaultPolicy",
    "FaultEvent",
    "FaultInjector",
    "float_to_bits",
    "bits_to_float",
    "flip_bits",
    "events_to_jsonl",
]

# IEEE-754 binary64 layout: bit 63 sign, bits 62..52 exponent, bits 51..0 mantissa.
SIGN_BIT = 63
EXPONENT_BITS = tuple(range(52, 63))
MANTISSA_BITS = tuple(range(52))

BIT_DOMAINS: dict[str, tuple[int, ...]] = {
    "sign": (SIGN_BIT,),
    "mantissa": MANTISSA_BITS,
    "sign_mantissa": MANTISSA_BITS + (SIGN_BIT,),
    "exponent": EXPONENT_BITS,
    "any": tuple(range(64)),
}

# Redraw budget before falling back to the sign/mantissa domain, which can
# never turn a finite value non-finite.
_MAX_REDRAWS = 32

# Raw PCG64 outputs read per refill, and the scale of numpy's 53-bit uniform.
_RAW_BLOCK = 256
_2_POW_M53 = 2.0**-53


def float_to_bits(value: float) -> int:
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return bits


def bits_to_float(bits: int) -> float:
    (value,) = struct.unpack("<d", struct.pack("<Q", bits))
    return value


def _xor_bits(bits: int, positions) -> int:
    for p in positions:
        bits ^= 1 << p
    return bits


def flip_bits(value: float, positions) -> float:
    """XOR the 64-bit pattern of ``value`` at the given bit positions."""
    pos = list(positions)
    if len(set(pos)) != len(pos):
        raise ValueError(f"bit positions must be distinct, got {pos}")
    for p in pos:
        if not 0 <= p <= 63:
            raise ValueError(f"bit position out of range 0..63: {p}")
    return bits_to_float(_xor_bits(float_to_bits(value), pos))


@dataclass
class FaultPolicy:
    """Parameters of the per-call corruption model.

    rate: probability that a given injectable call suffers a fault event.
    flips_per_event: distinct bits flipped in the affected element.
    bit_domain: one of ``BIT_DOMAINS`` keys.
    seed: RNG seed; the stream fully determines all injection decisions.
    allow_nonfinite: permit NaN/Inf results instead of redrawing.
    """

    rate: float
    flips_per_event: int = 1
    bit_domain: str = "sign_mantissa"
    seed: int = 0
    allow_nonfinite: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate}")
        if self.flips_per_event < 1:
            raise ValueError(f"flips_per_event must be >= 1, got {self.flips_per_event}")
        if self.bit_domain not in BIT_DOMAINS:
            raise ValueError(
                f"unknown bit domain {self.bit_domain!r}; "
                f"choose from {sorted(BIT_DOMAINS)}"
            )
        if self.flips_per_event > len(BIT_DOMAINS[self.bit_domain]):
            raise ValueError(
                f"flips_per_event={self.flips_per_event} exceeds the "
                f"{len(BIT_DOMAINS[self.bit_domain])} bits of domain {self.bit_domain!r}"
            )


@dataclass
class FaultEvent:
    """Record of one injected corruption, replayable from its bit patterns."""

    call_index: int
    element_index: int
    bit_positions: list[int]
    before: int
    after: int
    iteration: int | None = None

    @property
    def before_value(self) -> float:
        return bits_to_float(self.before)

    @property
    def after_value(self) -> float:
        return bits_to_float(self.after)

    def to_dict(self) -> dict:
        return {
            "call_index": self.call_index,
            "element_index": self.element_index,
            "bit_positions": list(self.bit_positions),
            "before": f"0x{self.before:016x}",
            "after": f"0x{self.after:016x}",
            "before_value": self.before_value,
            "after_value": self.after_value,
            "iteration": self.iteration,
        }


def events_to_jsonl(events) -> str:
    """Serialize fault events as JSON lines for post-mortem analysis."""
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in events)


class FaultInjector:
    """Stateful, seedable injector; one instance per solve.

    The RNG is numpy's PCG64 (named by :attr:`algorithm` so reports can
    record how to replay a run).  Its raw outputs are read ahead,
    ``_RAW_BLOCK`` at a time, so the bit generator's state runs up to a block
    ahead of the draws made.  Every call consumes one raw output for the rate
    test, whether or not a fault fires.
    """

    algorithm = "pcg64"

    def __init__(self, policy: FaultPolicy):
        self.policy = policy
        self._bitgen = np.random.PCG64(policy.seed)
        self._block = iter(())
        # High half of the last raw output split into 32-bit draws, kept for
        # the next one as PCG64's own ``has_uint32`` buffer keeps it.
        self._half: int | None = None
        self.call_index = 0

    def _raw(self) -> int:
        try:
            return next(self._block)
        except StopIteration:
            self._block = iter(self._bitgen.random_raw(_RAW_BLOCK).tolist())
            return next(self._block)

    def _below(self, n: int) -> int:
        """``Generator.integers(0, n)`` for 1 <= n < 2**32: Lemire's method on 32-bit halves.

        Larger counts take other numpy branches; no solve reaches them (its A
        would need 2**67 bytes)."""
        if n == 1:
            return 0
        while True:
            half, self._half = self._half, None
            if half is None:
                raw = self._raw()
                half, self._half = raw & 0xFFFFFFFF, raw >> 32
            m = half * n
            # Reject a low word below (2**32 - n) % n, which is less than n.
            if m & 0xFFFFFFFF >= n or m & 0xFFFFFFFF >= (0x100000000 - n) % n:
                return m >> 32

    def _draw_positions(self, domain: tuple[int, ...], count: int) -> list[int]:
        k = len(domain)
        if count == 1:
            # Floyd's sampling below with one pick is this single draw.
            return [domain[self._below(k)]]
        # ``Generator.choice(k, count, replace=False)``: Floyd's sampling, then
        # a Fisher-Yates shuffle of the picks.
        picks: list[int] = []
        for j in range(k - count, k):
            v = self._below(j + 1)
            picks.append(j if v in picks else v)
        for i in range(count - 1, 0, -1):
            j = self._below(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return [domain[i] for i in picks]

    def inject(self, v) -> tuple[np.ndarray, list[FaultEvent]]:
        """Return a possibly-corrupted copy of ``v`` and the events applied."""
        vec = as_vector(v)
        self.call_index += 1
        policy = self.policy
        # numpy's ``random()``: the top 53 bits of a raw output, scaled to [0, 1).
        if (self._raw() >> 11) * _2_POW_M53 >= policy.rate:
            return vec, []

        out = vec.copy()
        idx = self._below(out.size)
        before = float_to_bits(out[idx])
        domain = BIT_DOMAINS[policy.bit_domain]
        count = policy.flips_per_event
        # A draw, up to _MAX_REDRAWS redraws, and a last draw from sign/mantissa.
        for attempt in range(_MAX_REDRAWS + 2):
            if attempt == _MAX_REDRAWS + 1:
                domain = BIT_DOMAINS["sign_mantissa"]
                count = min(count, len(domain))
            positions = self._draw_positions(domain, count)
            after = _xor_bits(before, positions)
            value = bits_to_float(after)
            if policy.allow_nonfinite or math.isfinite(value):
                break

        out[idx] = value
        return out, [FaultEvent(self.call_index, idx, sorted(positions), before, after)]
