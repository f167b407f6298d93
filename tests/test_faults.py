import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from isocg import (
    BIT_DOMAINS,
    FaultInjector,
    FaultPolicy,
    bits_to_float,
    events_to_jsonl,
    flip_bits,
    float_to_bits,
)


class TestFlipBits:
    def test_sign_bit(self):
        assert flip_bits(1.0, [63]) == -1.0

    def test_exponent_lsb(self):
        # 0x3FF0... ^ (1 << 52) = 0x3FE0... which is 0.5
        assert flip_bits(1.0, [52]) == 0.5

    def test_mantissa_lsb(self):
        assert flip_bits(1.0, [0]) == 1.0000000000000002

    def test_exhaustive_single_bit_sweep_of_one(self):
        base = oracles.pack_double(1.0)
        for k in range(64):
            expected_bits = base ^ (1 << k)
            got = flip_bits(1.0, [k])
            assert float_to_bits(got) == expected_bits

    def test_multi_bit(self):
        got = flip_bits(1.0, [0, 52, 63])
        expected = oracles.pack_double(1.0) ^ 1 ^ (1 << 52) ^ (1 << 63)
        assert float_to_bits(got) == expected

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            flip_bits(1.0, [3, 3])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            flip_bits(1.0, [64])

    @settings(max_examples=200, deadline=None)
    @given(
        value=st.floats(allow_nan=False, allow_infinity=False),
        positions=st.lists(st.integers(0, 63), min_size=1, max_size=6, unique=True),
    )
    def test_involution(self, value, positions):
        once = flip_bits(value, positions)
        twice = flip_bits(once, positions)
        assert float_to_bits(twice) == float_to_bits(value)

    def test_bits_roundtrip(self):
        for v in [0.0, -0.0, 1.5, -3.25, 1e-308, 1.7976931348623157e308]:
            assert bits_to_float(float_to_bits(v)) == v


class TestFaultPolicy:
    @pytest.mark.parametrize("rate", [-0.1, 1.1])
    def test_rate_range(self, rate):
        with pytest.raises(ValueError):
            FaultPolicy(rate=rate)

    def test_flips_positive(self):
        with pytest.raises(ValueError):
            FaultPolicy(rate=0.5, flips_per_event=0)

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            FaultPolicy(rate=0.5, bit_domain="nibble")

    def test_flips_exceed_domain(self):
        with pytest.raises(ValueError):
            FaultPolicy(rate=0.5, bit_domain="sign", flips_per_event=2)


class TestInjector:
    def test_rate_zero_is_identity(self, rng):
        inj = FaultInjector(FaultPolicy(rate=0.0, seed=1))
        for _ in range(50):
            v = rng.standard_normal(16)
            out, events = inj.inject(v)
            assert events == []
            assert np.array_equal(out, v)
        assert inj.call_index == 50

    def test_rate_one_sign_negates_one_element(self, rng):
        inj = FaultInjector(FaultPolicy(rate=1.0, bit_domain="sign", seed=2))
        for _ in range(20):
            v = rng.standard_normal(8) + 1.0
            out, events = inj.inject(v)
            assert len(events) == 1
            changed = np.nonzero(out != v)[0]
            assert changed.size == 1
            idx = changed[0]
            assert out[idx] == -v[idx]
            assert events[0].element_index == idx
            assert events[0].bit_positions == [63]

    def test_event_count_binomial(self):
        inj = FaultInjector(FaultPolicy(rate=0.25, seed=123))
        v = np.ones(4)
        fired = 0
        for _ in range(10_000):
            _, events = inj.inject(v)
            fired += len(events)
        sigma = math.sqrt(10_000 * 0.25 * 0.75)
        assert abs(fired - 2500) <= 3 * sigma

    @pytest.mark.parametrize("domain", sorted(BIT_DOMAINS))
    def test_events_stay_in_domain(self, domain, rng):
        flips = min(3, len(BIT_DOMAINS[domain]))
        inj = FaultInjector(FaultPolicy(rate=1.0, bit_domain=domain, flips_per_event=flips, seed=5))
        v = rng.standard_normal(16)
        for _ in range(200):
            _, events = inj.inject(v)
            for e in events:
                assert set(e.bit_positions) <= set(BIT_DOMAINS[domain])
                assert len(e.bit_positions) == flips

    def test_never_emits_nonfinite(self):
        # near the overflow edge, exponent flips frequently produce Inf
        inj = FaultInjector(FaultPolicy(rate=1.0, bit_domain="exponent", seed=7))
        v = np.full(8, 1.7976931348623157e308)
        for _ in range(300):
            out, _ = inj.inject(v)
            assert np.all(np.isfinite(out))

    def test_fallback_domain_when_redraws_cannot_help(self):
        # from 0.0, flipping all 11 exponent bits always lands on Inf, so the
        # injector must fall back to sign/mantissa flips
        inj = FaultInjector(FaultPolicy(rate=1.0, bit_domain="exponent", flips_per_event=11, seed=9))
        out, events = inj.inject(np.zeros(4))
        assert np.all(np.isfinite(out))
        assert set(events[0].bit_positions) <= set(BIT_DOMAINS["sign_mantissa"])

    def test_allow_nonfinite_passthrough(self):
        inj = FaultInjector(
            FaultPolicy(rate=1.0, bit_domain="exponent", flips_per_event=11, seed=9,
                        allow_nonfinite=True)
        )
        out, events = inj.inject(np.zeros(4))
        assert not np.all(np.isfinite(out))
        assert len(events) == 1

    def test_deterministic_replay(self, rng):
        v = rng.standard_normal(32)
        runs = []
        for _ in range(2):
            inj = FaultInjector(FaultPolicy(rate=0.5, bit_domain="any", flips_per_event=2, seed=42))
            outs = [inj.inject(v) for _ in range(25)]
            runs.append(outs)
        for (out_a, ev_a), (out_b, ev_b) in zip(*runs):
            assert np.array_equal(out_a, out_b)
            assert ev_a == ev_b

    def test_event_records_patterns(self):
        inj = FaultInjector(FaultPolicy(rate=1.0, bit_domain="sign", seed=3))
        v = np.array([2.5, -4.0, 8.0])
        out, (event,) = inj.inject(v)
        assert event.before == float_to_bits(v[event.element_index])
        assert event.after == float_to_bits(out[event.element_index])
        assert event.call_index == 1
        assert event.iteration is None
        assert event.before_value == v[event.element_index]

    def test_algorithm_identifier(self):
        assert FaultInjector(FaultPolicy(rate=0.0)).algorithm == "pcg64"


class TestSerialization:
    def test_jsonl(self):
        inj = FaultInjector(FaultPolicy(rate=1.0, bit_domain="sign_mantissa", seed=11))
        events = []
        for _ in range(5):
            _, evs = inj.inject(np.ones(6))
            events.extend(evs)
        lines = events_to_jsonl(events).strip().split("\n")
        assert len(lines) == 5
        for line, event in zip(lines, events):
            doc = json.loads(line)
            assert doc["call_index"] == event.call_index
            assert doc["element_index"] == event.element_index
            assert doc["bit_positions"] == event.bit_positions
            assert int(doc["before"], 16) == event.before
            assert int(doc["after"], 16) == event.after


class TestStreamDigest:
    """Every draw of the injector, through its outputs and events, bit for bit."""

    # sha256 of ``_digest()``, recorded before the firing path was rewritten.
    PINNED = "9766bf5b5211048d617c44906475d13d7629007441088e70ee60531dccec00ae"

    @staticmethod
    def _vector(n):
        # Exact arithmetic, so the digest does not depend on a numpy generator;
        # the special values put zeros, a subnormal and values near the
        # overflow edge under the flips.
        v = (np.arange(n) - n // 3) * 0.75
        specials = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1e300, 2.0**-1022]
        v[: min(n, len(specials))] = specials[: min(n, len(specials))]
        return v[::-1].copy()

    @staticmethod
    def _digest():
        h = hashlib.sha256()

        def feed(label, policy, v, calls):
            h.update(label.encode())
            inj = FaultInjector(policy)
            for _ in range(calls):
                # Feeding each output back in lets faults accumulate, so later
                # draws see the values earlier ones made.
                v, events = inj.inject(v)
                h.update(v.tobytes())
                h.update(events_to_jsonl(events).encode())

        for domain in sorted(BIT_DOMAINS):
            for flips in (1, 2, 3):
                if flips > len(BIT_DOMAINS[domain]):
                    continue
                for allow in (False, True):
                    for n in (1, 7, 64):
                        for rate in (0.5, 1.0):
                            policy = FaultPolicy(rate=rate, flips_per_event=flips,
                                                 bit_domain=domain, seed=n + flips,
                                                 allow_nonfinite=allow)
                            label = f"{domain} x{flips} allow={allow} n={n} rate={rate}"
                            feed(label, policy, TestStreamDigest._vector(n), 25)
        # Exponent flips at the overflow edge redraw; eleven exponent flips of
        # zero always overflow and fall back to sign/mantissa flips.
        for flips in (1, 2):
            feed(f"redraw x{flips}", FaultPolicy(rate=1.0, flips_per_event=flips,
                                                 bit_domain="exponent", seed=7),
                 np.full(8, 1.7976931348623157e308), 40)
        for allow in (False, True):
            feed(f"fallback allow={allow}", FaultPolicy(rate=1.0, flips_per_event=11,
                                                        bit_domain="exponent", seed=9,
                                                        allow_nonfinite=allow),
                 np.zeros(4), 5)
        return h.hexdigest()

    def test_digest_matches_pinned(self):
        assert self._digest() == self.PINNED


class TestRawStreamEquivalence:
    """The injector's draws from raw PCG64 outputs equal numpy's ``Generator`` methods.

    Each injector runs beside ``oracles.ReferenceInjector``, which draws with
    ``random()``, ``integers`` and ``choice``, and the first call whose output
    bits or events differ is named.
    """

    SPECIALS = [0.0, -0.0, 5e-324, 2.0**-1022, 1.7976931348623157e308, -1e300]

    @staticmethod
    def _compare(label, inj, ref, v, calls):
        """Run ``inj`` and ``ref`` side by side and return the injector's events."""
        got = want = v
        events = []
        for call in range(1, calls + 1):
            # Each output is fed back in, so later draws see earlier faults.
            got, got_events = inj.inject(got)
            want, want_events = ref.inject(want)
            assert got.tobytes() == want.tobytes(), f"{label}: output of call {call} differs"
            assert events_to_jsonl(got_events) == events_to_jsonl(want_events), (
                f"{label}: events of call {call} differ")
            events += got_events
        return events

    def test_every_domain_flip_count_rate_and_size(self):
        r = random.Random(0)
        fallbacks = 0
        for domain in sorted(BIT_DOMAINS):
            for flips in range(1, min(12, len(BIT_DOMAINS[domain])) + 1):
                for allow in (False, True):
                    for rate in (0.0, 0.05, 0.5, 1.0):
                        for n in (1, 2, 7, 64, 513):
                            policy = FaultPolicy(rate=rate, flips_per_event=flips,
                                                 bit_domain=domain, seed=r.randrange(2**32),
                                                 allow_nonfinite=allow)
                            v = np.array([r.choice(self.SPECIALS) if r.random() < 0.5
                                          else r.gauss(0.0, 1e3) for _ in range(n)])
                            label = f"{domain} x{flips} allow={allow} rate={rate} n={n}"
                            events = self._compare(label, FaultInjector(policy),
                                                   oracles.ReferenceInjector(policy), v,
                                                   r.randint(1, 6))
                            fallbacks += sum(e.bit_positions[0] < 52 for e in events
                                             if domain == "exponent")
        # Eleven exponent flips of a zero always overflow and fall back to sign/mantissa.
        assert fallbacks > 0

    def test_long_run_crosses_refills_with_a_kept_half(self):
        class Recording:
            """PCG64 that counts block refills and those made while a 32-bit half is kept."""

            def __init__(self, inj):
                self.inj, self.bitgen, self.refills, self.kept = inj, inj._bitgen, 0, 0

            def random_raw(self, size):
                self.refills += 1
                self.kept += self.inj._half is not None
                return self.bitgen.random_raw(size)

        # One element takes no draw, so an event takes three 32-bit halves
        # (two picks and a swap) and every other call leaves a half kept.
        policy = FaultPolicy(rate=1.0, flips_per_event=2, bit_domain="exponent", seed=3)
        inj = FaultInjector(policy)
        inj._bitgen = recording = Recording(inj)
        events = self._compare("exponent x2", inj, oracles.ReferenceInjector(policy),
                               np.array([1.5]), 1200)
        assert len(events) == 1200
        assert recording.refills >= 5 and recording.kept >= 1

    def test_bounded_draw_rejects_as_numpy_does(self):
        # A solve's counts are far too small for Lemire's rejection to fire;
        # near 2**31 about half the 32-bit draws are rejected.
        r = random.Random(0)
        inj = FaultInjector(FaultPolicy(rate=0.5, seed=5))
        rng = np.random.default_rng(5)
        for step in range(2000):
            n = r.choice([1, 3, 2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 1])
            assert inj._below(n) == int(rng.integers(0, n)), f"draw {step} in [0, {n})"
            if step % 3 == 0:
                assert (inj._raw() >> 11) * 2.0**-53 == rng.random()


class TestOneDrawEquivalence:
    """One bounded draw from [0, k) is the same via ``integers`` and ``choice``.

    The reference injector, ``oracles.ReferenceInjector``, draws one flip
    position with ``rng.integers(0, k)`` and several with ``choice``, so its
    one-flip stream must not depend on which of the two drew it.  This holds
    them to the same value and the same generator state, interleaved with the
    reference's other draws; a numpy release that breaks the equivalence
    fails here.
    """

    @pytest.mark.parametrize("seed", range(40))
    def test_integers_matches_choice_of_one(self, seed):
        ks = [1, 2, 11, 52, 53, 64, 512, 4096, 2**31 - 1]
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        for step in range(60):
            k = ks[step % len(ks)]
            assert a.random() == b.random()
            assert a.integers(0, 64) == b.integers(0, 64)
            assert int(a.integers(0, k)) == int(b.choice(k, size=1, replace=False)[0])
            if step % 7 == 0:
                assert np.array_equal(a.choice(64, size=2, replace=False),
                                      b.choice(64, size=2, replace=False))
        assert a.bit_generator.state == b.bit_generator.state
