"""Iso-metric matching, hybrid composition, and energy-to-solution curves.

The questions answered here: how many clusters of one machine match a
reference machine's throughput (iso-performance), power draw (iso-power),
or aggregate last-level cache (iso-capacity); what a hybrid of one
reliable cluster plus n unreliable clusters delivers; and at what
convergence degradation the hybrid stops being cheaper in Joules.

The hybrid model is time-weighted: the reliable cluster runs a share
``alpha`` of the time (a typed alpha, such as the paper's 0.1, is read so),
the n unreliable clusters run the rest, and an idle cluster draws nothing:

    G(n) = alpha * G_rel + (1 - alpha) * n * G_unrel
    P(n) = alpha * P_rel + (1 - alpha) * n * P_unrel

Both are affine in n, so every matching query inverts in closed form.
At alpha = 0 the model is the plain query, n clusters alone matching the
reference; :func:`match` answers both through :func:`solve_hybrid_for_mode`,
and the plain answer is the closed-form ratio.

A figure made from operating points can over- or underflow; the one rule is
that it must lie in (0, inf) where made, or the query raises :class:`InfeasibleError`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from . import _EXPORTS
from .errors import InfeasibleError, NoBreakEvenError
from .machine import PerfSample

__all__ = list(_EXPORTS["iso"])

ISO_PERFORMANCE = "iso_performance"
ISO_POWER = "iso_power"
ISO_CAPACITY = "iso_capacity"
_MODES = (ISO_PERFORMANCE, ISO_POWER, ISO_CAPACITY)
# The figure each affine query inverts, with the verb, unit and goal its message names.
_AFFINE = {ISO_PERFORMANCE: ("gflops", "delivers", "GFLOPS", "target"),
           ISO_POWER: ("watts", "draws", "W", "budget")}


def _positive(name: str, value: float) -> float:
    if not 0.0 < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return float(value)


def iso_capacity_clusters(ref_llc_bytes: float, target_llc_bytes: float) -> float:
    """Cluster count matching the reference last-level-cache capacity."""
    return _positive("ref_llc_bytes", ref_llc_bytes) / _positive(
        "target_llc_bytes", target_llc_bytes
    )


@dataclass
class HybridSystem:
    """One reliable cluster plus ``n_unreliable`` unreliable clusters.

    ``reliable``/``unreliable`` are per-cluster operating points; the
    reliable side runs the share ``ss_fraction`` of the time, in [0, 1); at
    0 the unreliable clusters do all the work.
    Fractional cluster counts are first-class; rounding is an explicit,
    separate step.
    """

    reliable: PerfSample
    unreliable: PerfSample
    n_unreliable: float
    ss_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.ss_fraction < 1.0:
            raise ValueError(f"ss_fraction must lie in [0, 1), got {self.ss_fraction}")
        _positive("n_unreliable", self.n_unreliable)

    def with_clusters(self, n_unreliable: float) -> "HybridSystem":
        return HybridSystem(self.reliable, self.unreliable, n_unreliable, self.ss_fraction)


def hybrid_gflops(h: HybridSystem) -> float:
    alpha = h.ss_fraction
    g_unrel = h.n_unreliable * h.unreliable.gflops
    return alpha * h.reliable.gflops + (1.0 - alpha) * g_unrel


def hybrid_watts(h: HybridSystem) -> float:
    alpha = h.ss_fraction
    return alpha * h.reliable.watts + (1.0 - alpha) * h.n_unreliable * h.unreliable.watts


def _in_range(what: str, value: float, unit: str = "") -> float:
    if not 0.0 < value < math.inf:  # NaN fails too
        raise InfeasibleError(f"{what} {value}{unit} is outside the float64 range")
    return value


def _achieved(what: str, h: HybridSystem) -> tuple[float, float]:
    # Every caller divides by both; an overflow is left to the figure it makes.
    g, p = hybrid_gflops(h), hybrid_watts(h)
    if g == 0.0 or p == 0.0:
        raise InfeasibleError(f"{what}: achieved {g} GFLOPS at {p} W is outside the float64 range")
    return g, p


@dataclass
class IsoReport:
    """Outcome of one matching query, with the ratios the analyses quote; the CLI formats it."""

    mode: str
    cluster_count: float
    achieved_gflops: float | None = None
    achieved_watts: float | None = None
    ratios: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in {**vars(self), **self.ratios}.items():
            if isinstance(value, float):
                _in_range(f"{self.mode}: {name}", value)


def solve_hybrid_for_mode(
    mode: str,
    template: HybridSystem,
    ref: PerfSample | None = None,
    *,
    ref_llc_bytes: float | None = None,
    unreliable_llc_bytes: float | None = None,
) -> IsoReport:
    """Solve for the unreliable cluster count that meets a matching target.

    iso_performance and iso_power invert the affine hybrid model against
    ``ref``'s GFLOPS or watts, n = (target - alpha * rel) / ((1 - alpha) * unrel);
    iso_capacity divides the LLC byte counts.  ``template.n_unreliable`` is
    ignored.  Raises :class:`InfeasibleError` when the reliable share alone
    already meets the target or a figure leaves the float64 range.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    ref = ref if ref is not None else template.reliable
    alpha = template.ss_fraction

    if mode == ISO_CAPACITY:
        if ref_llc_bytes is None or unreliable_llc_bytes is None:
            raise ValueError("iso_capacity requires ref_llc_bytes and unreliable_llc_bytes")
        n = iso_capacity_clusters(ref_llc_bytes, unreliable_llc_bytes)
    else:
        figure, verb, unit, goal = _AFFINE[mode]
        rel, goal_value = getattr(template.reliable, figure), getattr(ref, figure)
        surplus = goal_value - alpha * rel
        if surplus <= 0:
            raise InfeasibleError(
                f"reliable share alone {verb} {alpha * rel} {unit}, "
                f"already at or above the {goal_value} {unit} {goal}"
            )
        per_cluster = (1.0 - alpha) * getattr(template.unreliable, figure)
        n = surplus / per_cluster if per_cluster else math.inf

    g, p = _achieved(mode, template.with_clusters(_in_range(f"{mode}: cluster_count", n)))
    ratios = {
        "perf_vs_ref": g / ref.gflops,
        "power_vs_ref": p / ref.watts,
        "ref_perf_vs_target": ref.gflops / g,
        "ref_power_vs_target": ref.watts / p,
        "efficiency_vs_ref": (g / p) / _in_range(f"{mode}: ref GFLOPS/W", ref.gflops / ref.watts),
    }
    return IsoReport(mode, n, g, p, ratios)


def match(
    mode: str,
    ref: PerfSample | None,
    target: PerfSample | None,
    *,
    ref_llc_bytes: float,
    target_llc_bytes: float,
    ss_fraction: float = 0.0,
) -> IsoReport:
    """How many ``target`` clusters match ``ref`` in ``mode``.

    With ``ss_fraction`` alpha > 0 the clusters run beside a reliable
    cluster at ``ref``'s operating point that runs alpha of the time; at 0
    they stand alone.  Both are :func:`solve_hybrid_for_mode` on a
    :class:`HybridSystem` of ``ref`` and ``target``.  Only the plain
    iso_capacity query may lack an operating point (``None``): it then
    returns the LLC ratio, with achieved figures when ``target`` is known
    and no ratios.  Any other query without both raises ``ValueError``.
    """
    if ref is not None and target is not None:
        return solve_hybrid_for_mode(
            mode, HybridSystem(ref, target, 1.0, ss_fraction), ref,
            ref_llc_bytes=ref_llc_bytes, unreliable_llc_bytes=target_llc_bytes,
        )
    if mode != ISO_CAPACITY or ss_fraction != 0.0:
        raise ValueError(
            f"{mode} at ss_fraction {ss_fraction} needs the operating points of ref and target"
        )
    count = iso_capacity_clusters(ref_llc_bytes, target_llc_bytes)
    if target is None:
        return IsoReport(mode, count)
    return IsoReport(mode, count, count * target.gflops, count * target.watts)


@dataclass(frozen=True)
class EtsPoint:
    """Energy to solution at one degradation level."""

    degradation: float  # fraction of extra iterations, >= 0
    ets_joules: float


def _energy(flops_total: float, gflops: float, watts: float) -> float:
    return _in_range("energy to solution", flops_total / (gflops * 1.0e9) * watts, " J")


def ets(flops_total: float, gflops: float, watts: float) -> float:
    """Joules to execute ``flops_total`` at the given rate and power.

    Raises ``ValueError`` naming an argument outside (0, inf), and
    :class:`InfeasibleError` when the energy is not in (0, inf).
    """
    _positive("flops_total", flops_total)
    _positive("gflops", gflops)
    _positive("watts", watts)
    return _energy(flops_total, gflops, watts)


def ets_curve(
    ref: PerfSample,
    h: HybridSystem,
    degradations,
    flops_total: float,
) -> list[tuple[EtsPoint, EtsPoint]]:
    """Reference and hybrid energy-to-solution at each degradation level.

    The reference runs fault-free, so its energy is flat in d; the hybrid
    pays (1 + d) times the iterations at unchanged per-iteration cost.
    Raises ``ValueError`` for a negative or non-finite d, and :class:`InfeasibleError`
    when the hybrid's GFLOPS or W or an energy is not in (0, inf).
    """
    ref_ets = ets(flops_total, ref.gflops, ref.watts)
    base = _energy(flops_total, *_achieved("hybrid", h))  # not ets: a figure may overflow to inf
    points = []
    for d in degradations:
        if not 0.0 <= d < math.inf:  # NaN fails too
            raise ValueError(f"degradation must be finite and >= 0, got {d}")
        hybrid_ets = _in_range("energy to solution", base * (1.0 + d), " J")
        points.append((EtsPoint(d, ref_ets), EtsPoint(d, hybrid_ets)))
    return points


def breakeven_degradation(ref: PerfSample, h: HybridSystem) -> float:
    """Degradation at which the hybrid's energy equals the reference's.

    Solving ets_hybrid * (1 + d) = ets_ref gives d = (G_hybrid / G_ref) * (P_ref / P_hybrid) - 1.
    Raises :class:`NoBreakEvenError` when the hybrid is never cheaper (d < 0), and
    :class:`InfeasibleError` when the hybrid's GFLOPS or W underflows or d is infinite or NaN.
    """
    g_h, p_h = _achieved("hybrid", h)
    d = (g_h / ref.gflops) * (ref.watts / p_h) - 1.0
    if d < -1e-12:
        raise NoBreakEvenError(
            f"hybrid energy ({p_h / g_h:.4g} J/GFLOP) already exceeds "
            f"the reference ({ref.watts / ref.gflops:.4g} J/GFLOP)"
        )
    # Near-exact energy ties break even at zero; inf * 0.0 above makes a NaN, refused here.
    return 0.0 if d <= 0.0 else _in_range("hybrid: breakeven", d)


class EtsAnalysis(NamedTuple):
    """The matched hybrid, its break-even degradation and its energy-to-solution curve."""

    report: IsoReport
    breakeven: float | None  # None when the hybrid is never cheaper
    curve: list[tuple[EtsPoint, EtsPoint]]


def ets_analysis(mode: str, ref: PerfSample, target: PerfSample, percents: Sequence[float],
                 flops_total: float, *, ref_llc_bytes: float, target_llc_bytes: float,
                 ss_fraction: float) -> EtsAnalysis:
    """Energy to solution of ``ref`` and of the hybrid :func:`match` finds for it, at each
    degradation in ``percents`` (in percent) and at the break-even if not listed already."""
    report = match(mode, ref, target, ref_llc_bytes=ref_llc_bytes,
                   target_llc_bytes=target_llc_bytes, ss_fraction=ss_fraction)
    hybrid = HybridSystem(ref, target, report.cluster_count, ss_fraction)
    try:
        breakeven = breakeven_degradation(ref, hybrid)
    except NoBreakEvenError:
        breakeven = None
    # A positive break-even can overflow in percent, the unit the curve lists it in.
    if breakeven:
        _in_range(f"{mode}: breakeven_percent", 100.0 * breakeven)
    if breakeven is not None and not any(abs(p - 100.0 * breakeven) < 1e-9 for p in percents):
        percents = sorted([*percents, 100.0 * breakeven])
    curve = ets_curve(ref, hybrid, [p / 100.0 for p in percents], flops_total)
    return EtsAnalysis(report, breakeven, curve)
