"""Hardware descriptions, measured operating points, and first-order models.

A :class:`SampleSet` couples static machine specs (cores, frequency range,
last-level cache, stream bandwidth) with measured or derived performance
and power points.  On top of that sit the small analytical models used
throughout: the memory-bound roofline bound, an ordinary-least-squares
decomposition of power into static and per-core parts, frequency-scaling
factors, and on-chip problem sizing against the LLC.

On-disk format: a directory holding ``machines.ini`` and ``samples.csv``.
The dataclass fields are the schema: each ``machines.ini`` section is one
machine, named by the section, with the other :class:`MachineSpec` fields
as keys, and the ``samples.csv`` header is the :class:`PerfSample` fields.
Bandwidth is in GB/s (10**9 bytes per second); LLC sizes are exact byte
counts (binary mebibytes in the bundled data, since an n x n double matrix
fills the cache when 8 n^2 equals the byte count).
"""

import configparser
import csv
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from .errors import InsufficientDataError, SampleSetError, UnknownMachineError

__all__ = list(_EXPORTS["machine"])

# Double-precision gemv streams 8 bytes of matrix per multiply-add pair.
DOUBLE_GEMV_INTENSITY = 0.25

PROBLEM_CLASSES = ("on_chip", "off_chip")
PROVENANCES = ("paper", "derived", "user")

MACHINES_FILENAME = "machines.ini"
SAMPLES_FILENAME = "samples.csv"

DATA_DIR_ENV = "ISOCG_DATA_DIR"


@dataclass(frozen=True)
class MachineSpec:
    """Static description of one CPU socket or cluster."""

    name: str
    cores_per_unit: int
    freq_min_ghz: float
    freq_max_ghz: float
    llc_bytes: int
    stream_bandwidth_gbs: float

    def __post_init__(self) -> None:
        if self.cores_per_unit < 1:
            raise ValueError("cores_per_unit must be >= 1")
        if not all(map(math.isfinite, (self.freq_min_ghz, self.freq_max_ghz, self.stream_bandwidth_gbs))):
            raise ValueError("frequencies and stream_bandwidth_gbs must be finite")
        if self.freq_min_ghz <= 0 or self.freq_max_ghz <= 0:
            raise ValueError("frequencies must be positive")
        if self.freq_min_ghz > self.freq_max_ghz:
            raise ValueError("freq_min_ghz exceeds freq_max_ghz")
        if not 0 < self.llc_bytes <= float(np.finfo(np.float64).max):
            raise ValueError("llc_bytes must be positive and within the float64 range")
        if self.stream_bandwidth_gbs <= 0:
            raise ValueError("stream_bandwidth_gbs must be positive")


@dataclass(frozen=True)
class PerfSample:
    """One measured or derived (GFLOPS, W) operating point."""

    machine: str
    active_cores: int
    freq_ghz: float
    problem_class: str
    gflops: float
    watts: float
    provenance: str = "user"

    def __post_init__(self) -> None:
        if self.problem_class not in PROBLEM_CLASSES:
            raise ValueError(
                f"problem_class must be one of {PROBLEM_CLASSES}, got {self.problem_class!r}"
            )
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")
        if not all(map(math.isfinite, (self.freq_ghz, self.gflops, self.watts))):
            raise ValueError(f"{self.key()}: freq_ghz, gflops and watts must be finite")
        if self.gflops <= 0 or self.watts <= 0:
            raise ValueError(f"{self.key()}: gflops and watts must be positive")
        if self.active_cores < 1:
            raise ValueError(f"{self.key()}: active_cores must be >= 1")

    def key(self) -> tuple[str, int, float, str]:
        return (self.machine, self.active_cores, self.freq_ghz, self.problem_class)


SAMPLES_HEADER = [f.name for f in fields(PerfSample)]


class SampleSet:
    """Machine specs plus uniquely-keyed performance samples."""

    def __init__(self) -> None:
        self.specs: dict[str, MachineSpec] = {}
        self._samples: dict[tuple, PerfSample] = {}

    @property
    def samples(self) -> list[PerfSample]:
        return list(self._samples.values())

    def add_spec(self, spec: MachineSpec) -> None:
        if spec.name in self.specs:
            raise SampleSetError(f"duplicate machine spec {spec.name!r}")
        self.specs[spec.name] = spec

    def add_sample(self, sample: PerfSample) -> None:
        if sample.machine not in self.specs:
            raise UnknownMachineError(
                f"sample references unknown machine {sample.machine!r}",
                available=sorted(self.specs),
            )
        if sample.key() in self._samples:
            raise SampleSetError(f"duplicate sample key {sample.key()}")
        self._samples[sample.key()] = sample

    def spec(self, name: str) -> MachineSpec:
        try:
            return self.specs[name]
        except KeyError:
            raise UnknownMachineError(
                f"unknown machine {name!r}", available=sorted(self.specs)
            ) from None

    def sample(
        self, machine: str, active_cores: int, freq_ghz: float, problem_class: str = "on_chip"
    ) -> PerfSample:
        key = (machine, active_cores, freq_ghz, problem_class)
        try:
            return self._samples[key]
        except KeyError:
            available = [
                f"{m}:{c}:{f}:{p}" for (m, c, f, p) in sorted(self._samples)
            ]
            raise UnknownMachineError(
                f"no sample for {machine}:{active_cores}:{freq_ghz}:{problem_class}",
                available=available,
            ) from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self.specs == other.specs and self._samples == other._samples


def roofline_gflops(spec: MachineSpec, arithmetic_intensity: float = DOUBLE_GEMV_INTENSITY) -> float:
    """Memory-bound roofline: stream bandwidth times arithmetic intensity.

    No compute ceiling is modelled; the kernels of interest are firmly
    bandwidth limited.
    """
    if arithmetic_intensity <= 0:
        raise ValueError(f"arithmetic intensity must be > 0, got {arithmetic_intensity}")
    return spec.stream_bandwidth_gbs * arithmetic_intensity


class StaticPowerFit(NamedTuple):
    intercept_watts: float   # static power: draw extrapolated to zero active cores
    watts_per_core: float
    r_squared: float


def static_power_fit(samples) -> StaticPowerFit:
    """OLS of watts against active cores for one machine at one frequency.

    The intercept is read as static power.  Requires at least two distinct
    core counts; mixing machines, frequencies or problem classes is
    rejected.
    """
    pts = list(samples)
    if len({(s.machine, s.freq_ghz, s.problem_class) for s in pts} or {None}) > 1:
        raise ValueError("samples must share machine, frequency and problem class")
    cores = np.array([s.active_cores for s in pts], dtype=float)
    watts = np.array([s.watts for s in pts], dtype=float)
    if len(set(cores.tolist())) < 2:
        raise InsufficientDataError(
            f"need samples at >= 2 distinct core counts, got {len(set(cores.tolist()))}"
        )
    slope, intercept = np.polyfit(cores, watts, 1)
    predicted = intercept + slope * cores
    ss_res = float(np.sum((watts - predicted) ** 2))
    ss_tot = float(np.sum((watts - watts.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return StaticPowerFit(float(intercept), float(slope), r_squared)


class ScalingFactors(NamedTuple):
    perf_factor: float
    power_factor: float
    freq_factor: float


def scaling_factors(low: PerfSample, high: PerfSample) -> ScalingFactors:
    """high/low ratios of GFLOPS, watts and frequency between two points."""
    if (low.machine, low.active_cores, low.problem_class) != (
        high.machine, high.active_cores, high.problem_class
    ):
        raise ValueError(
            "scaling_factors requires matching machine, cores and problem class: "
            f"{low.key()} vs {high.key()}"
        )
    return ScalingFactors(
        perf_factor=high.gflops / low.gflops,
        power_factor=high.watts / low.watts,
        freq_factor=high.freq_ghz / low.freq_ghz,
    )


def gflops_per_watt(sample: PerfSample) -> float:
    return sample.gflops / sample.watts


def max_onchip_n(llc_bytes: int) -> int:
    """Largest n such that an n x n double matrix fits in the cache."""
    if llc_bytes < 8:
        raise ValueError(f"llc_bytes must be >= 8, got {llc_bytes}")
    return math.isqrt(int(llc_bytes) // 8)


# ---------------------------------------------------------------------------
# Files: each dataclass field is read and written as its declared type, which
# is a class because this module does not postpone annotations.


def _record(cls, texts: dict[str, str]):
    """Build the dataclass ``cls`` from ``{field: text}``; every field is required."""
    values = {}
    for f in fields(cls):
        if f.name not in texts:
            raise ValueError(f"missing {f.name}")
        try:
            values[f.name] = f.type(texts[f.name])
        except ValueError:
            raise ValueError(f"bad {f.name} {texts[f.name]!r}") from None
    return cls(**values)


def _texts(record) -> dict[str, str]:
    texts = {}
    for f in fields(record):
        value = getattr(record, f.name)
        # repr round-trips floats exactly, which keeps save/load an identity.
        texts[f.name] = repr(float(value)) if f.type is float else str(value)
    return texts


def _machines_parser() -> configparser.ConfigParser:
    # Values are read literally: no "%" interpolation.  No "[...]" header can
    # spell a newline, so a machine named DEFAULT is an ordinary section.
    return configparser.ConfigParser(interpolation=None, default_section="\n")


def _parse_machines(path: Path, sset: SampleSet) -> None:
    parser = _machines_parser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except configparser.MissingSectionHeaderError as exc:  # a ParsingError
        raise SampleSetError(
            f"{path}:{exc.lineno}: expected a [section] header, got {exc.line!r}"
        ) from exc
    except configparser.ParsingError as exc:
        # Its message puts each bad line on a line of its own; name the first.
        lineno, line = exc.errors[0]
        raise SampleSetError(f"{path}:{lineno}: expected key = value, got {line}") from exc
    except configparser.DuplicateSectionError as exc:
        raise SampleSetError(f"{path}:{exc.lineno}: duplicate machine {exc.section!r}") from exc
    except configparser.DuplicateOptionError as exc:
        raise SampleSetError(
            f"{path}:{exc.lineno}: duplicate key {exc.option!r} in machine {exc.section!r}"
        ) from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise SampleSetError(f"{path}: {exc}") from exc
    for name in parser.sections():
        try:
            # The section names the machine; a "name" key cannot override it.
            sset.add_spec(_record(MachineSpec, {**parser[name], "name": name}))
        except ValueError as exc:
            raise SampleSetError(f"{path}: machine {name!r}: {exc}") from exc


def _parse_samples(path: Path, sset: SampleSet) -> None:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise SampleSetError(f"{path}: {exc}") from exc
    if not rows:
        raise SampleSetError(f"{path}:1: empty samples file")
    if rows[0] != SAMPLES_HEADER:
        raise SampleSetError(f"{path}:1: bad header {rows[0]!r}, expected {SAMPLES_HEADER!r}")
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(SAMPLES_HEADER):
            raise SampleSetError(
                f"{path}:{lineno}: expected {len(SAMPLES_HEADER)} fields, got {len(row)}"
            )
        try:
            sset.add_sample(_record(PerfSample, dict(zip(SAMPLES_HEADER, row))))
        except ValueError as exc:  # SampleSetError included
            raise SampleSetError(f"{path}:{lineno}: {exc}") from exc


def load_sampleset(path) -> SampleSet:
    """Load a sample set from a directory or from a samples CSV path.

    Given a directory, ``machines.ini`` and ``samples.csv`` inside it are
    read; given a CSV path, the machine file is looked up next to it.
    """
    os.stat(path)  # a missing path is named as given, not by the machines.ini beside it
    samples_path = Path(path)
    if samples_path.is_dir():
        samples_path /= SAMPLES_FILENAME
    sset = SampleSet()
    _parse_machines(samples_path.parent / MACHINES_FILENAME, sset)
    _parse_samples(samples_path, sset)
    return sset


def save_sampleset(sset: SampleSet, directory) -> None:
    """Write ``machines.ini`` and ``samples.csv`` in normalized form.

    Machines are sorted by name; samples keep their insertion order.
    Saving a loaded set reproduces the saved bytes.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    parser = _machines_parser()
    for name in sorted(sset.specs):
        parser[name] = {k: v for k, v in _texts(sset.specs[name]).items() if k != "name"}
    with open(out / MACHINES_FILENAME, "w", encoding="utf-8") as handle:
        parser.write(handle)
    with open(out / SAMPLES_FILENAME, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, SAMPLES_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(map(_texts, sset.samples))


def default_data_dir() -> Path:
    """Bundled reference data directory, overridable via ISOCG_DATA_DIR."""
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def bundled_sampleset() -> SampleSet:
    return load_sampleset(default_data_dir())
