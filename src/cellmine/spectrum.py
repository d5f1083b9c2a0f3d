"""Frequency-domain analysis of traffic vectors.

For a 4-week series of 10-minute slots the interesting DFT bins are the
week, day and half-day periodicities (k = 4, 28, 56 at N = 4032). Towers are
summarized by amplitude and phase at those three bins. The paper finds that
a 7-bin reconstruction (DC plus the three bins and their mirrors) keeps
almost all of the traffic energy; ``reconstruction_energy_ratio`` measures
the share it keeps.

Every quantity here reads one real FFT of the series: the one ``dft``
returns, or for the energy ratio, by Parseval, one of the series scaled by
``common.unit_scaled``, which the ratio does not depend on. A spectrum does
depend on scale, so ``dft`` rejects a series whose transform overflows. The
DFT of a real series has X[n - k] = conj(X[k]), so only bins 0..n//2 are
held; a bin above n/2 is the conjugate of its mirror below.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .common import (
    SLOTS_PER_WEEK,
    finite_entries,
    read_table,
    reject_bad,
    sorted_by_tower,
    unit_scaled,
    write_csv,
)

# A component with amplitude below this is treated as null: its phase is
# meaningless and reported as 0.
NULL_AMPLITUDE = 1e-12

FEATURES_HEADER = ["tower_id", "A4", "P4", "A28", "P28", "A56", "P56"]


class SpectrumError(ValueError):
    pass


@dataclass(slots=True)
class Spectrum:
    """DFT bins 0..n//2 of one real series of length ``n``, each a finite
    complex128; a bin that is not finite, or no number at all, raises
    ``SpectrumError`` naming it. The bins alone do not give ``n``: lengths 2m
    and 2m + 1 both have m + 1 of them."""

    coefficients: np.ndarray
    n: int

    def __post_init__(self) -> None:
        if self.n < 1 or np.shape(self.coefficients) != (self.n // 2 + 1,):
            raise SpectrumError(f"n = {self.n} with coefficients of shape {np.shape(self.coefficients)}:"
                                " a spectrum of n >= 1 values holds n//2 + 1 bins")
        self.coefficients, finite = finite_entries(self.coefficients, np.complex128)
        reject_bad(self.coefficients, finite, SpectrumError, "bin {}".format, "a finite coefficient")


class SpectralFeature(NamedTuple):
    """Amplitude/phase at the week, day and half-day bins for one tower.

    Phases are principal values in (-pi, pi]. A bin is null when its
    amplitude is below NULL_AMPLITUDE, and a null bin's phase is 0.
    """

    tower_id: str
    amp_week: float
    phase_week: float
    amp_day: float
    phase_day: float
    amp_half_day: float
    phase_half_day: float

    def as_array(self) -> np.ndarray:
        return np.array(self[1:], dtype=float)


def dft(x: Sequence[float] | np.ndarray) -> Spectrum:
    """Unnormalized forward DFT of a real series, bins 0..n//2 (real FFT).
    A series that is not a non-empty 1-D vector of finite values, or whose
    transform is not finite (a bin is up to n times the largest |x|), raises
    ``SpectrumError``."""
    x = _series(x)
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = np.fft.rfft(x)
    if not np.isfinite(coefficients).all():
        raise SpectrumError(
            f"dft of {x.size} values is not finite: the largest |value| is {np.abs(x).max()}"
        )
    return Spectrum(coefficients, int(x.size))


def _series(x: Sequence[float] | np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise SpectrumError("dft expects a non-empty 1-D real vector")
    reject_bad(x, np.isfinite(x), SpectrumError, "dft input value {}".format, "a finite value")
    return x


def principal_indices(n: int) -> tuple[int, int, int]:
    """Bin indices of the week / day / half-day periodicities for an
    ``n``-slot series of whole weeks (k = weeks, 7*weeks, 14*weeks)."""
    if n % SLOTS_PER_WEEK != 0 or n < SLOTS_PER_WEEK:
        raise SpectrumError(f"series length {n} is not a positive whole number of weeks")
    weeks = n // SLOTS_PER_WEEK
    return weeks, 7 * weeks, 14 * weeks


def _amp_phase(coef: complex) -> tuple[float, float]:
    amp = float(abs(coef))
    if amp < NULL_AMPLITUDE:
        return amp, 0.0
    phase = float(np.angle(coef))
    if phase <= -np.pi:  # principal range is (-pi, pi]
        phase = np.pi
    return amp, phase


def principal_components(s: Spectrum, tower_id: str) -> SpectralFeature:
    # amplitude and phase of the week, day and half-day bins, in that order
    amp_phase = (v for k in principal_indices(s.n) for v in _amp_phase(s.coefficients[k]))
    return SpectralFeature(tower_id, *amp_phase)


def reconstruction_energy_ratio(x: np.ndarray) -> float:
    """Fraction of the signal's energy retained by the 7-bin reconstruction:
    the inverse transform of DC, the three principal bins and their mirrors.

    By Parseval, a series' energy is the sum of |X_k|^2 over all n bins
    divided by n, so both energies come from one real FFT and no inverse
    transform is needed. Of the bins 0..n//2 it holds, each but DC and, for
    even n, bin n/2 stands for itself and its mirror. The series is first
    scaled by a power of two (``common.unit_scaled``), so the sums neither
    overflow nor underflow; a series of zeros keeps all of its (zero) energy
    and gives 1.0. A series that ``dft`` rejects raises ``SpectrumError``.
    """
    x = _series(x)
    coefficients = np.fft.rfft(unit_scaled(x)[0])
    coefficients[1 : (x.size + 1) // 2] *= np.sqrt(2.0)  # power of X_k and its mirror
    kept = coefficients[[0, *principal_indices(x.size)]]
    total = np.vdot(coefficients, coefficients).real
    return float(np.vdot(kept, kept).real / total) if total else 1.0


def amplitude_variance(
    spectra: Sequence[Spectrum],
) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Population variance of |X[k]| across towers for the bins 0..n//2 the
    spectra hold, plus the three bins of largest variance over
    1 <= k <= n/2 (DC is excluded). A bin above n/2 has the amplitude of its
    mirror below, so it would repeat that bin's variance."""
    if len(spectra) < 2:
        raise SpectrumError("amplitude variance needs at least 2 towers")
    n = spectra[0].n
    if any(s.n != n for s in spectra):
        raise SpectrumError("spectra have mixed lengths")
    if n // 2 < 3:
        raise SpectrumError(f"spectra of n = {n} hold {n // 2} bins above DC, not 3")
    variances = np.abs(np.stack([s.coefficients for s in spectra])).var(axis=0)
    order = np.argsort(variances[1:])[::-1][:3] + 1
    return variances, tuple(int(k) for k in order)


def write_spectral_features(path: str | Path, features: Sequence[SpectralFeature]) -> Path:
    rows = ((f.tower_id, *map(float, f[1:])) for f in sorted_by_tower(features, SpectrumError))
    return write_csv(path, FEATURES_HEADER, rows, SpectrumError)


def read_spectral_features(path: str | Path) -> list[SpectralFeature]:
    def feature(fields: list[str]) -> SpectralFeature:
        vals = [float(x) for x in fields[1:]]
        reject_bad(vals, ~np.isnan(vals), ValueError, lambda i: FEATURES_HEADER[1 + i], "a number")
        return SpectralFeature(fields[0], *vals)

    return read_table(path, FEATURES_HEADER, SpectrumError, "spectral features", feature)
