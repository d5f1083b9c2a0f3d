"""Frequency-domain analysis of traffic vectors.

For a 4-week series of 10-minute slots the interesting DFT bins are the
week, day and half-day periodicities (k = 4, 28, 56 at N = 4032). Towers are
summarized by amplitude and phase at those three bins, and a 7-bin
reconstruction (DC plus the three bins and their mirrors) captures almost all
of the traffic energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .common import SLOTS_PER_WEEK, read_csv, reject_nan, write_csv

# A component with amplitude below this is treated as null: its phase is
# meaningless and reported as 0 with the null flag set.
NULL_AMPLITUDE = 1e-12

FEATURES_HEADER = ["tower_id", "A4", "P4", "A28", "P28", "A56", "P56"]


class SpectrumError(ValueError):
    pass


@dataclass(slots=True)
class Spectrum:
    """Complex DFT coefficients of one real-valued series."""

    coefficients: np.ndarray
    n: int


@dataclass(frozen=True, slots=True)
class SpectralFeature:
    """Amplitude/phase at the week, day and half-day bins for one tower.

    Phases are principal values in (-pi, pi]. ``null_components`` marks bins
    whose amplitude was below NULL_AMPLITUDE (phase forced to 0).
    """

    tower_id: str
    amp_week: float
    phase_week: float
    amp_day: float
    phase_day: float
    amp_half_day: float
    phase_half_day: float
    null_components: tuple[bool, bool, bool] = (False, False, False)

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.amp_week,
                self.phase_week,
                self.amp_day,
                self.phase_day,
                self.amp_half_day,
                self.phase_half_day,
            ]
        )


def dft(x: Sequence[float] | np.ndarray) -> Spectrum:
    """Unnormalized forward DFT (FFT-backed)."""
    x = _series(x)
    return Spectrum(np.fft.fft(x), int(x.size))


def _series(x: Sequence[float] | np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise SpectrumError("dft expects a non-empty 1-D real vector")
    return x


def principal_indices(n: int) -> tuple[int, int, int]:
    """Bin indices of the week / day / half-day periodicities for an
    ``n``-slot series of whole weeks (k = weeks, 7*weeks, 14*weeks)."""
    if n % SLOTS_PER_WEEK != 0:
        raise SpectrumError(f"series length {n} is not a whole number of weeks")
    weeks = n // SLOTS_PER_WEEK
    return weeks, 7 * weeks, 14 * weeks


def _amp_phase(coef: complex) -> tuple[float, float, bool]:
    amp = float(abs(coef))
    if amp < NULL_AMPLITUDE:
        return amp, 0.0, True
    phase = float(np.angle(coef))
    if phase <= -np.pi:  # principal range is (-pi, pi]
        phase = np.pi
    return amp, phase, False


def principal_components(s: Spectrum, tower_id: str = "") -> SpectralFeature:
    k_week, k_day, k_half = principal_indices(s.n)
    aw, pw, nw = _amp_phase(s.coefficients[k_week])
    ad, pd, nd = _amp_phase(s.coefficients[k_day])
    ah, ph, nh = _amp_phase(s.coefficients[k_half])
    return SpectralFeature(tower_id, aw, pw, ad, pd, ah, ph, (nw, nd, nh))


def _kept_bins(n: int) -> np.ndarray:
    """The 7 bins of the reconstruction from DC and the three principal bins
    with their conjugate mirrors, in ascending order. For a whole number of
    weeks the three bins are distinct and below n/2, so the 7 are distinct."""
    indices = principal_indices(n)
    return np.array(sorted((0, *indices, *(n - k for k in indices))))


def energy(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sum(x * x))


def reconstruction_energy_ratio(x: np.ndarray) -> float:
    """Fraction of the signal's energy retained by the 7-bin reconstruction:
    the inverse transform of DC, the three principal bins and their mirrors.

    By Parseval, the reconstruction's energy is the sum of |X_k|^2 over its
    kept bins divided by n, so no inverse transform is needed. A real
    signal's mirror bin n - k has the same |X_k| as bin k, so every kept bin
    is read from the real FFT at min(k, n - k).
    """
    total = energy(x)
    if total == 0.0:
        return 1.0
    x = _series(x)
    keep = _kept_bins(x.size)
    kept = np.fft.rfft(x)[np.minimum(keep, x.size - keep)]
    return float(np.sum(kept.real**2 + kept.imag**2)) / (x.size * total)


def amplitude_variance(
    spectra: Sequence[Spectrum],
) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Population variance of |X[k]| across towers, per bin, plus the three
    bins of largest variance over 1 <= k <= n/2 (mirror bins carry the same
    amplitude for real inputs, DC is excluded)."""
    if len(spectra) < 2:
        raise SpectrumError("amplitude variance needs at least 2 towers")
    n = spectra[0].n
    if any(s.n != n for s in spectra):
        raise SpectrumError("spectra have mixed lengths")
    amps = np.abs(np.stack([s.coefficients for s in spectra]))
    variances = amps.var(axis=0)
    half = variances[1 : n // 2 + 1]
    order = np.argsort(half)[::-1][:3] + 1
    return variances, tuple(int(k) for k in order)


def write_spectral_features(path: str | Path, features: Sequence[SpectralFeature]) -> Path:
    rows = (
        [feat.tower_id] + feat.as_array().tolist()
        for feat in sorted(features, key=lambda x: x.tower_id)
    )
    return write_csv(path, FEATURES_HEADER, rows)


def _feature_row(fields: list[str]) -> SpectralFeature:
    vals = [float(x) for x in fields[1:]]
    reject_nan(vals, lambda i: FEATURES_HEADER[1 + i])
    nulls = tuple(vals[2 * i] < NULL_AMPLITUDE for i in range(3))
    return SpectralFeature(fields[0], *vals, nulls)


def read_spectral_features(path: str | Path) -> list[SpectralFeature]:
    """Features as written; a bin is null when its amplitude is below
    NULL_AMPLITUDE."""
    with open(path, encoding="utf-8", newline="") as f:
        return list(read_csv(
            f, FEATURES_HEADER, SpectrumError, path, "spectral features", _feature_row
        ))
