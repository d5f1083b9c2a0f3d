import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scaling import exponents, is_normal

from cellmine.spectrum import (
    NULL_AMPLITUDE,
    Spectrum,
    SpectrumError,
    amplitude_variance,
    dft,
    principal_components,
    principal_indices,
    reconstruction_energy_ratio,
    read_spectral_features,
    write_spectral_features,
)


def naive_dft(x):
    """O(N^2) summation oracle, independent of the FFT path."""
    x = np.asarray(x, dtype=float)
    n = x.size
    k = np.arange(n)
    twiddle = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return twiddle @ x.astype(complex)


def energy(x):
    """Oracle of a series' energy, the sum of its squares in the time domain."""
    return float(np.sum(np.square(x)))


def reconstruct(s):
    """Oracle of the 7-bin reconstruction: the inverse real DFT, with the 1/N
    convention, of the half spectrum kept at DC and the three principal bins.
    The inverse real transform supplies their conjugate mirrors."""
    keep = [0, *principal_indices(s.n)]
    kept = np.zeros_like(s.coefficients)
    kept[keep] = s.coefficients[keep]
    return np.fft.irfft(kept, s.n)


def test_dft_dc_only():
    s = dft([1.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(s.coefficients, [4, 0, 0], atol=1e-12)


def test_dft_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 64, 128):
        x = rng.normal(size=n)
        got = dft(x).coefficients
        want = naive_dft(x)[: n // 2 + 1]
        scale = np.max(np.abs(want)) or 1.0
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * scale)


def test_dft_one_day_cosine_concentrates_at_28():
    n = 4032
    x = np.cos(2 * np.pi * 28 * np.arange(n) / n)
    s = dft(x)
    amps = np.abs(s.coefficients)
    assert amps.size == 2017
    assert amps[28] == pytest.approx(2016.0, rel=1e-9)
    others = np.delete(amps, 28)
    assert np.max(others) < 1e-6


def test_parseval():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=int(rng.integers(8, 300)))
        power = np.abs(dft(x).coefficients) ** 2
        # every bin strictly between 0 and n/2 stands for itself and its mirror
        k = np.arange(power.size)
        weight = np.where((k == 0) | (2 * k == x.size), 1.0, 2.0)
        lhs = energy(x)
        rhs = float(np.sum(weight * power)) / x.size
        assert lhs == pytest.approx(rhs, rel=1e-8)


@pytest.mark.parametrize("n", [100, 101])
def test_real_series_round_trips_through_half_spectrum(n):
    # bins 0..n//2 and the length determine a real series
    x = np.random.default_rng(6).normal(size=n)
    s = dft(x)
    np.testing.assert_allclose(np.fft.irfft(s.coefficients, s.n), x, rtol=0, atol=1e-9)


def test_principal_indices_mapping():
    assert principal_indices(4032) == (4, 28, 56)
    assert principal_indices(1008) == (1, 7, 14)
    with pytest.raises(SpectrumError):
        principal_indices(4000)


def test_principal_components_pure_day_cosine():
    n = 4032
    x = np.cos(2 * np.pi * 28 * np.arange(n) / n)
    feat = principal_components(dft(x), "t")
    assert feat.amp_day == pytest.approx(2016.0, rel=1e-9)
    assert feat.phase_day == pytest.approx(0.0, abs=1e-9)
    assert feat.amp_week < 1e-6 and feat.amp_half_day < 1e-6
    # phases of null components are zeroed
    zero = principal_components(dft(np.ones(4032)), "t")
    amps = [zero.amp_week, zero.amp_day, zero.amp_half_day]
    assert all(a < NULL_AMPLITUDE for a in amps)
    assert [zero.phase_week, zero.phase_day, zero.phase_half_day] == [0.0, 0.0, 0.0]


def test_shift_theorem():
    # shifting the signal by s slots rotates the day-bin phase by -2*pi*28*s/N
    # and leaves the amplitude unchanged
    rng = np.random.default_rng(7)
    n = 1008
    k_day = 7
    x = 5 + np.cos(2 * np.pi * k_day * np.arange(n) / n + 0.3) + 0.1 * rng.normal(size=n)
    base = principal_components(dft(x), "t")
    for s in (1, 17, 144, 500):
        shifted = np.roll(x, s)
        feat = principal_components(dft(shifted), "t")
        assert feat.amp_day == pytest.approx(base.amp_day, rel=1e-9)
        expected = np.angle(np.exp(1j * (base.phase_day - 2 * np.pi * k_day * s / n)))
        assert feat.phase_day == pytest.approx(expected, abs=1e-9)


def test_reconstruct_lossless_subspace():
    n = 4032
    t = np.arange(n)
    x = (
        3.0
        + 1.5 * np.cos(2 * np.pi * 4 * t / n + 0.2)
        + 2.0 * np.cos(2 * np.pi * 28 * t / n - 1.0)
        + 0.7 * np.cos(2 * np.pi * 56 * t / n + 2.5)
    )
    np.testing.assert_allclose(reconstruct(dft(x)), x, atol=1e-8)


def test_reconstruct_white_noise_energy_fraction():
    # Parseval: the 7 kept bins of white noise hold ~7/N of the energy
    rng = np.random.default_rng(8)
    n = 1008
    ratios = [
        reconstruction_energy_ratio(rng.normal(size=n)) for _ in range(200)
    ]
    assert np.mean(ratios) == pytest.approx(7 / n, rel=0.25)


@pytest.mark.parametrize("n", [1008, 2016, 4032])
def test_energy_ratio_equals_reconstruction_energy(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = rng.normal(size=n) + rng.uniform(-3.0, 3.0)
        ratio = reconstruction_energy_ratio(x)
        expected = energy(reconstruct(dft(x))) / energy(x)
        assert ratio == pytest.approx(expected, rel=1e-12, abs=0)


@st.composite
def scaled_weeks(draw):
    """A seeded week of normal values times 2**e, a tenth of them zero, and a
    k in [-1000, 1000] (see ``scaling.exponents``)."""
    e, k = draw(exponents())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=1008) * (rng.random(1008) < 0.9)
    return np.ldexp(x, e), k


@given(scaled_weeks())
@example((np.random.default_rng(0).normal(size=1008), 1000))
@example((np.random.default_rng(0).normal(size=1008), -1000))
def test_energy_ratio_is_exactly_scale_invariant(case):
    # scaling by 2**k is exact while every value stays normal, and so is the
    # division by the largest |x|, so the transform sees the same series
    x, k = case
    scaled = x * 2.0**k
    assume(is_normal(x) and is_normal(scaled))
    assert reconstruction_energy_ratio(scaled) == reconstruction_energy_ratio(x)


@pytest.mark.parametrize("factor", [1e-170, 1e160])
def test_energy_ratio_at_the_ends_of_the_float_range(factor):
    # an energy taken as a sum of squares underflows to 0 at 1e-170 and
    # overflows at 1e160
    x = np.random.default_rng(12).normal(size=4032)
    want = reconstruction_energy_ratio(x)
    assert want < 0.01
    assert reconstruction_energy_ratio(x * factor) == pytest.approx(want, rel=1e-12, abs=0)


def test_energy_ratio_of_a_series_whose_dc_sum_overflows():
    # the DC bin of 4032 values near 1e306 is past the largest float
    n = 4032
    x = 1e306 * (1.5 + 0.5 * np.cos(2 * np.pi * 28 * np.arange(n) / n))
    assert reconstruction_energy_ratio(x) == pytest.approx(1.0, rel=1e-12, abs=0)


def known_answer_city(n=4032, towers=36, seed=19):
    """Seeded towers of a DC level plus the week, day and half-day harmonics
    of the ``n``-slot series, each of random amplitude and phase, and white
    noise. Week amplitudes spread over [0, 8], day over [0, 4] and half-day
    over [0, 2], so their bins' amplitude variances fall in that order. Returns
    the series and each one's noise share, the noise energy over the series'."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    series, shares = [], []
    for _ in range(towers):
        signal = rng.uniform(5.0, 20.0) + sum(
            rng.uniform(0.0, top) * np.cos(2 * np.pi * k * t / n + rng.uniform(-np.pi, np.pi))
            for k, top in zip(principal_indices(n), (8.0, 4.0, 2.0))
        )
        noise = rng.normal(scale=rng.uniform(0.1, 3.0), size=n)
        series.append(signal + noise)
        shares.append(energy(noise) / energy(signal + noise))
    return series, shares


def test_known_answer_city_top_bins_are_the_principal_bins():
    series, _ = known_answer_city()
    _, top3 = amplitude_variance([dft(x) for x in series])
    assert top3 == principal_indices(4032)


def test_known_answer_city_energy_ratio_reaches_one_minus_noise_share():
    # With x = s + e and s in the kept bins, the reconstruction misses only the
    # noise outside them, so 1 - ratio = |e outside|^2 / |x|^2 <= |e|^2 / |x|^2.
    # The tolerance covers rounding alone.
    series, shares = known_answer_city()
    for x, share in zip(series, shares):
        ratio = reconstruction_energy_ratio(x)
        assert 1.0 - share - 1e-12 <= ratio <= 1.0


def test_amplitude_variance_identical_towers_zero():
    x = np.cos(2 * np.pi * 7 * np.arange(1008) / 1008)
    variances, _ = amplitude_variance([dft(x), dft(x)])
    assert np.max(variances) < 1e-18


def full_fft_amplitude_variance(series):
    """Oracle: the variance across towers of |X[k]| for bins 0..n//2 of the
    full complex DFT, and the three bins of largest variance over
    1 <= k <= n/2."""
    variances = np.abs(np.fft.fft(np.stack(series))).var(axis=0)
    half = variances[: variances.size // 2 + 1]
    top3 = np.argsort(half[1:])[::-1][:3] + 1
    return half, tuple(int(k) for k in top3)


@given(st.integers(2, 8), st.integers(6, 257), st.integers(0, 2**32 - 1))
@example(3, 1008, 0)
@example(3, 1009, 0)
def test_amplitude_variance_equals_full_fft_oracle(towers, n, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    # two periodic shapes at varied strength over noise: the noise bins'
    # variances differ far beyond rounding, so the top three are not tied
    series = [
        rng.uniform(0, 5) + a * np.cos(2 * np.pi * 3 * t / n) + b * np.sin(2 * np.pi * t / n)
        + 0.1 * rng.normal(size=n)
        for a, b in rng.uniform(0, 10, size=(towers, 2))
    ]
    variances, top3 = amplitude_variance([dft(x) for x in series])
    want, want_top3 = full_fft_amplitude_variance(series)
    assert variances.shape == (n // 2 + 1,)
    np.testing.assert_allclose(variances, want, rtol=1e-9, atol=0)
    assert top3 == want_top3


def test_amplitude_variance_concentrates_at_varied_bin():
    n = 1008
    t = np.arange(n)
    spectra = []
    for a in (1.0, 2.0, 3.0, 4.0):
        x = 10 + a * np.cos(2 * np.pi * 7 * t / n) + np.cos(2 * np.pi * t / n)
        spectra.append(dft(x))
    variances, top3 = amplitude_variance(spectra)
    assert top3[0] == 7
    assert variances[7] > 100 * np.delete(variances, 7).max()


def test_spectral_features_io(tmp_path):
    n = 4032
    t = np.arange(n)
    x = 2 + np.cos(2 * np.pi * 28 * t / n + 0.5)
    feat = principal_components(dft(x), "towerA")
    path = write_spectral_features(tmp_path / "f.csv", [feat])
    loaded = read_spectral_features(path)
    assert loaded[0].tower_id == "towerA"
    np.testing.assert_allclose(loaded[0].as_array(), feat.as_array(), rtol=0, atol=0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "f.csv: bad spectral features header: no header row"),
        ("tower_id,A4,P4,A28,P28,A56,P56\nt1,1.0,0.0\n", "f.csv line 2: expected 7 fields, got 3"),
        ("tower_id,A4,P4,A28,P28,A56,P56\nt1,1,0,1,x,1,0\n", "f.csv line 2: could not convert"),
        ("tower_id,A4,P4,A28,P28,A56,P56\nt1,1,0,1,nan,1,0\n", "f.csv line 2: P28 holds nan, not a number"),
        ("tower_id,A4,P4,A28,P28,A56,P56\nt1,-nan,0,1,0,1,0\n", "f.csv line 2: A4 holds nan, not a number"),
        ("tower_id,A4,P4,A28,P28,A56,P56\na,1,0,1,0,1,0\nb,1,0,1,0,1,0\na,2,0,1,0,1,0\n",
         "f.csv line 4: tower a is repeated"),
    ],
)
def test_read_spectral_features_rejects_malformed_file(tmp_path, text, message):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(SpectrumError, match=message):
        read_spectral_features(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("transform", [dft, reconstruction_energy_ratio])
def test_a_non_finite_series_fails_with_spectrum_error(transform, bad):
    with pytest.raises(SpectrumError, match=f"dft input value 1 holds {bad}, not a finite value$"):
        transform(np.array([1.0, bad, 2.0, 3.0]))


@pytest.mark.parametrize("x, message", [
    (np.ones((2, 3)), "^dft expects a non-empty 1-D real vector$"),
    (np.zeros(0), "^dft expects a non-empty 1-D real vector$"),
    # finite values whose DC bin, or whose bin n/2, passes the largest float
    (np.full(4032, 1e306), r"^dft of 4032 values is not finite: the largest \|value\| is 1e\+306$"),
    (np.resize([1e305, -1e305], 4032), r"not finite: the largest \|value\| is 1e\+305$"),
])
def test_dft_rejects_a_series_it_cannot_transform(x, message):
    with pytest.raises(SpectrumError, match=message):
        dft(x)


def test_energy_ratio_of_zeros_is_one():
    assert reconstruction_energy_ratio(np.zeros(4032)) == 1.0


@pytest.mark.parametrize("spectra, message", [
    ([dft(np.ones(1008))], "^amplitude variance needs at least 2 towers$"),
    ([dft(np.ones(1008)), dft(np.ones(2016))], "^spectra have mixed lengths$"),
    # bins (1, 2) alone, where three were promised
    ([dft(np.ones(4)), dft(np.arange(4.0))], "^spectra of n = 4 hold 2 bins above DC, not 3$"),
    ([dft(np.ones(5)), dft(np.arange(5.0))], "^spectra of n = 5 hold 2 bins above DC, not 3$"),
    ([dft(np.ones(1)), dft(np.ones(1))], "^spectra of n = 1 hold 0 bins above DC, not 3$"),
])
def test_amplitude_variance_rejects_bad_spectra(spectra, message):
    with pytest.raises(SpectrumError, match=message):
        amplitude_variance(spectra)


@pytest.mark.parametrize("coefficients, n, shape", [
    (np.ones(10), 4032, r"\(10,\)"),  # principal_components raised a bare IndexError
    (np.ones(2017), 2016, r"\(2017,\)"),  # it read DC as all three components
    (np.ones((1, 2017)), 4032, r"\(1, 2017\)"),
    (np.ones(1), 0, r"\(1,\)"),
    (np.ones(0), 0, r"\(0,\)"),
    (np.ones(1), -1, r"\(1,\)"),
])
def test_a_spectrum_holds_the_bins_of_its_length(coefficients, n, shape):
    message = f"^n = {n} with coefficients of shape {shape}: a spectrum of n >= 1 values holds"
    with pytest.raises(SpectrumError, match=message):
        Spectrum(coefficients, n)


@pytest.mark.parametrize("bad, shown", [
    (np.nan, r"\(nan\+0j\)"), (complex(0.5, np.inf), r"\(0\.5\+infj\)"), (-np.inf, r"\(-inf\+0j\)"),
])
def test_a_spectrum_holds_finite_bins(bad, shown):
    # A NaN day bin once gave amp_day = phase_day = nan, and amplitude_variance ranked it first.
    coefficients = dft(np.cos(2 * np.pi * 28 * np.arange(4032) / 4032)).coefficients
    coefficients[28] = bad
    with pytest.raises(SpectrumError, match=f"^bin 28 holds {shown}, not a finite coefficient$"):
        Spectrum(coefficients, 4032)


def test_a_spectrum_holds_numbers():
    # object coefficients once let a bare TypeError out of np.isfinite
    coefficients = np.full(3, 1 + 0j, dtype=object)
    coefficients[1] = object()
    with pytest.raises(SpectrumError, match=r"^bin 1 holds <object object at 0x[0-9a-f]+>, not a finite coefficient$"):
        Spectrum(coefficients, 4)


@pytest.mark.parametrize("n", [0, -1008, 1007, 1009])
def test_principal_indices_need_a_positive_whole_number_of_weeks(n):
    with pytest.raises(SpectrumError, match=f"^series length {n} is not a positive whole number of weeks$"):
        principal_indices(n)
