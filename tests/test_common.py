import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellmine.common import finite_array, reject_bad
from cellmine.decompose import (
    DecomposeError,
    FeaturePoint,
    FeatureSpace,
    PolygonModel,
    build_feature_points,
    solve_mixture,
)
from cellmine.ingest import BinnedSeries
from cellmine.spectrum import SpectralFeature, SpectrumError, dft, reconstruction_energy_ratio
from cellmine.timefeat import DailyProfile, TimefeatError, compute_time_features, daily_profile, peak_offset
from cellmine.vectorize import VectorizeError, normalize


class Bad(ValueError):
    pass


def test_reject_bad_names_the_first_bad_entry_of_a_series():
    values = np.array([1.0, 2.0, -np.inf, np.nan, np.inf])
    with pytest.raises(Bad, match=r"^value 2 holds -inf, not finite$"):
        reject_bad(values, np.isfinite(values), Bad, "value {}".format, "finite")
    values[2] = 3.0
    with pytest.raises(Bad, match=r"^value 3 holds nan, not finite$"):
        reject_bad(values, np.isfinite(values), Bad, "value {}".format, "finite")


def test_reject_bad_searches_a_matrix_in_c_order():
    # (2, 0) comes first by columns, (1, 3) by rows
    values = np.zeros((3, 4))
    values[2, 0], values[1, 3] = np.nan, np.inf
    with pytest.raises(Bad, match=r"^row 1 column 3 holds inf, not finite$"):
        reject_bad(values, np.isfinite(values), Bad, "row {} column {}".format, "finite")


def test_reject_bad_reads_a_list_and_any_mask():
    values = [0.5, -1.0, -2.0]
    with pytest.raises(Bad, match=r"^x1 holds -1\.0, not at least 0$"):
        reject_bad(values, np.greater_equal(values, 0.0), Bad, "x{}".format, "at least 0")


@pytest.mark.parametrize("values", [np.zeros(0), np.arange(4.0), np.ones((2, 3)), [1.0, 2.0]])
def test_reject_bad_passes_an_all_true_mask(values):
    assert reject_bad(values, np.isfinite(values), Bad, "value {}".format, "finite") is None


@given(st.lists(st.lists(st.sampled_from([0.0, 1.5, np.nan, np.inf, -np.inf]), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_reject_bad_names_the_first_entry_np_argwhere_finds(rows):
    values = np.array(rows)
    bad = np.argwhere(~np.isfinite(values))
    if not bad.size:
        reject_bad(values, np.isfinite(values), Bad, "{} {}".format, "finite")
        return
    i, j = bad[0]
    with pytest.raises(Bad) as raised:
        reject_bad(values, np.isfinite(values), Bad, "{} {}".format, "finite")
    assert str(raised.value) == f"{i} {j} holds {values[i, j]}, not finite"


def test_finite_array_gives_a_read_only_view_of_the_callers_array():
    values = np.arange(3.0)
    array = finite_array(values, np.float64, Bad, "value {}".format, "finite")
    assert array.base is values and not array.flags.writeable and values.flags.writeable
    ints = finite_array([[1, 2], [3, 4]], np.float64, Bad, "row {} column {}".format, "finite")
    assert ints.dtype == np.float64 and ints.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("values, shown", [
    ([1.0, np.nan, object()], "nan"),
    ([1.0, "x", "2"], "x"),
    ([1.0, 2**2000, np.inf], str(2**2000)),
    ([1.0, [2.0, 3.0], 4.0], r"\[2.0, 3.0\]"),
])
def test_finite_array_names_the_first_entry_that_is_no_finite_number(values, shown):
    with pytest.raises(Bad, match=f"^value 1 holds {shown}, not finite$"):
        finite_array(values, np.float64, Bad, "value {}".format, "finite")


# One object() among otherwise good values, where each stage takes an array in:
# every entry names it by index with its own module's error.
OBJECT = np.array([1.0] * 4032, dtype=object)
OBJECT[5] = object()
FEATURES = [SpectralFeature(f"t{i}", 1.0, 0.0, 1.0 + i, 0.5 * i, 2.0 - i, 0.0) for i in range(3)]
SPACE = FeatureSpace(("a", "b", "c"), np.zeros(3), np.ones(3))
CORNERS = [np.zeros(3), *np.eye(3)]
MODEL = PolygonModel([FeaturePoint(f"v{i}", v) for i, v in enumerate(CORNERS)], [1, 2, 3, 4], SPACE)
CURVE = OBJECT[:144]
POINT = np.array([0.2, object(), 0.2], dtype=object)
MONDAY = 1407081600  # civil midnight in UTC+8


@pytest.mark.parametrize("call, error, message", [
    (lambda: normalize(BinnedSeries("t", MONDAY, OBJECT)), VectorizeError, "tower t: slot 5"),
    (lambda: daily_profile(BinnedSeries("t", MONDAY, OBJECT)), TimefeatError, "t: slot 5"),
    (lambda: dft(OBJECT), SpectrumError, "dft input value 5"),
    (lambda: reconstruction_energy_ratio(OBJECT), SpectrumError, "dft input value 5"),
    (lambda: compute_time_features(DailyProfile("t", CURVE, np.ones(144))), TimefeatError, "t: weekday slot 5"),
    (lambda: peak_offset(DailyProfile("a", np.arange(144.0), np.ones(144)), DailyProfile("t", CURVE, np.ones(144))),
     TimefeatError, "t: weekday slot 5"),
    (lambda: build_feature_points([*FEATURES, FEATURES[0]._replace(tower_id="t", amp_half_day=object())]),
     DecomposeError, "tower t: amp_half_day"),
    (lambda: solve_mixture(FeaturePoint("t", list(POINT)), MODEL), DecomposeError,
     "tower 't': coordinate 1"),
    (lambda: solve_mixture(POINT, MODEL), DecomposeError, "tower '': point is not 3 finite values: value 1"),
    (lambda: FeatureSpace(("a", "b", "c"), np.zeros(3), POINT), DecomposeError, "feature b: std"),
    (lambda: PolygonModel([FeaturePoint(f"v{i}", v) for i, v in enumerate([*CORNERS[:3], POINT])],
                          [1, 2, 3, 4], SPACE),
     DecomposeError, "tower 'v3': coordinate 1"),
], ids=["normalize", "daily_profile", "dft", "reconstruction_energy_ratio", "compute_time_features",
        "peak_offset", "build_feature_points", "solve_mixture_point", "solve_mixture_array",
        "FeatureSpace", "PolygonModel"])
def test_an_object_entry_fails_with_the_stages_error_naming_it(call, error, message):
    # each once let a bare TypeError or AttributeError out of its conversion
    with pytest.raises(error, match=f"^{re.escape(message)} holds <object object at 0x[0-9a-f]+>, not "):
        call()
