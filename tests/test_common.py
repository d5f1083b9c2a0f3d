import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellmine.common import reject_bad


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
