import json

from citygen import generate
from conftest import SMOKE_CITY

FILES = ("towers.csv", "sessions.csv", "pois.csv", "truth.json")


def test_same_seed_gives_identical_files(tmp_path):
    generate(SMOKE_CITY, 3, tmp_path / "a")
    generate(SMOKE_CITY, 3, tmp_path / "b")
    for name in FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_other_seed_gives_other_files(tmp_path):
    generate(SMOKE_CITY, 3, tmp_path / "a")
    generate(SMOKE_CITY, 4, tmp_path / "b")
    for name in ("sessions.csv", "pois.csv"):
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()


def test_truth_describes_the_files(smoke_city):
    directory, truth = smoke_city
    rows = (directory / "sessions.csv").read_text().splitlines()
    assert len(rows) - 1 == truth["session_rows"]
    assert json.loads((directory / "truth.json").read_text()) == truth
    defects = truth["defects"]
    assert truth["session_rows"] == (
        truth["clean_sessions"]
        + defects["malformed_rows"]
        + defects["exact_duplicates"]
        + defects["conflicting_duplicates"]
        + defects["unknown_tower_sessions"]
        + defects["out_of_window_sessions"]
    )
    assert all(defects[k] > 0 for k in defects)
    labels = set(truth["labels"].values())
    assert labels == {"resident", "office", "transport", "entertainment", "mix", "dead"}
    for weights in truth["mix_weights"].values():
        assert abs(sum(weights) - 1.0) < 1e-12
