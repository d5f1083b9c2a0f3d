"""Smoke-size fixtures for the benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from citygen import CitySpec, generate  # noqa: E402

# Run staged, so that every writer and reader is exercised. At seed 7 this
# city meets the benchmark's own quality floors.
SMOKE_CITY = CitySpec(towers=48, sessions_per_block=2)


@pytest.fixture(scope="session")
def smoke_city(tmp_path_factory):
    directory = tmp_path_factory.mktemp("city")
    truth = generate(SMOKE_CITY, 7, directory)
    return directory, truth


@pytest.fixture(scope="session")
def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec
