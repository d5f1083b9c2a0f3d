"""The benchmark's workloads. Each runs every pipeline stage; they differ in
which layer does most of the work."""

from __future__ import annotations

from dataclasses import dataclass

from citygen import CitySpec


@dataclass(frozen=True)
class Workload:
    city: CitySpec
    # route every stage's output through its public write_*/read_* pair
    staged: bool


WORKLOADS = {
    # Ingest is almost all of the run and HAC is trivial at n~200.
    "ingest-dense": Workload(CitySpec(towers=200, sessions_per_block=24), staged=False),
    # Clustering dominates and ingest is light; spectrum, timefeat and
    # decompose also scale with the tower count.
    "towers-wide": Workload(CitySpec(towers=700, sessions_per_block=1), staged=False),
    # Every artefact goes through its writer and reader, which the in-memory
    # workloads never do.
    "staged-roundtrip": Workload(CitySpec(towers=300, sessions_per_block=1), staged=True),
}
