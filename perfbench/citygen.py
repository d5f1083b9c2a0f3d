"""Seeded synthetic city: towers, per-session usage logs, POIs and ground truth.

The generator depends on numpy only and never imports ``cellmine``: the
pipeline under test receives nothing but the files written here.

Files written into the target directory:
    towers.csv     ``tower_id,lat,lon``
    sessions.csv   ``user_id,tower_id,start_epoch_s,end_epoch_s,bytes`` (rows shuffled)
    pois.csv       ``poi_id,type,lat,lon``
    truth.json     archetype labels, mix weights and the exact count of every
                   injected defect

The same (spec, seed) always gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ARCHETYPES = ("resident", "office", "transport", "entertainment")
# POI type names used in pois.csv, in ARCHETYPES order
POI_TYPE_OF = {
    "resident": "resident",
    "office": "office",
    "transport": "transport",
    "entertainment": "entertain",
}

# 2015-03-01 00:00 at UTC+8, a Sunday: 29 days hold four whole weeks that
# start on a Monday.
ORIGIN_EPOCH_S = 1425139200
DAYS = 29
TZ_OFFSET_S = 8 * 3600

CITY_LAT = (31.10, 31.35)
CITY_LON = (121.35, 121.65)
POI_SPREAD_M = 150.0
METERS_PER_DEG_LAT = 111_195.0


# Shares of towers
MIX_SHARE = 0.2
DEAD_SHARE = 0.02
# Shares of clean sessions
EXACT_DUP_SHARE = 0.02
CONFLICT_DUP_SHARE = 0.01
MALFORMED_SHARE = 0.004
UNKNOWN_SHARE = 0.004
OUT_OF_WINDOW_SHARE = 0.004
PING_SHARE = 0.02  # zero-duration sessions carrying a few bytes
# POIs per live tower near it, and uniform background POIs per tower
POIS_PER_TOWER = 6.0
BACKGROUND_POIS_PER_TOWER = 2.0


@dataclass(frozen=True)
class CitySpec:
    """Size and shape of one synthetic city."""

    towers: int
    # each activity block of a tower-day is cut into this many sessions
    sessions_per_block: int


# A day is six segments; each archetype has one traffic level per segment,
# on weekdays and on weekends. A tower-day is a run of constant-level
# activity blocks, so even a tower with one session per block shows its
# archetype's shape in every day of its four-week vector.
SEGMENT_HOURS = (0, 7, 9, 12, 17, 19, 24)
_LEVELS = {  # (weekday levels, weekend levels)
    "resident": ((0.3, 0.8, 0.3, 0.3, 0.6, 1.0), (0.35, 0.5, 0.7, 0.7, 0.8, 1.0)),
    "office": ((0.03, 0.5, 1.0, 0.9, 0.4, 0.08), (0.03, 0.05, 0.1, 0.1, 0.05, 0.03)),
    "transport": ((0.05, 1.0, 0.3, 0.3, 1.0, 0.2), (0.05, 0.3, 0.5, 0.5, 0.5, 0.2)),
    "entertainment": ((0.05, 0.05, 0.3, 0.7, 0.4, 0.5), (0.1, 0.1, 0.8, 1.0, 1.0, 0.5)),
}
# Mix towers cycle through the points of the simplex lattice with step 1/4
# that give no archetype more than half, so each seed draws the same weights
# and no mix passes for a pure tower.
MIX_LATTICE = np.array(
    [w for w in itertools.product(range(3), repeat=4) if sum(w) == 4]
) / 4.0
BYTES_PER_LEVEL_SECOND = 2000.0
JITTER_S = 290  # block edges move by less than half a slot
# Quiet blocks carry no sessions; this keeps the binning work per tower
# (slots covered) well below a full four weeks.
QUIET_LEVEL = 0.45


def archetype_levels() -> np.ndarray:
    """(4, DAYS * 6) segment levels over the window, in ARCHETYPES order."""
    weekdays = (np.arange(DAYS) + 6) % 7  # day 0 is a Sunday
    return np.array([
        np.concatenate([_LEVELS[name][int(wd >= 5)] for wd in weekdays]) for name in ARCHETYPES
    ])


def _offset_points(rng, lat, lon, radius_m):
    """Uniform points in a disc of ``radius_m`` around each (lat, lon)."""
    r = radius_m * np.sqrt(rng.random(lat.size))
    theta = rng.random(lat.size) * 2.0 * np.pi
    dlat = r * np.sin(theta) / METERS_PER_DEG_LAT
    dlon = r * np.cos(theta) / (METERS_PER_DEG_LAT * np.cos(np.radians(lat)))
    return lat + dlat, lon + dlon


def _tower_sessions(rng, spec: CitySpec, weights: np.ndarray, scale: float):
    """(start, end, bytes) of one live tower, relative to the origin."""
    levels = weights @ archetype_levels()
    seg_s = np.diff(SEGMENT_HOURS) * 3600
    edges = np.concatenate([[0], np.cumsum(np.tile(seg_s, DAYS))])
    keep = np.concatenate([[True], np.diff(levels) != 0])  # merge equal neighbours
    level = levels[keep]
    lo = edges[:-1][keep]
    hi = np.append(lo[1:], edges[-1])
    inner = rng.integers(-JITTER_S, JITTER_S + 1, lo.size - 1)
    lo[1:] += inner
    hi[:-1] += inner
    busy = level >= QUIET_LEVEL
    level, lo, hi = level[busy], lo[busy], hi[busy]
    total = level * (hi - lo) * scale * rng.lognormal(0.0, 0.1, lo.size)
    k = spec.sessions_per_block
    cuts = np.sort(rng.random((lo.size, k - 1)), axis=1) * (hi - lo)[:, None]
    bounds = np.concatenate([np.zeros((lo.size, 1)), cuts, (hi - lo)[:, None]], axis=1)
    bounds = lo[:, None] + bounds.astype(np.int64)
    share = np.diff(bounds, axis=1) / (hi - lo)[:, None]
    return (bounds[:, :-1].ravel(), bounds[:, 1:].ravel(),
            np.round(share * total[:, None]).astype(np.int64).ravel())


def _sessions(rng, spec: CitySpec, weights: np.ndarray, live: np.ndarray):
    """Clean sessions, all inside the window, with unique
    (user, tower, start, end) keys. Returns column arrays."""
    parts = []
    for t in np.flatnonzero(live):
        scale = BYTES_PER_LEVEL_SECOND * rng.lognormal(0.0, 0.3) / spec.sessions_per_block
        start, end, nbytes = _tower_sessions(rng, spec, weights[t], scale)
        parts.append((np.full(start.size, t), start, end, nbytes))
    tower, start, end, nbytes = (np.concatenate(c) for c in zip(*parts))
    pings = rng.random(tower.size) < PING_SHARE
    end[pings] = start[pings]
    nbytes[pings] = rng.integers(1, 1000, int(pings.sum()))
    user = rng.integers(0, 10 * tower.size, tower.size)
    keys = np.stack([user, tower, start, end], axis=1)
    _, first = np.unique(keys, axis=0, return_index=True)
    first.sort()
    return (user[first], tower[first], ORIGIN_EPOCH_S + start[first],
            ORIGIN_EPOCH_S + end[first], nbytes[first])


def generate(spec: CitySpec, seed: int, directory: str | Path) -> dict:
    """Write one city into ``directory`` and return its ground truth."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n = spec.towers
    n_dead = max(2, round(DEAD_SHARE * n))
    n_mix = round(MIX_SHARE * n)
    n_pure = n - n_dead - n_mix
    kind = np.array(["pure"] * n_pure + ["mix"] * n_mix + ["dead"] * n_dead)
    kind = kind[rng.permutation(n)]
    weights = np.zeros((n, 4))
    pure = np.flatnonzero(kind == "pure")
    weights[pure, np.arange(pure.size) % 4] = 1.0
    mixes = np.flatnonzero(kind == "mix")
    weights[mixes] = MIX_LATTICE[np.arange(mixes.size) % len(MIX_LATTICE)]
    live = (kind != "dead").astype(float)
    tower_ids = [f"T{i:05d}" for i in range(n)]

    lat = rng.uniform(*CITY_LAT, n)
    lon = rng.uniform(*CITY_LON, n)
    with open(directory / "towers.csv", "w") as f:
        f.write("tower_id,lat,lon\n")
        f.writelines(f"{t},{a:.6f},{o:.6f}\n" for t, a, o in zip(tower_ids, lat, lon))

    # POIs: per tower, types drawn from its weights, placed within reach;
    # plus uniform background POIs of every type.
    per_tower = rng.poisson(POIS_PER_TOWER, n) * live.astype(int)
    owner = np.repeat(np.arange(n), per_tower)
    poi_type = np.array([rng.choice(4, p=weights[t]) for t in owner], dtype=int)
    poi_lat, poi_lon = _offset_points(rng, lat[owner], lon[owner], POI_SPREAD_M)
    n_bg = round(BACKGROUND_POIS_PER_TOWER * n)
    poi_type = np.concatenate([poi_type, rng.integers(0, 4, n_bg)])
    poi_lat = np.concatenate([poi_lat, rng.uniform(*CITY_LAT, n_bg)])
    poi_lon = np.concatenate([poi_lon, rng.uniform(*CITY_LON, n_bg)])
    type_names = [POI_TYPE_OF[a] for a in ARCHETYPES]
    with open(directory / "pois.csv", "w") as f:
        f.write("poi_id,type,lat,lon\n")
        f.writelines(
            f"P{i:06d},{type_names[t]},{a:.6f},{o:.6f}\n"
            for i, (t, a, o) in enumerate(zip(poi_type, poi_lat, poi_lon))
        )

    user, tower, start, end, nbytes = _sessions(rng, spec, weights, live)
    clean = len(user)
    rows = [
        f"U{u},{tower_ids[t]},{s},{e},{b}"
        for u, t, s, e, b in zip(user.tolist(), tower.tolist(), start.tolist(),
                                 end.tolist(), nbytes.tolist())
    ]
    window_end = ORIGIN_EPOCH_S + DAYS * 86400

    # Exact duplicates and conflicting duplicates (same key, fewer bytes)
    # of distinct clean sessions.
    n_exact = round(EXACT_DUP_SHARE * clean)
    n_conflict = round(CONFLICT_DUP_SHARE * clean)
    picked = rng.choice(np.flatnonzero(nbytes >= 2), n_exact + n_conflict, replace=False)
    extra = [rows[i] for i in picked[:n_exact]]
    for i in picked[n_exact:]:
        extra.append(f"U{user[i]},{tower_ids[tower[i]]},{start[i]},{end[i]},{nbytes[i] // 2}")

    # Well-formed sessions on towers missing from the registry.
    n_unknown = round(UNKNOWN_SHARE * clean)
    for k in range(n_unknown):
        s = ORIGIN_EPOCH_S + int(rng.integers(0, DAYS * 86400 - 3600))
        extra.append(f"V{k},X{k % 97:04d},{s},{s + int(rng.integers(0, 3600))},"
                     f"{int(rng.integers(1, 10**6))}")

    # Well-formed sessions on live towers lying wholly outside the window.
    n_oow = round(OUT_OF_WINDOW_SHARE * clean)
    live_ids = np.flatnonzero(live)
    oow_bytes = 0
    for k in range(n_oow):
        t = tower_ids[int(rng.choice(live_ids))]
        if k % 2:
            s = window_end + int(rng.integers(0, 86400))
        else:
            s = ORIGIN_EPOCH_S - 7200 - int(rng.integers(0, 86400))
        b = int(rng.integers(1, 10**6))
        oow_bytes += b
        extra.append(f"W{k},{t},{s},{s + int(rng.integers(0, 3600))},{b}")

    # Malformed rows, one kind after another.
    n_malformed = round(MALFORMED_SHARE * clean)
    bad_kinds = (
        "U1,{t},{s},{e}",  # missing field
        "U1,{t},{s},{e},12x",  # non-integer bytes
        "U1,{t},{e},{s},100",  # end before start
        "U1,{t},{s},{e},-5",  # negative bytes
        ",{t},{s},{e},100",  # empty user
        "U1,{t},{s},{e},100,7",  # extra field
    )
    for k in range(n_malformed):
        s = ORIGIN_EPOCH_S + int(rng.integers(0, DAYS * 86400 - 7200))
        extra.append(bad_kinds[k % len(bad_kinds)].format(
            t=tower_ids[int(rng.integers(0, n))], s=s, e=s + 60 + k))

    all_rows = rows + extra
    order = rng.permutation(len(all_rows))
    with open(directory / "sessions.csv", "w") as f:
        f.write("user_id,tower_id,start_epoch_s,end_epoch_s,bytes\n")
        f.write("\n".join(all_rows[i] for i in order))
        f.write("\n")

    labels = {}
    for i, tid in enumerate(tower_ids):
        if kind[i] == "pure":
            labels[tid] = ARCHETYPES[int(np.argmax(weights[i]))]
        else:
            labels[tid] = str(kind[i])
    truth = {
        "seed": seed,
        "origin_epoch_s": ORIGIN_EPOCH_S,
        "days": DAYS,
        "tz_offset_minutes": TZ_OFFSET_S // 60,
        "archetypes": list(ARCHETYPES),
        "poi_types": type_names,
        "labels": labels,
        "mix_weights": {tower_ids[i]: [float(w) for w in weights[i]] for i in mixes},
        "defects": {
            "malformed_rows": n_malformed,
            "exact_duplicates": n_exact,
            "conflicting_duplicates": n_conflict,
            "unknown_tower_sessions": n_unknown,
            "out_of_window_sessions": n_oow,
            "out_of_window_bytes": oow_bytes,
            "dead_towers": n_dead,
        },
        "clean_sessions": clean,
        "known_tower_bytes": int(nbytes.sum()) + oow_bytes,
        "session_rows": len(all_rows),
        "pois": int(poi_type.size),
    }
    with open(directory / "truth.json", "w") as f:
        json.dump(truth, f, indent=1, sort_keys=True)
        f.write("\n")
    return truth
