"""One fresh single-process run of the whole cellmine pipeline on a generated city.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
It imports cellmine (the set-up being measured), runs every paper stage
through the public functions of ``cellmine.ingest``, ``vectorize``,
``cluster``, ``spectrum``, ``timefeat``, ``decompose`` and ``poi``, checks the
outputs against the ground truth and prints one JSON object as its last line.
A fixed probe is timed right before the pipeline and again once its outputs
are released, so that the caller can scale the times to a reference CPU speed.

With ``--trace 1`` every public call is wrapped in a span kept in memory; the
spans go out with the result when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

import cellmine
from cellmine import cluster, decompose, ingest, poi, spectrum, timefeat, vectorize
from workloads import WORKLOADS

# set-up ends here: interpreter, numpy, scipy and every cellmine stage imported
READY_AT = time.monotonic()

WEEKS = 4
MIB = 1 << 20
REL_TOL = 1e-9
# a residual above this is outside the simplex, not floating-point rounding
EXTERIOR_RESIDUAL = 1e-9
# Quality floors; the seed commit scores 1.0 on both for every workload and seed tried.
ARI_FLOOR = 0.9
POI_MATCH_FLOOR = 0.75
# largest weight error allowed when solve_mixture decomposes an exact convex
# combination of the polygon's vertices
RECOVERY_TOL = 1e-6
SPAN_COST_SAMPLES = 20_000


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        spans, open_ = self.tracer.spans, self.tracer._open
        self.index = len(spans)
        spans.append([self.name, perf_counter(), 0.0, open_[-1] if open_ else -1])
        open_.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer._open.pop()
        return False


class Tracer:
    """In-memory spans: [name, start, end, parent index]. Disabled, it hands
    out one shared no-op context so the untraced run pays next to nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed per name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals


def span_cost_s() -> float:
    """Seconds one enabled span adds: the mean of many empty spans timed here.
    The collector is off, because this many spans would trigger collections
    over the whole heap that a run's few dozen spans never do."""
    tracer = Tracer(True)
    gc.disable()
    t0 = perf_counter()
    for _ in range(SPAN_COST_SAMPLES):
        with tracer.span("empty"):
            pass
    elapsed = perf_counter() - t0
    gc.enable()
    return elapsed / SPAN_COST_SAMPLES


def _vertex_clusters(model: cluster.ClusterModel) -> list[int]:
    """The four largest clusters (ties to the smaller id) span the simplex;
    any further cluster is the comprehensive one."""
    order = sorted(range(model.r), key=lambda c: (-model.sizes[c], c))
    return sorted(c + 1 for c in order[:4])


def _aggregate(series: list[ingest.BinnedSeries], source_id: str) -> ingest.BinnedSeries:
    total = np.sum([s.slot_bytes for s in series], axis=0)
    return ingest.BinnedSeries(source_id, series[0].origin, total)


def run_pipeline(
    city: Path, workdir: Path, origin: int, days: int, staged: bool, tracer: Tracer
) -> dict:
    """Every paper stage, from opening the inputs to the last result. With
    ``staged`` each stage's output goes through its public writer and is read
    back with the matching reader before the next stage uses it."""
    span = tracer.span
    out: dict = {"staged": staged}
    with span("pipeline"):
        # ingest
        with open(city / "sessions.csv", newline="") as f, span("ingest.parse_sessions"):
            sessions, rejects = ingest.parse_sessions(f)
        with open(city / "towers.csv", newline="") as f, span("ingest.parse_towers"):
            registry = ingest.parse_towers(f)
        with span("ingest.deduplicate"):
            deduped = ingest.deduplicate(sessions)
        with span("ingest.bin_traffic"):
            binned = ingest.bin_traffic(deduped, origin, days, registry)
        series = binned.series
        if staged:
            with span("ingest.write_binned"):
                paths = ingest.write_binned(workdir, binned, origin, days)
            with span("ingest.read_binned"):
                series, _ = ingest.read_binned(*paths)

        # vectorize
        with span("vectorize.vectorize_all"):
            vectors = vectorize.vectorize_all(series.values(), WEEKS)
        if staged:
            csv_path, bin_path = workdir / "vectors.csv", workdir / "vectors.bin"
            with span("vectorize.write_vectors_csv"):
                vectorize.write_vectors_csv(csv_path, vectors)
            with span("vectorize.write_vectors_binary"):
                vectorize.write_vectors_binary(bin_path, vectors)
            with span("vectorize.read_vectors"):
                out["vectors_csv"] = vectorize.read_vectors(csv_path)
            with span("vectorize.read_vectors"):
                out["vectors_bin"] = vectorize.read_vectors(bin_path)
            out["vectors_mem"] = vectors
            vectors = out["vectors_bin"]
        usable = sorted((v for v in vectors if not v.degenerate), key=lambda v: v.tower_id)

        # cluster
        rss_before = _maxrss_mb()
        with span("cluster.hac_average_linkage"):
            dendrogram = cluster.hac_average_linkage(usable)
        out["hac_rss_growth_mb"] = _maxrss_mb() - rss_before
        with span("cluster.tune_cut"):
            model, dbi_trace = cluster.tune_cut(dendrogram, usable)
        with span("cluster.distance_cdf"):
            cdf = cluster.distance_cdf(model, usable)
        assignments = model.assignments
        if staged:
            with span("cluster.write_assignments"):
                cluster.write_assignments(workdir / "assignments.csv", model)
            with span("cluster.write_centroids"):
                cluster.write_centroids(workdir / "centroids.csv", model)
            with span("cluster.write_dbi_trace"):
                cluster.write_dbi_trace(workdir / "dbi_trace.csv", dbi_trace)
            with span("cluster.write_distance_cdf"):
                cluster.write_distance_cdf(workdir / "distance_cdf.csv", cdf)
            with span("cluster.read_assignments"):
                assignments = cluster.read_assignments(workdir / "assignments.csv")

        # spectrum
        with span("spectrum.dft"):
            spectra = [spectrum.dft(v.values) for v in usable]
        with span("spectrum.principal_components"):
            features = [
                spectrum.principal_components(s, v.tower_id) for s, v in zip(spectra, usable)
            ]
        with span("spectrum.reconstruction_energy_ratio"):
            energy = [spectrum.reconstruction_energy_ratio(v.values) for v in usable]
        with span("spectrum.amplitude_variance"):
            spectrum.amplitude_variance(spectra)
        if staged:
            with span("spectrum.write_spectral_features"):
                spectrum.write_spectral_features(workdir / "spectral.csv", features)
            out["features_mem"] = features
            with span("spectrum.read_spectral_features"):
                features = spectrum.read_spectral_features(workdir / "spectral.csv")

        # timefeat: every active tower, then each vertex cluster's aggregate
        with span("vectorize.trim_to_weeks"):
            trimmed = {
                v.tower_id: vectorize.trim_to_weeks(series[v.tower_id], WEEKS) for v in usable
            }
        with span("timefeat.daily_profile"):
            profiles = [timefeat.daily_profile(s) for s in trimmed.values()]
        with span("timefeat.compute_time_features"):
            time_features = [timefeat.compute_time_features(p) for p in profiles]
        vertex_clusters = _vertex_clusters(model)
        members = {c: [] for c in vertex_clusters}
        for tower_id, c in assignments.items():
            if c in members:
                members[c].append(trimmed[tower_id])
        with span("timefeat.daily_profile"):
            cluster_profiles = [
                timefeat.daily_profile(_aggregate(members[c], f"cluster{c}"))
                for c in vertex_clusters
            ]
        with span("timefeat.compute_time_features"):
            time_features += [timefeat.compute_time_features(p) for p in cluster_profiles]
        with span("timefeat.peak_offset"):
            offsets = [timefeat.peak_offset(p, cluster_profiles[0]) for p in cluster_profiles]
        if staged:
            with span("timefeat.write_time_features"):
                timefeat.write_time_features(workdir / "time_features.csv", time_features)

        # decompose
        with span("decompose.build_feature_points"):
            points, space = decompose.build_feature_points(features)
        with span("decompose.select_representatives"):
            polygon = decompose.select_representatives(
                points, assignments, vertex_clusters, space
            )
        with span("decompose.solve_mixture"):
            mixtures = [decompose.solve_mixture(p, polygon) for p in points]
        if staged:
            out["mixtures_mem"] = mixtures
            with span("decompose.write_mixtures"):
                decompose.write_mixtures(workdir / "mixtures.csv", mixtures)
            with span("decompose.write_vertices"):
                decompose.write_vertices(workdir / "vertices.json", polygon)
            with span("decompose.read_mixtures"):
                mixtures = decompose.read_mixtures(workdir / "mixtures.csv")
            with span("decompose.read_vertices"):
                polygon = decompose.read_vertices(workdir / "vertices.json")

        # poi
        with open(city / "pois.csv", newline="") as f, span("poi.parse_pois"):
            pois = poi.parse_pois(f)
        with span("poi.count_poi"):
            counts = poi.count_poi(registry, pois)
        with span("poi.cluster_poi_table"):
            table = poi.cluster_poi_table(counts, assignments)
        with span("poi.ntfidf"):
            poi_profiles = poi.ntfidf(counts)
        if staged:
            with span("poi.write_poi_profiles"):
                poi.write_poi_profiles(workdir / "poi_profiles.csv", poi_profiles)
            with span("poi.write_poi_cluster_table"):
                poi.write_poi_cluster_table(workdir / "poi_table.csv", table)

    out.update(
        series=series, sessions=sessions, rejects=rejects, registry=registry, deduped=deduped,
        binned=binned, vectors=vectors, usable=usable, dendrogram=dendrogram,
        model=model, assignments=assignments, dbi_trace=dbi_trace, features=features,
        energy=energy, vertex_clusters=vertex_clusters, polygon=polygon,
        mixtures=mixtures, offsets=offsets, pois=pois, counts=counts, table=table,
        poi_profiles=poi_profiles,
    )
    return out


# --- quality against the ground truth -------------------------------------


def adjusted_rand_index(a, b) -> float:
    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)

    def pairs(x):
        return float(np.sum(x * (x - 1) / 2.0))

    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([float(len(ai))]))
    top = (rows + cols) / 2.0
    if top == expected:
        return 1.0
    return (index - expected) / (top - expected)


def vertex_archetypes(out: dict, truth: dict) -> list[str | None]:
    """Majority ground-truth archetype of the pure towers in each vertex cluster."""
    labels = truth["labels"]
    found = []
    for c in out["vertex_clusters"]:
        names = [labels[t] for t, k in out["assignments"].items()
                 if k == c and labels[t] in truth["archetypes"]]
        found.append(max(sorted(set(names)), key=names.count) if names else None)
    return found


def quality(out: dict, truth: dict) -> dict[str, float]:
    labels = truth["labels"]
    archetypes = truth["archetypes"]
    pure = [t for t in sorted(out["assignments"]) if labels[t] in archetypes]
    ari = adjusted_rand_index([labels[t] for t in pure], [out["assignments"][t] for t in pure])

    mapped = vertex_archetypes(out, truth)
    errors, uniform_errors = [], []
    for m in out["mixtures"]:
        true_w = truth["mix_weights"].get(m.tower_id)
        if true_w is None:
            continue
        est = np.zeros(len(archetypes))
        for weight, name in zip(m.x, mapped):
            if name is not None:
                est[archetypes.index(name)] += weight
        errors.append(np.abs(est - np.asarray(true_w)))
        uniform_errors.append(np.abs(1.0 / len(archetypes) - np.asarray(true_w)))
    poi_type = dict(zip(archetypes, truth["poi_types"]))
    hits = [
        name is not None and out["table"].row_max.get(c) == poi_type[name]
        for c, name in zip(out["vertex_clusters"], mapped)
    ]
    return {
        "ari": float(ari),
        "mixture_mae": float(np.mean(errors)) if errors else float("nan"),
        # what answering 1/4 for every weight would score on the same towers
        "uniform_guess_mae": float(np.mean(uniform_errors)) if errors else float("nan"),
        "poi_match": float(np.mean(hits)),
    }


# --- correctness gates ------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def gate_bytes_conserved(out: dict, truth: dict) -> str | None:
    registry = out["registry"]
    known = float(sum(s.bytes for s in out["deduped"] if s.tower_id in registry))
    binned = float(sum(s.slot_bytes.sum() for s in out["binned"].series.values()))
    if not _close(binned + out["binned"].out_of_window_bytes, known):
        return f"binned {binned!r} + out-of-window bytes != deduplicated known-tower {known!r}"
    if known != truth["known_tower_bytes"]:
        return f"deduplicated known-tower bytes {known!r} != generated {truth['known_tower_bytes']}"
    return None


def gate_ingest_counts(out: dict, truth: dict) -> str | None:
    d = truth["defects"]
    got = {
        "rejected rows": (len(out["rejects"]), d["malformed_rows"]),
        "unknown-tower sessions": (out["binned"].unknown_towers, d["unknown_tower_sessions"]),
        "collapsed duplicates": (
            len(out["sessions"]) - len(out["deduped"]),
            d["exact_duplicates"] + d["conflicting_duplicates"],
        ),
    }
    for what, (seen, injected) in got.items():
        if seen != injected:
            return f"{what}: {seen} != injected {injected}"
    if not _close(out["binned"].out_of_window_bytes, d["out_of_window_bytes"]):
        return (f"out-of-window bytes {out['binned'].out_of_window_bytes!r} "
                f"!= injected {d['out_of_window_bytes']}")
    return None


def gate_dendrogram(out: dict, truth: dict) -> str | None:
    dendrogram = out["dendrogram"]
    if len(dendrogram.merges) != dendrogram.n_leaves - 1:
        return f"{len(dendrogram.merges)} merges for {dendrogram.n_leaves} leaves"
    heights = np.array([m.height for m in dendrogram.merges])
    if np.any(np.diff(heights) < 0):
        return "merge heights decrease"
    return None


def gate_mixture_weights(out: dict, truth: dict) -> str | None:
    for m in out["mixtures"]:
        if np.any(m.x < 0) or not _close(float(m.x.sum()), 1.0):
            return f"tower {m.tower_id}: weights {m.x.tolist()} are not on the simplex"
    return None


def gate_mixture_recovery(out: dict, truth: dict) -> str | None:
    """solve_mixture must give back the weights of points built as exact
    convex combinations of the polygon's vertices. Most generated mix towers
    lie outside the simplex in feature space, so ``mixture_mae`` alone cannot
    tell a correct solver from one that returns any point of the simplex."""
    polygon = out["polygon"]
    weights = np.unique(np.array(list(truth["mix_weights"].values())), axis=0)
    for w in np.concatenate([np.eye(4), weights]):
        got = decompose.solve_mixture(polygon.matrix @ w, polygon).x
        if not np.max(np.abs(got - w)) <= RECOVERY_TOL:
            return f"weights {w.tolist()} came back as {got.tolist()}"
    return None


def gate_quality_floors(out: dict, truth: dict) -> str | None:
    q = out["quality"]
    if not q["ari"] >= ARI_FLOOR:
        return f"ari {q['ari']:.4f} below floor {ARI_FLOOR}"
    if not q["poi_match"] >= POI_MATCH_FLOOR:
        return f"poi_match {q['poi_match']:.4f} below floor {POI_MATCH_FLOOR}"
    return None


def gate_round_trip(out: dict, truth: dict) -> str | None:
    if not out["staged"]:
        return None
    written = out["binned"].series
    if list(out["series"]) != list(written) or not all(
        np.array_equal(out["series"][t].slot_bytes, written[t].slot_bytes) for t in written
    ):
        return "binned series read back differ from those written"
    mem = np.stack([v.values for v in out["vectors_mem"]])
    for fmt in ("csv", "bin"):
        back = out[f"vectors_{fmt}"]
        if [v.tower_id for v in back] != [v.tower_id for v in out["vectors_mem"]]:
            return f"vectors read back from {fmt} list other towers"
        if not np.array_equal(np.stack([v.values for v in back]), mem):
            return f"vectors read back from {fmt} differ from those written"
    if out["assignments"] != out["model"].assignments:
        return "assignments read back differ from those written"
    features = [(f.tower_id, f.as_array().tolist()) for f in out["features"]]
    if features != [(f.tower_id, f.as_array().tolist()) for f in out["features_mem"]]:
        return "spectral features read back differ from those written"
    mem_x = np.stack([m.x for m in out["mixtures_mem"]])
    if not np.array_equal(np.stack([m.x for m in out["mixtures"]]), mem_x):
        return "mixtures read back differ from those written"
    return None


GATES = (
    gate_bytes_conserved,
    gate_ingest_counts,
    gate_dendrogram,
    gate_mixture_weights,
    gate_mixture_recovery,
    gate_quality_floors,
    gate_round_trip,
)


def check_gates(out: dict, truth: dict) -> list[str]:
    failures = []
    for gate in GATES:
        msg = gate(out, truth)
        if msg is not None:
            failures.append(f"{gate.__name__}: {msg}")
    return failures


# --- per-layer numbers ----------------------------------------------------


def layer_metrics(out: dict, tracer: Tracer, pipeline_s: float, artefact_bytes: int) -> dict:
    self_s = tracer.self_times()
    # the spans' own cost, measured after the run; it is part of pipeline_s
    span_cost = span_cost_s()
    m = {f"{name}.s": t for name, t in self_s.items() if name != "pipeline"}
    m["trace.unattributed_s"] = self_s["pipeline"]
    m["ingest.parse_sessions.rows_per_s"] = (
        (len(out["sessions"]) + len(out["rejects"])) / self_s["ingest.parse_sessions"]
    )
    m["ingest.bin_traffic.sessions_per_s"] = len(out["deduped"]) / self_s["ingest.bin_traffic"]
    m["ingest.rows_rejected"] = len(out["rejects"])
    m["ingest.dedup_collapsed"] = len(out["sessions"]) - len(out["deduped"])
    m["ingest.unknown_tower_sessions"] = out["binned"].unknown_towers
    m["ingest.out_of_window_bytes"] = out["binned"].out_of_window_bytes
    m["ingest.binned_rows"] = int(
        sum(np.count_nonzero(s.slot_bytes) for s in out["binned"].series.values())
    )
    m["vectorize.degenerate"] = sum(v.degenerate for v in out["vectors"])
    n = len(out["usable"])
    m["cluster.hac_average_linkage.rss_growth_mb"] = out["hac_rss_growth_mb"]
    m["cluster.dist_bytes"] = n * n * 8  # computed from n, not measured
    m["cluster.dbi_evals"] = len(out["dbi_trace"])
    m["cluster.r_chosen"] = out["model"].r
    # dft, principal_components and reconstruction_energy_ratio per tower,
    # plus one amplitude_variance
    m["spectrum.calls"] = 3 * n + 1
    m["decompose.solve_mixture.towers_per_s"] = (
        len(out["mixtures"]) / self_s["decompose.solve_mixture"]
    )
    m["decompose.exterior_share"] = float(
        np.mean([mx.residual > EXTERIOR_RESIDUAL for mx in out["mixtures"]])
    )
    # POI candidate examination, recomputed outside the timed run
    grid = poi.PoiGrid(out["pois"])
    examined = sum(
        grid.candidates(t.lat, t.lon, poi.DEFAULT_RADIUS_M).size
        for t in out["registry"].values()
    )
    within = int(sum(c.sum() for c in out["counts"].values()))
    m["poi.candidates_per_tower"] = examined / len(out["registry"])
    m["poi.hit_ratio"] = within / examined if examined else 0.0
    m["poi.ntfidf_undefined_share"] = float(
        np.mean([p.ntfidf is None for p in out["poi_profiles"].values()])
    )
    m["vectorize.bytes_written"] = sum(
        (out["workdir"] / name).stat().st_size
        for name in ("vectors.csv", "vectors.bin")
        if out["staged"]
    )
    m["artefact_mb"] = artefact_bytes / MIB
    m["trace.pipeline_s"] = pipeline_s
    m["trace.overhead_s"] = len(tracer.spans) * span_cost
    return m


def probe() -> float:
    """Seconds for a fixed mix of string, dict and numpy work.

    A shared host's CPU speed drifts by 10-30% over minutes, and differs
    between its cores. Timed in this process right before the pipeline and
    again after its outputs are freed, the mean of the two probes tracks the
    speed the pipeline ran at; the caller scales the pipeline's times by it.
    The collector is off while the probe runs: its cost grows with the live
    heap, which the code under test sets, not the host.
    """
    gc.disable()
    t0 = perf_counter()
    for _ in range(4):
        rows = [f"u{i},T{i % 300:05d},{i},{2 * i},{i % 977}" for i in range(40_000)]
        fields = [r.split(",") for r in rows]
        sorted({(f[0], f[1]): int(f[4]) for f in fields}.items())
        a = np.arange(300_000, dtype=float)
        for _ in range(8):
            a = np.sqrt(a * a + 1.0)
    elapsed = perf_counter() - t0
    gc.enable()
    return elapsed


def _os_threads() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--city", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if not Path(cellmine.__file__).resolve().is_relative_to(src):
        print(f"cellmine was imported from {cellmine.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    truth = json.loads((args.city / "truth.json").read_text())
    tracer = Tracer(bool(args.trace))
    args.workdir.mkdir(parents=True, exist_ok=True)

    probe_before = probe()
    t0 = perf_counter()
    out = run_pipeline(
        args.city, args.workdir, truth["origin_epoch_s"], truth["days"], workload.staged, tracer
    )
    pipeline_s = perf_counter() - t0
    peak_rss_mb = _maxrss_mb()

    out["workdir"] = args.workdir
    out["quality"] = quality(out, truth)
    failures = check_gates(out, truth)
    artefact_bytes = sum(p.stat().st_size for p in args.workdir.iterdir())
    result = {
        "ready_at": READY_AT,
        "pipeline_s": pipeline_s,
        "towers": len(out["registry"]),
        "peak_rss_mb": peak_rss_mb,
        "artefact_bytes": artefact_bytes,
        "failures": failures,
        "os_threads": _os_threads(),
        **out["quality"],
    }
    if tracer.enabled:
        result["layers"] = layer_metrics(out, tracer, pipeline_s, artefact_bytes)
        result["spans"] = tracer.spans
    # The closing probe runs once the pipeline's objects are freed, so that
    # the heap the code under test leaves behind does not set the scale.
    del out
    gc.collect()
    result["probe_s"] = (probe_before + probe()) / 2.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
