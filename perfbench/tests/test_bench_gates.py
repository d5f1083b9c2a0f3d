import copy
import dataclasses

import numpy as np
import pytest

import pipeline
from cellmine import decompose


@pytest.fixture(scope="module")
def clean(smoke_city, tmp_path_factory):
    directory, truth = smoke_city
    workdir = tmp_path_factory.mktemp("work")
    out = pipeline.run_pipeline(
        directory, workdir, truth["origin_epoch_s"], truth["days"], True, pipeline.Tracer(False)
    )
    out["workdir"] = workdir
    out["quality"] = pipeline.quality(out, truth)
    return out, truth


def test_gates_pass_on_a_clean_run(clean):
    out, truth = clean
    assert pipeline.check_gates(out, truth) == []


def _bump_binned(out):
    series = next(iter(out["binned"].series.values()))
    series.slot_bytes[np.argmax(series.slot_bytes)] += 1000.0


def _inflate_session(out):
    first = out["deduped"][0]
    out["deduped"][0] = dataclasses.replace(first, bytes=first.bytes + 10**6)


def _lower_last_merge(out):
    merges = out["dendrogram"].merges
    merges[-1] = merges[-1]._replace(height=merges[-2].height / 2)


def _move_weight(out):
    out["mixtures"][0].x = np.array([1.5, -0.5, 0.0, 0.0])


def _inflate_weights(out):
    out["mixtures"][0].x = np.array([0.4, 0.3, 0.2, 0.2])


def _flip_assignment(out):
    tower = next(iter(out["assignments"]))
    out["assignments"] = {**out["assignments"], tower: out["assignments"][tower] % 4 + 1}


CORRUPTIONS = [
    ("gate_bytes_conserved", _bump_binned),
    ("gate_bytes_conserved", _inflate_session),
    ("gate_ingest_counts", lambda out: out["rejects"].pop()),
    ("gate_ingest_counts", lambda out: setattr(out["binned"], "unknown_towers", 0)),
    ("gate_ingest_counts", lambda out: setattr(out["binned"], "out_of_window_bytes", 1.0)),
    ("gate_dendrogram", lambda out: out["dendrogram"].merges.pop()),
    ("gate_dendrogram", _lower_last_merge),
    ("gate_mixture_weights", _move_weight),
    ("gate_mixture_weights", _inflate_weights),
    ("gate_quality_floors", lambda out: out["quality"].update(ari=0.7)),
    ("gate_quality_floors", lambda out: out["quality"].update(poi_match=0.5)),
    ("gate_round_trip", lambda out: out["series"].popitem()),
    ("gate_round_trip", lambda out: out["vectors_csv"][0].values.__setitem__(0, 9.0)),
    ("gate_round_trip", lambda out: out["features"].reverse()),
    ("gate_round_trip", lambda out: out["vectors_bin"].pop()),
    ("gate_round_trip", _flip_assignment),
]


@pytest.mark.parametrize("gate,corrupt", CORRUPTIONS)
def test_each_gate_trips_on_corrupted_output(clean, gate, corrupt):
    out, truth = clean
    broken = copy.deepcopy(out)
    corrupt(broken)
    failures = pipeline.check_gates(broken, truth)
    assert gate in [f.split(":")[0] for f in failures], failures


def test_recovery_gate_trips_on_a_solver_that_returns_uniform_weights(clean, monkeypatch):
    out, truth = clean

    def uniform(point, model):
        return decompose.MixtureCoefficients("", np.full(4, 0.25), 0.0)

    monkeypatch.setattr(decompose, "solve_mixture", uniform)
    failures = pipeline.check_gates(out, truth)
    assert [f.split(":")[0] for f in failures] == ["gate_mixture_recovery"], failures


def test_uniform_guess_scores_the_lattice_mixes(clean):
    out, truth = clean
    mixes = [np.asarray(w) for w in truth["mix_weights"].values()]
    assert out["quality"]["uniform_guess_mae"] == pytest.approx(
        np.mean([np.abs(w - 0.25) for w in mixes])
    )


def test_ari_recovers_relabelled_partition():
    assert pipeline.adjusted_rand_index([0, 0, 1, 1, 2], [5, 5, 3, 3, 9]) == 1.0
    assert pipeline.adjusted_rand_index([0, 0, 1, 1], [1, 2, 1, 2]) < 0
