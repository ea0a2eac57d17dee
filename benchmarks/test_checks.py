"""The benchmark's checks reject corrupted outputs; the tracer restores what it wraps.

Run with ``python3 -m pytest benchmarks`` from the repository root (outside
the Tier-1 suite's ``testpaths``).
"""
from __future__ import annotations

import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import privstream as ps  # noqa: E402
from privstream import experiment  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402

K, EPS, THETA = 3, 1.0, 0.2


def _privacy(composition="basic", epsilon=EPS, delta=1e-3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return ps.PrivacyParams(epsilon, delta, composition)


@pytest.fixture(scope="module")
def instance():
    clients = ps.synth_mixture(3, 60, 10.0, np.random.default_rng(5)).points
    grid = checks.desk_grid(clients, 6)
    stream = [tuple(map(float, p)) for p in grid]
    oracle = ps.kmedians_oracle(clients, stream)
    return clients, grid, stream, oracle


@pytest.fixture(scope="module", params=[("gumbel", "basic"), ("laplace", "advanced")])
def private_run(request, instance):
    clients, grid, stream, oracle = instance
    kind, composition = request.param
    cfg = ps.PssmConfig(k=K, theta=THETA, privacy=_privacy(composition), noise_kind=kind,
                        m_bound=float(len(clients)), n_bound=len(stream), master_seed=11)
    selected, diag = ps.pssm(oracle, stream, cfg)
    return kind, composition, selected, diag


def _check_run(instance, private_run, selected=None, diag=None):
    clients, grid, stream, _ = instance
    kind, composition, good_selected, good_diag = private_run
    checks.check_private_run(
        good_selected if selected is None else selected, good_diag if diag is None else diag,
        kind=kind, composition=composition, k=K, epsilon=EPS, delta=1e-3, theta=THETA,
        m=float(len(clients)), stream=stream, clients=clients,
        G=checks.l1_normalizer(clients, grid))


def test_private_run_passes(instance, private_run):
    _check_run(instance, private_run)


def test_private_run_rejects_k_plus_one_elements(instance, private_run):
    _, _, stream, _ = instance
    selected = private_run[2]
    extra = [e for e in stream if e not in selected][: K + 1 - len(selected)]
    with pytest.raises(CheckFailed, match="exceeds k"):
        _check_run(instance, private_run, selected=selected + extra)


def test_private_run_rejects_repeated_and_foreign_elements(instance, private_run):
    selected = private_run[2]
    assert selected, "the run must select something for this test"
    with pytest.raises(CheckFailed, match="repeated"):
        _check_run(instance, private_run, selected=[selected[0], selected[0]])
    with pytest.raises(CheckFailed, match="outside the stream"):
        _check_run(instance, private_run, selected=[(-1e6, -1e6)])


def test_private_run_rejects_a_value_that_is_off(instance, private_run):
    diag = private_run[3]
    values = list(diag.per_guess_values)
    values[diag.chosen_index] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="f\\(S\\)"):
        _check_run(instance, private_run, diag=replace(diag, per_guess_values=tuple(values)))


def test_private_run_rejects_a_wrong_ladder_or_scale(instance, private_run):
    kind, _, _, diag = private_run
    with pytest.raises(CheckFailed):
        _check_run(instance, private_run, diag=replace(diag, guesses=diag.guesses[1:]))
    field = "laplace_scale" if kind == "laplace" else "gumbel_scale"
    budget = replace(diag.budget, **{field: getattr(diag.budget, field) * 1.01})
    with pytest.raises(CheckFailed, match="scale"):
        _check_run(instance, private_run, diag=replace(diag, budget=budget))
    with pytest.raises(CheckFailed, match="stream_length"):
        _check_run(instance, private_run, diag=replace(diag, stream_length=diag.stream_length + 1))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    cfg = ps.ExperimentConfig(components=3, points_per_component=40, box_side=10.0,
                              grid_side=6, k_values=(2, 3), epsilon_values=(0.5, 1.0),
                              repetitions=2, master_seed=4, shuffle_stream=True,
                              out_dir=str(tmp_path_factory.mktemp("sweep")), prefix="t_")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = ps.run_experiment(cfg)
    paths = ps.emit_csv(report, cfg.out_dir, cfg.prefix)
    texts = {p.name: p.read_text(encoding="utf-8") for p in paths}
    clients = experiment._load_clients(cfg).points
    return cfg, texts, clients


def _check_sweep(sweep, texts=None):
    cfg, good, clients = sweep
    checks.check_sweep(good if texts is None else texts, cfg.epsilon_values, cfg.k_values,
                       cfg.theta, cfg.repetitions, clients,
                       checks.desk_grid(clients, cfg.grid_side))


def _edit_cell(texts, column, value):
    name = sorted(texts)[0]
    lines = texts[name].splitlines()
    fields = lines[1].split(",")
    fields[1 + 2 * checks.CSV_METHODS.index(column)] = value
    lines[1] = ",".join(fields)
    return {**texts, name: "\n".join(lines) + "\n"}


def test_sweep_passes(sweep):
    _check_sweep(sweep)


def test_sweep_rejects_a_nonprivate_cost_that_is_off(sweep):
    cfg, texts, clients = sweep
    G = checks.l1_normalizer(clients, checks.desk_grid(clients, cfg.grid_side))
    # Still inside (0, |P| G], but far worse than the threshold guarantee allows.
    with pytest.raises(CheckFailed, match="threshold guarantee"):
        _check_sweep(sweep, _edit_cell(texts, "Non-private", repr(0.99 * len(clients) * G)))


def test_sweep_rejects_a_cost_below_any_k_set(sweep):
    _, texts, _ = sweep
    mean = float(texts[sorted(texts)[0]].splitlines()[1].split(",")[1])
    with pytest.raises(CheckFailed, match="above the bound"):
        _check_sweep(sweep, _edit_cell(texts, "Laplace", repr(mean * 0.01)))


def test_sweep_rejects_costs_out_of_range_and_empty_cells(sweep):
    _, texts, _ = sweep
    with pytest.raises(CheckFailed, match="outside"):
        _check_sweep(sweep, _edit_cell(texts, "Random", "0.0"))
    with pytest.raises(CheckFailed, match="empty"):
        _check_sweep(sweep, _edit_cell(texts, "Ours", ""))
    name = sorted(texts)[0]
    with pytest.raises(CheckFailed, match="header"):
        _check_sweep(sweep, {**texts, name: texts[name].replace("Ours", "Gumbel", 1)})


@pytest.fixture(scope="module")
def audit_counts():
    stream = [0, 1, 2, 3]
    cfg = ps.PssmConfig(k=2, theta=0.2, privacy=_privacy("basic", 1.0, 1e-4), noise_kind="gumbel",
                        m_bound=3.0, n_bound=4)
    tables = []
    for records in ([0, 1, 2], [0, 1]):
        oracle = ps.coverage_oracle(records)
        counts = Counter()
        for seed in range(2000):
            cfg.master_seed = seed
            selected, _ = ps.pssm(oracle, stream, cfg)
            counts[frozenset(selected)] += 1
        tables.append(counts)
    return tables


def test_audit_passes(audit_counts):
    counts_a, counts_b = audit_counts
    assert checks.check_audit(counts_a, counts_b, 2000, 1.0, 1e-4, [0, 1, 2, 3], 2) > 0


def test_audit_rejects_a_swapped_frequency_table(audit_counts):
    counts_a, counts_b = audit_counts
    ranked = [key for key, _ in counts_a.most_common()]
    swapped = Counter(counts_a)
    swapped[ranked[0]], swapped[ranked[-1]] = counts_a[ranked[-1]], counts_a[ranked[0]]
    with pytest.raises(CheckFailed, match="breaks"):
        checks.check_audit(swapped, counts_b, 2000, 1.0, 1e-4, [0, 1, 2, 3], 2)


def test_audit_rejects_impossible_outputs_and_lost_runs(audit_counts):
    counts_a, counts_b = audit_counts
    with pytest.raises(CheckFailed, match="sum"):
        checks.check_audit(counts_a, counts_b, 2001, 1.0, 1e-4, [0, 1, 2, 3], 2)
    moved = Counter(counts_a)
    key = next(iter(moved))
    moved[key] -= 1
    moved[frozenset({0, 1, 2})] += 1
    with pytest.raises(CheckFailed, match="impossible"):
        checks.check_audit(moved, counts_b, 2000, 1.0, 1e-4, [0, 1, 2, 3], 2)


def test_tracer_self_time_and_restore():
    import privstream.streaming as streaming

    original = streaming.build_guess_ladder
    tracer = Tracer()
    tracer.patch(streaming, "build_guess_ladder", "ladder")
    tracer.patch(streaming, "pssm", "pssm", span=True)
    assert ps.build_guess_ladder is not original  # the package binding is wrapped too
    cfg = ps.PssmConfig(k=2, theta=0.2, privacy=_privacy("basic", 1.0, 1e-4), noise_kind="gumbel",
                        m_bound=3.0, n_bound=4)
    ps.pssm(ps.coverage_oracle([0, 1, 2]), [0, 1, 2, 3], cfg)
    tracer.restore()
    assert streaming.build_guess_ladder is original and ps.build_guess_ladder is original
    count, total, own = tracer.agg("", "ladder", parent="pssm")
    assert count == 1 and 0 < own <= total
    pssm_count, pssm_total, pssm_self = tracer.agg("", "pssm")
    assert pssm_count == 1 and len(tracer.spans) == 1
    assert pssm_self == pytest.approx(pssm_total - total)
