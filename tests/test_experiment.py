import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privstream import experiment
from privstream.experiment import (
    CSV_HEADER,
    METHODS,
    ExperimentConfig,
    _best_singleton,
    _build_stream,
    _load_clients,
    _run_nonprivate,
    _stream_for_rep,
    emit_csv,
    format_eps,
    load_config,
    parse_config_text,
    run_experiment,
)
from privstream.objectives import kmedians_oracle
from privstream.streaming import build_guess_ladder
from support import brute_force_opt, per_guess_tail_fill, read_report_csv

TINY = dict(
    components=2,
    points_per_component=30,
    grid_side=6,
    k_values=(2, 4),
    epsilon_values=(0.5,),
    repetitions=3,
    master_seed=11,
)


def test_format_eps():
    assert format_eps(0.1) == "1E-1"
    assert format_eps(1.0) == "1E0"
    assert format_eps(0.5) == "5E-1"
    assert format_eps(2.5) == "2.5E0"


def test_parse_config_text():
    text = """
    # benchmark settings
    dataset = synthetic
    components = 4
    k_values = 2, 3, 5
    epsilon_values = 0.1, 1.0
    theta = 0.25
    delta = auto
    shuffle_stream = false
    methods = laplace, random
    """
    values = parse_config_text(text)
    assert values["components"] == 4
    assert values["k_values"] == (2, 3, 5)
    assert values["epsilon_values"] == (0.1, 1.0)
    assert values["delta"] is None
    assert values["shuffle_stream"] is False
    assert values["methods"] == ("laplace", "random")
    with pytest.raises(ValueError):
        parse_config_text("mystery_key = 3")
    with pytest.raises(ValueError):
        parse_config_text("just words")


# A non-default value for every ExperimentConfig field: raw text, parsed value.
NON_DEFAULT_VALUES = {
    "dataset": ("csv", "csv"),
    "components": ("4", 4),
    "points_per_component": ("120", 120),
    "box_side": ("12", 12.0),
    "csv_path": ("data/points.csv", "data/points.csv"),
    "x_column": ("lon", "lon"),
    "y_column": ("lat", "lat"),
    "max_rows": ("250", 250),
    "grid_side": ("12", 12),
    "k_values": ("3, 7", (3, 7)),
    "epsilon_values": ("0.5, 2", (0.5, 2.0)),
    "theta": ("0.3", 0.3),
    "delta": ("1e-4", 1e-4),
    "repetitions": ("5", 5),
    "composition": ("advanced", "advanced"),
    "master_seed": ("9", 9),
    "methods": ("gumbel, random", ("gumbel", "random")),
    "shuffle_stream": ("yes", True),
    "eta": ("0.05", 0.05),
    "out_dir": ("out/run1", "out/run1"),
    "prefix": ("desk_", "desk_"),
}


def test_parse_config_text_every_field():
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(NON_DEFAULT_VALUES) == sorted(fields)
    default = ExperimentConfig()
    for key, (raw, expected) in NON_DEFAULT_VALUES.items():
        value = parse_config_text(f"{key} = {raw}")[key]
        assert value == expected and value != getattr(default, key), key
        assert type(value) is type(expected), key
        if isinstance(value, tuple):
            assert [type(v) for v in value] == [type(v) for v in expected], key
    text = "\n".join(f"{key} = {raw}" for key, (raw, _) in NON_DEFAULT_VALUES.items())
    cfg = ExperimentConfig(**parse_config_text(text))
    assert cfg == ExperimentConfig(**{k: v for k, (_, v) in NON_DEFAULT_VALUES.items()})
    assert parse_config_text("delta = inverse_n_1p5")["delta"] is None
    with pytest.raises(ValueError, match="boolean"):
        parse_config_text("shuffle_stream = maybe")


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("components = 4\nk_values = 2\nepsilon_values = 0.5\n")
    cfg = load_config(path, overrides={"components": "7", "theta": "0.3"})
    assert cfg.components == 7
    assert cfg.theta == 0.3
    assert cfg.k_values == (2,)


def test_override_parse_error_names_the_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("k_values = 2\n")
    for key, raw in (("repetitions", "x"), ("theta", "small"), ("k_values", "2, x")):
        with pytest.raises(ValueError, match=f"^{key}: "):
            load_config(path, overrides={key: raw})


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="parquet")
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="csv")
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("laplace", "quantum"))
    with pytest.raises(ValueError):
        ExperimentConfig(repetitions=0)
    for max_rows in (0, -1):
        with pytest.raises(ValueError, match="max_rows"):
            ExperimentConfig(max_rows=max_rows)
    for k_values in ((), (0,), (5, -1), (2.5,)):
        with pytest.raises(ValueError, match="k_values"):
            ExperimentConfig(k_values=k_values)
    for epsilon_values in ((), (math.nan,), (0.0,), (-1.0,), (math.inf,), (1.0, math.nan)):
        with pytest.raises(ValueError, match="epsilon_values"):
            ExperimentConfig(epsilon_values=epsilon_values)
    # A repeated value would run its cells twice; the CSVs show one of them.
    with pytest.raises(ValueError, match="k_values"):
        ExperimentConfig(k_values=(5, 10, 5))
    with pytest.raises(ValueError, match="epsilon_values"):
        ExperimentConfig(epsilon_values=(0.5, 0.5))
    # Distinct epsilons with one file label would write one CSV twice.
    assert format_eps(0.1) == format_eps(0.1000000001)
    with pytest.raises(ValueError, match="epsilon_values"):
        ExperimentConfig(epsilon_values=(0.1, 0.1000000001))
    with pytest.raises(ValueError, match="methods"):
        ExperimentConfig(methods=())
    # Out-of-contract privacy inputs fail at construction, not in every
    # private cell.
    for eta in (0.0, 1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="eta"):
            ExperimentConfig(eta=eta)
    with pytest.raises(ValueError, match="composition"):
        ExperimentConfig(composition="sequential")
    for delta in (0.0, 1.0, -1e-6, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta"):
            ExperimentConfig(delta=delta)
    assert ExperimentConfig(delta=None, composition="advanced", eta=0.5).delta is None


def test_config_rejects_non_integer_int_fields():
    # A config file parses these with int(); in code, 2.5 repetitions used
    # to fail every cell, a float grid side died with a bare TypeError and
    # master_seed=1.5 ran as seed 1.
    bad = dict(components=2.0, points_per_component=10.5, max_rows=3.5, grid_side=3.0,
               repetitions=2.5, master_seed=1.5)
    for name, value in bad.items():
        for wrong in (value, "3", True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                ExperimentConfig(**{name: wrong})
    cfg = ExperimentConfig(components=np.int64(2), max_rows=None, master_seed=-3)
    assert (cfg.components, cfg.max_rows, cfg.master_seed) == (2, None, -3)


def test_degenerate_instance_fails_every_cell_not_the_sweep():
    # One client makes every grid point coincide with it, so G = 0 and any
    # oracle value raises; the best-singleton scan must fail inside a cell.
    # The explicit delta keeps the private methods running into G = 0 too.
    cfg = ExperimentConfig(components=1, points_per_component=1, grid_side=3,
                           k_values=(1,), epsilon_values=(0.5,), repetitions=1,
                           delta=0.01)
    report = run_experiment(cfg)
    assert len(report.cells) == len(METHODS)
    assert report.failed_cells == report.cells
    for cell in report.cells:
        assert "normalizer is 0" in cell.error


def test_automatic_delta_of_one_client_is_rejected_before_any_cell():
    # 1/|P|^1.5 = 1 for one client, outside (0, 1): the sweep refuses to
    # start rather than failing every private cell on its own.
    one = dict(components=1, points_per_component=1, grid_side=3,
               k_values=(1,), epsilon_values=(0.5,), repetitions=1)
    for methods in (METHODS, ("gumbel",), ("laplace", "random")):
        with pytest.raises(ValueError, match="automatic delta"):
            run_experiment(ExperimentConfig(**one, methods=methods))
    report = run_experiment(ExperimentConfig(**one, methods=("nonprivate", "random")))
    assert report.delta == 1.0
    assert [cell.method for cell in report.failed_cells] == ["nonprivate", "random"]


def test_tiny_sweep_structure():
    report = run_experiment(ExperimentConfig(**TINY))
    assert report.client_count == 60
    assert report.grid_points == 36
    assert report.delta == pytest.approx(1.0 / 60**1.5)
    assert len(report.cells) == 4 * 2 * 1  # methods x k x eps
    for cell in report.cells:
        assert cell.error is None, cell
        assert cell.n_seeds == 3
        assert cell.mean_cost > 0
        assert cell.std_cost >= 0
        assert cell.resource_ok
    # non-private is deterministic: zero spread
    for k in (2, 4):
        cell = report.cell("nonprivate", k, 0.5)
        assert cell.std_cost == 0.0
    # more capacity never hurts the non-private baseline
    assert (
        report.cell("nonprivate", 4, 0.5).mean_cost
        <= report.cell("nonprivate", 2, 0.5).mean_cost
    )


def test_random_with_k_at_stream_size():
    cfg = ExperimentConfig(
        components=1,
        points_per_component=20,
        grid_side=3,
        k_values=(9,),
        epsilon_values=(0.5,),
        repetitions=4,
        methods=("random",),
        master_seed=3,
    )
    report = run_experiment(cfg)
    cell = report.cell("random", 9, 0.5)
    assert cell.std_cost == 0.0  # the whole 3x3 grid every time
    clients = _load_clients(cfg)
    grid = _build_stream(cfg, clients)
    assert len(grid) == 9
    assert cell.mean_cost == kmedians_oracle(clients.points, grid).clustering_cost(grid)


def test_nonprivate_approximation_on_small_instance():
    rng = np.random.default_rng(21)
    clients = rng.uniform(0, 10, size=(80, 2))
    candidates = [tuple(p) for p in rng.uniform(0, 10, size=(20, 2))]
    oracle = kmedians_oracle(clients, candidates)
    cfg = ExperimentConfig(k_values=(3,), epsilon_values=(0.5,), theta=0.2)
    best_singleton = max(oracle.evaluate([e]) for e in candidates)
    solved = _run_nonprivate(oracle, candidates, cfg, best_singleton=best_singleton)
    assert list(solved) == [(3, 0.5)]
    S = solved[3, 0.5]
    _, opt = brute_force_opt(oracle, candidates, 3)
    assert oracle.evaluate(S) >= (1 - cfg.theta) / 2 * opt


def per_eps_nonprivate(oracle, stream, theta, k, epsilon, best_singleton):
    # The non-private solve of one (k, epsilon) from a separate pass per
    # guess of its own ladder: the reference the merged pass must reproduce,
    # built without the ladder pass it checks.
    n = len(stream)
    E = min(best_singleton, k * math.log(max(n, 2)) / epsilon, oracle.num_agents / 2.0)
    guesses = build_guess_ladder(E, float(oracle.num_agents), theta)
    best_set: list = []
    best_value = -math.inf
    for O in guesses:
        S = per_guess_tail_fill(oracle, stream, k, O)
        value = oracle.evaluate(S)
        if value > best_value:
            best_value = value
            best_set = S
    return best_set


def small_kmedians(seed, clients, candidates, far):
    # With far=True the candidates sit away from the clients, so the best
    # singleton lies below m/2 and caps the ladder for small epsilon.
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 10, size=(clients, 2))
    stream = [tuple(p) for p in rng.uniform(0, 10, size=(candidates, 2)) + (30.0 if far else 0.0)]
    oracle = kmedians_oracle(points, stream)
    return oracle, stream, max(oracle.evaluate([e]) for e in stream)


def assert_merged_matches_per_eps(oracle, stream, best_singleton, ks, epsilons, theta):
    cfg = ExperimentConfig(k_values=tuple(ks), epsilon_values=tuple(epsilons), theta=theta)
    solved = _run_nonprivate(oracle, stream, cfg, best_singleton)
    assert list(solved) == [(k, epsilon) for k in ks for epsilon in epsilons]
    for k in ks:
        for epsilon in epsilons:
            assert solved[k, epsilon] == per_eps_nonprivate(oracle, stream, theta, k, epsilon,
                                                            best_singleton), (k, epsilon)


@given(
    seed=st.integers(0, 2**16),
    clients=st.integers(5, 40),
    candidates=st.integers(2, 12),
    far=st.booleans(),
    ks=st.lists(st.integers(1, 13), min_size=1, max_size=3, unique=True),
    # Distinct file labels: a config rejects two epsilons that share one.
    epsilons=st.lists(st.floats(0.01, 20.0), min_size=1, max_size=4, unique_by=format_eps),
    theta=st.sampled_from([0.1, 0.2, 0.5, 0.9]),
)
@settings(max_examples=60, deadline=None)
def test_merged_nonprivate_pass_matches_per_eps_passes(seed, clients, candidates, far, ks,
                                                       epsilons, theta):
    # k reaches past the stream's 2-12 candidates, where the tail fill
    # takes every element.
    oracle, stream, best_singleton = small_kmedians(seed, clients, candidates, far)
    assert_merged_matches_per_eps(oracle, stream, best_singleton, ks, epsilons, theta)


def test_merged_nonprivate_pass_covers_each_ladder_end():
    # E = min(best singleton, k ln n / eps, m/2); each term binds for one of
    # the epsilons below, which are given unsorted.
    oracle, stream, best_singleton = small_kmedians(5, 30, 8, far=True)
    k, n, m = 2, len(stream), oracle.num_agents
    assert best_singleton < m / 2.0
    capped = k * math.log(n) / (2.0 * best_singleton)  # E = best singleton
    halved = k * math.log(n) / (0.5 * best_singleton)  # E = k ln n / eps
    assert_merged_matches_per_eps(oracle, stream, best_singleton, [k], [halved, 20.0, capped], 0.2)
    # Near clients the best singleton exceeds m/2, so a small epsilon's
    # ladder shrinks to its shortest form, {m/2, ..., m}.
    oracle, stream, best_singleton = small_kmedians(5, 30, 8, far=False)
    assert best_singleton >= oracle.num_agents / 2.0
    assert_merged_matches_per_eps(oracle, stream, best_singleton, [k, 5], [1.0, 1e-6], 0.9)


@pytest.mark.parametrize("shuffle", [False, True])
def test_one_nonprivate_pass_per_stream_order(monkeypatch, shuffle):
    # One pass serves every (k, epsilon) of a stream order; without
    # shuffling, every repetition streams one order and shares one pass.
    passes = []
    one_pass = experiment.threshold_stream_with_tail_fill

    def counted(f, V, ladders):
        passes.append(list(ladders))
        return one_pass(f, V, ladders)

    monkeypatch.setattr(experiment, "threshold_stream_with_tail_fill", counted)
    cfg = ExperimentConfig(**{**TINY, "epsilon_values": (0.5, 2.0), "methods": ("nonprivate",),
                              "shuffle_stream": shuffle})
    report = run_experiment(cfg)
    assert passes == [list(cfg.k_values)] * (cfg.repetitions if shuffle else 1)
    clients = _load_clients(cfg)
    stream = _build_stream(cfg, clients)
    oracle = kmedians_oracle(clients.points, stream)
    best_singleton = max(oracle.evaluate([e]) for e in stream)
    for k in cfg.k_values:
        for epsilon in cfg.epsilon_values:
            costs = [oracle.clustering_cost(per_eps_nonprivate(
                oracle, _stream_for_rep(cfg, stream, rep), cfg.theta, k, epsilon, best_singleton))
                for rep in range(cfg.repetitions)]
            assert report.cell("nonprivate", k, epsilon).mean_cost == np.mean(costs)


def test_best_singleton_stops_once_no_cap_can_bind():
    oracle, stream, best = small_kmedians(3, 30, 12, far=False)
    values = [oracle.evaluate([e]) for e in stream]
    assert _best_singleton(oracle, stream, math.inf) == best
    for needed in sorted(values) + [best / 2.0]:
        early = _best_singleton(oracle, stream, needed)
        for floor in (needed, needed / 3.0):
            assert min(early, floor) == min(best, floor)


def test_emit_and_read_back(tmp_path):
    report = run_experiment(ExperimentConfig(**TINY))
    paths = emit_csv(report, tmp_path, prefix="tiny_")
    assert [p.name for p in paths] == ["tiny_eps_5E-1.csv"]
    parsed = read_report_csv(paths[0])
    for k in (2, 4):
        for method, label in (("laplace", "Laplace"), ("gumbel", "Ours"),
                              ("nonprivate", "Non-private"), ("random", "Random")):
            cell = report.cell(method, k, 0.5)
            mean, std = parsed[(k, label)]
            assert mean == cell.mean_cost  # repr round-trip is exact
            assert std == cell.std_cost


def test_emit_missing_method_columns(tmp_path):
    cfg = ExperimentConfig(**{**TINY, "methods": ("random",), "k_values": (2,)})
    report = run_experiment(cfg)
    paths = emit_csv(report, tmp_path)
    lines = paths[0].read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2  # header + single k row
    fields = lines[1].split(",")
    assert fields[0] == "2"
    assert fields[1:7] == [""] * 6  # laplace/gumbel/non-private empty
    assert fields[7] != ""


def test_byte_identical_reruns(tmp_path):
    cfg = ExperimentConfig(**TINY)
    a = emit_csv(run_experiment(cfg), tmp_path / "a")
    b = emit_csv(run_experiment(cfg), tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_shuffled_stream_is_deterministic_too(tmp_path):
    cfg = ExperimentConfig(**{**TINY, "shuffle_stream": True})
    a = emit_csv(run_experiment(cfg), tmp_path / "a")
    b = emit_csv(run_experiment(cfg), tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
