"""Frozen outputs of the noise engine and of ``pssm`` for fixed seeds.

Every value below was produced by an earlier implementation (a separate
uniform-stream object per source, a full seed mix per rung stream, and set
values re-evaluated after the pass; the desk CSVs by one that computed every
threshold check's marginal and cached a full k-medians column per element)
and is checked bit for bit. A change
that moves any of them changes results for fixed seeds and must say so.
"""
import hashlib
import warnings

import pytest

from privstream.accounting import PrivacyParams
from privstream.experiment import ExperimentConfig, emit_csv, run_experiment
from privstream.noise import LAPLACE, NoiseSource, derive_seed
from privstream.objectives import coverage_oracle, kmedians_oracle
from privstream.streaming import PssmConfig, pssm

# (kind, seed) -> first six values of -1.25 + NoiseSource(kind, 2.5, seed).draw()
DRAWS = {
    ('laplace', 5): (-2.844469649157869, -3.460494311391729, 11.264930318930462, -10.715872845426395, -0.5732039439051296, -1.215792922386361),
    ('laplace', (3, 1, 4)): (0.5654464312825827, -0.4177331278545061, 0.656828602515529, -1.0677078743738537, -2.351168508972241, 0.5109669020463579),
    ('laplace', (9223372036854775819, 7, 1)): (-0.4679891422083443, -1.370921002441165, 2.110343166031394, -2.761712266977474, -1.6631541358266213, -6.5041927408032505),
    ('gumbel', 5): (-1.964704332450266, -2.3893574842913416, 12.993606275404366, -4.9987765281287455, 0.5832480422746766, -0.28455318939522867),
    ('gumbel', (3, 1, 4)): (1.9601595550513666, 0.7808456601366718, 2.0651322052755217, -0.0757418684829616, -1.5635281866276558, 1.8972744149497527),
    ('gumbel', (9223372036854775819, 7, 1)): (0.7173936830453629, -0.5023522397758755, 3.670616785887292, -1.9017381182956359, -0.8683130113960159, -3.819423085262837),
}
# seed parts -> derive_seed(*parts)
SEEDS = {
    (0,): 15590649930234121703,
    (1,): 13485181245526511831,
    (0, 0, 0): 12224977219095713868,
    (7, 3, 1): 16489929520529714200,
    (18446744073709551615, 9223372036854775808, 5): 15589511962179953660,
    (123456789, 4, 2): 2239586183053216690,
    (-1,): 8658983634636877031,
}
# Criterion 9's coverage pair: (records, kind, composition, master_seed) ->
# (selected, chosen_index, per_guess_values, per_guess_sizes) on stream
# [0, 1, 2, 3], k=2, theta=0.2, eps=1, delta=1e-4, m_bound=3, n_bound=4.
COVERAGE = {
    ((0, 1, 2), 'gumbel', 'basic', 0): ([], 3, (0.0, 1.0, 2.0, 0.0, 0.0), (0, 1, 2, 0, 0)),
    ((0, 1, 2), 'gumbel', 'basic', 1): ([], 1, (0.0, 0.0, 0.0, 1.0, 2.0), (0, 0, 0, 2, 2)),
    ((0, 1, 2), 'gumbel', 'basic', 99): ([0], 4, (1.0, 2.0, 2.0, 2.0, 1.0), (1, 2, 2, 2, 1)),
    ((0, 1, 2), 'gumbel', 'basic', 1099511627779): ([1], 3, (0.0, 0.0, 0.0, 1.0, 1.0), (0, 0, 0, 1, 2)),
    ((0, 1, 2), 'gumbel', 'advanced', 0): ([], 3, (0.0, 1.0, 2.0, 0.0, 0.0), (0, 1, 2, 0, 0)),
    ((0, 1, 2), 'gumbel', 'advanced', 1): ([], 1, (0.0, 0.0, 0.0, 1.0, 2.0), (0, 0, 0, 2, 2)),
    ((0, 1, 2), 'gumbel', 'advanced', 99): ([0], 4, (1.0, 2.0, 2.0, 2.0, 1.0), (1, 2, 2, 2, 1)),
    ((0, 1, 2), 'gumbel', 'advanced', 1099511627779): ([1], 3, (0.0, 0.0, 0.0, 1.0, 1.0), (0, 0, 0, 1, 2)),
    ((0, 1, 2), 'laplace', 'basic', 0): ([1, 2], 0, (2.0, 1.0, 2.0, 0.0, 0.0), (2, 1, 2, 0, 0)),
    ((0, 1, 2), 'laplace', 'basic', 1): ([1, 2], 3, (0.0, 0.0, 1.0, 2.0, 2.0), (0, 0, 1, 2, 2)),
    ((0, 1, 2), 'laplace', 'basic', 99): ([0, 1], 4, (1.0, 2.0, 2.0, 2.0, 2.0), (1, 2, 2, 2, 2)),
    ((0, 1, 2), 'laplace', 'basic', 1099511627779): ([1], 3, (1.0, 1.0, 0.0, 1.0, 0.0), (2, 1, 0, 1, 1)),
    ((0, 1, 2), 'laplace', 'advanced', 0): ([1, 2], 0, (2.0, 1.0, 2.0, 0.0, 0.0), (2, 1, 2, 0, 0)),
    ((0, 1, 2), 'laplace', 'advanced', 1): ([1, 2], 3, (0.0, 0.0, 1.0, 2.0, 2.0), (0, 0, 1, 2, 2)),
    ((0, 1, 2), 'laplace', 'advanced', 99): ([0, 1], 4, (1.0, 2.0, 2.0, 2.0, 2.0), (1, 2, 2, 2, 2)),
    ((0, 1, 2), 'laplace', 'advanced', 1099511627779): ([1], 3, (1.0, 1.0, 0.0, 1.0, 0.0), (2, 1, 0, 1, 1)),
    ((0, 1, 2), 'zero', 'advanced', 0): ([0, 1], 0, (2.0, 2.0, 2.0, 2.0, 2.0), (2, 2, 2, 2, 2)),
    ((0, 1, 2), 'zero', 'advanced', 1): ([0, 1], 0, (2.0, 2.0, 2.0, 2.0, 2.0), (2, 2, 2, 2, 2)),
    ((0, 1, 2), 'zero', 'advanced', 99): ([0, 1], 0, (2.0, 2.0, 2.0, 2.0, 2.0), (2, 2, 2, 2, 2)),
    ((0, 1, 2), 'zero', 'advanced', 1099511627779): ([0, 1], 0, (2.0, 2.0, 2.0, 2.0, 2.0), (2, 2, 2, 2, 2)),
    ((0, 1), 'gumbel', 'basic', 0): ([], 3, (0.0, 1.0, 2.0, 0.0, 0.0), (0, 1, 2, 0, 0)),
    ((0, 1), 'gumbel', 'basic', 1): ([], 1, (0.0, 0.0, 0.0, 0.0, 1.0), (0, 0, 0, 2, 2)),
    ((0, 1), 'gumbel', 'basic', 99): ([0], 4, (1.0, 2.0, 2.0, 2.0, 1.0), (1, 2, 2, 2, 1)),
    ((0, 1), 'gumbel', 'basic', 1099511627779): ([1], 3, (0.0, 0.0, 0.0, 1.0, 1.0), (0, 0, 0, 1, 2)),
    ((0, 1), 'gumbel', 'advanced', 0): ([], 3, (0.0, 1.0, 2.0, 0.0, 0.0), (0, 1, 2, 0, 0)),
    ((0, 1), 'gumbel', 'advanced', 1): ([], 1, (0.0, 0.0, 0.0, 0.0, 1.0), (0, 0, 0, 2, 2)),
    ((0, 1), 'gumbel', 'advanced', 99): ([0], 4, (1.0, 2.0, 2.0, 2.0, 1.0), (1, 2, 2, 2, 1)),
    ((0, 1), 'gumbel', 'advanced', 1099511627779): ([1], 3, (0.0, 0.0, 0.0, 1.0, 1.0), (0, 0, 0, 1, 2)),
    ((0, 1), 'laplace', 'basic', 0): ([1, 2], 0, (1.0, 1.0, 2.0, 0.0, 0.0), (2, 1, 2, 0, 0)),
    ((0, 1), 'laplace', 'basic', 1): ([], 1, (0.0, 0.0, 1.0, 1.0, 1.0), (0, 0, 1, 2, 2)),
    ((0, 1), 'laplace', 'basic', 99): ([0, 1], 4, (1.0, 1.0, 1.0, 2.0, 2.0), (1, 2, 2, 2, 2)),
    ((0, 1), 'laplace', 'basic', 1099511627779): ([1], 3, (1.0, 1.0, 0.0, 1.0, 0.0), (2, 1, 0, 1, 1)),
    ((0, 1), 'laplace', 'advanced', 0): ([1, 2], 0, (1.0, 1.0, 2.0, 0.0, 0.0), (2, 1, 2, 0, 0)),
    ((0, 1), 'laplace', 'advanced', 1): ([], 1, (0.0, 0.0, 1.0, 1.0, 1.0), (0, 0, 1, 2, 2)),
    ((0, 1), 'laplace', 'advanced', 99): ([0, 1], 4, (1.0, 1.0, 1.0, 2.0, 2.0), (1, 2, 2, 2, 2)),
    ((0, 1), 'laplace', 'advanced', 1099511627779): ([1], 3, (1.0, 1.0, 0.0, 1.0, 0.0), (2, 1, 0, 1, 1)),
    ((0, 1), 'zero', 'advanced', 0): ([0, 1], 0, (2.0, 2.0, 2.0, 2.0, 2.0), (2, 2, 2, 2, 2)),
    ((0, 1), 'zero', 'advanced', 1): ([0, 1], 0, (2.0, 2.0, 2.0, 2.0, 2.0), (2, 2, 2, 2, 2)),
    ((0, 1), 'zero', 'advanced', 99): ([0, 1], 0, (2.0, 2.0, 2.0, 2.0, 2.0), (2, 2, 2, 2, 2)),
    ((0, 1), 'zero', 'advanced', 1099511627779): ([0, 1], 0, (2.0, 2.0, 2.0, 2.0, 2.0), (2, 2, 2, 2, 2)),
}
# 20 clients on a lattice, 12 grid candidates, k=3, theta=0.3, eps=0.5,
# delta=1e-3, m_bound=20: (kind, master_seed) -> as above.
KMEDIANS = {
    ('gumbel', 0): ([(1.0, 1.0), (1.0, 2.0), (2.0, 0.0)], 0, (14.263157894736842, 11.31578947368421, 11.631578947368421, 0.0), (3, 1, 2, 0)),
    ('gumbel', 5): ([(0.0, 0.0), (3.0, 0.0), (3.0, 2.0)], 2, (11.473684210526315, 11.31578947368421, 15.578947368421051, 13.526315789473685), (1, 1, 3, 1)),
    ('laplace', 0): ([(2.0, 2.0)], 3, (13.105263157894736, 11.31578947368421, 11.894736842105264, 14.052631578947368), (3, 1, 3, 1)),
    ('laplace', 5): ([(2.0, 0.0), (3.0, 0.0), (3.0, 2.0)], 2, (14.263157894736842, 11.31578947368421, 15.157894736842106, 13.526315789473685), (3, 1, 3, 1)),
    ('zero', 0): ([(0.0, 0.0), (0.0, 2.0), (2.0, 2.0)], 1, (14.68421052631579, 15.105263157894736, 13.105263157894736, 13.947368421052632), (3, 3, 2, 2)),
    ('zero', 5): ([(0.0, 0.0), (0.0, 2.0), (2.0, 2.0)], 1, (14.68421052631579, 15.105263157894736, 13.105263157894736, 13.947368421052632), (3, 3, 2, 2)),
}
# A stream that repeats elements, so noisy rungs accept some twice: records
# (0, 0, 1, 2, 2, 2), stream [0, 1, 0, 2, 1, 3, 0], k=3, theta=0.2,
# eps=0.8, delta=1e-3 (basic), m_bound=6: (kind, master_seed) -> as above.
REPEATED = {
    ('gumbel', 0): ([1, 3, 0], 0, (3.0, 1.0, 3.0, 0.0, 0.0), (3, 1, 2, 0, 0)),
    ('gumbel', 1): ([0, 2], 3, (0.0, 3.0, 0.0, 5.0, 3.0), (0, 3, 0, 2, 3)),
    ('gumbel', 2): ([1, 0, 2], 1, (2.0, 6.0, 2.0, 2.0, 3.0), (2, 3, 2, 2, 3)),
    ('gumbel', 3): ([0, 2, 1], 3, (4.0, 3.0, 3.0, 6.0, 5.0), (2, 2, 2, 3, 3)),
    ('gumbel', 4): ([0, 1, 0], 3, (2.0, 2.0, 6.0, 3.0, 2.0), (3, 2, 3, 3, 3)),
    ('gumbel', 5): ([0], 2, (3.0, 1.0, 2.0, 0.0, 5.0), (1, 1, 1, 0, 3)),
    ('gumbel', 6): ([2, 0], 1, (0.0, 5.0, 3.0, 3.0, 0.0), (0, 2, 2, 3, 0)),
    ('gumbel', 7): ([1, 3, 0], 0, (3.0, 0.0, 6.0, 0.0, 5.0), (3, 0, 3, 0, 3)),
    ('laplace', 0): ([1, 0, 1], 0, (3.0, 1.0, 6.0, 0.0, 0.0), (3, 1, 3, 0, 0)),
    ('laplace', 1): ([1, 0], 1, (1.0, 3.0, 2.0, 3.0, 3.0), (2, 2, 1, 2, 3)),
    ('laplace', 2): ([1, 0, 2], 1, (2.0, 6.0, 1.0, 2.0, 3.0), (2, 3, 2, 2, 3)),
    ('laplace', 3): ([0, 2, 3], 3, (4.0, 3.0, 3.0, 5.0, 5.0), (2, 3, 3, 3, 3)),
    ('laplace', 4): ([0, 1, 0], 3, (2.0, 2.0, 6.0, 3.0, 3.0), (3, 3, 3, 3, 3)),
    ('laplace', 5): ([0], 2, (4.0, 1.0, 2.0, 0.0, 3.0), (2, 1, 1, 0, 3)),
    ('laplace', 6): ([1, 0, 2], 2, (0.0, 5.0, 6.0, 6.0, 2.0), (0, 2, 3, 3, 1)),
    ('laplace', 7): ([0, 2], 1, (2.0, 5.0, 6.0, 3.0, 5.0), (2, 2, 3, 3, 3)),
}

# A reduced desk sweep (4 x 100 synthetic clients, a 10 x 10 grid, k in
# {2, 5}, eps in {0.2, 0.9}, 2 repetitions, all four methods):
# (master_seed, shuffle_stream) -> {CSV name: sha256 of its bytes}.
DESK_CSVS = {
    (3, True): {'golden_eps_2E-1.csv': '8b34ead99db104c8c7c32dbf5497278362c5e7f77aaca1f4033f69f28a7dab9e',
                'golden_eps_9E-1.csv': 'a6c0d53d6e6c875115e2b30712ce2f2fa6fa6f64d626c301797814188b0766d5'},
    (4, True): {'golden_eps_2E-1.csv': '227045678dfb34c6a77458bd3f99fe2d8c2eeb54b01bdd77fda92fdf588a48e4',
                'golden_eps_9E-1.csv': '4a59fab7e153fc135a3dbc8f0bdf501eb81d93ceb7779e94cc9de4ee92c7ac23'},
    (3, False): {'golden_eps_2E-1.csv': 'fa1bbd21ecdd914e31c147c88065401d343f6fa3d8a761f2103853c523e471df',
                 'golden_eps_9E-1.csv': '691b6c9a93f73f81961f7dccd920b98fc06010d3ae32d9b16651baec3fa0c4db'},
    (4, False): {'golden_eps_2E-1.csv': '681773ba4ea486aea0504a866c1098e811be4ff49e1066e4f88eae2797eda559',
                 'golden_eps_9E-1.csv': '01e84a1f504219d06418bc1584e381accb1dd365df963aa002addee504f59a3c'},
}

KMEDIANS_CLIENTS = [((i * 37) % 11 * 0.5, (i * 53) % 7 * 0.75) for i in range(20)]
KMEDIANS_GRID = [(x * 1.0, y * 1.0) for x in range(4) for y in range(3)]


def run(f, V, epsilon, delta, composition="advanced", **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eps >= 1 notice
        privacy = PrivacyParams(epsilon, delta, composition)
    cfg = PssmConfig(privacy=privacy, **kwargs)
    selected, diag = pssm(f, V, cfg)
    return selected, diag.chosen_index, diag.per_guess_values, diag.per_guess_sizes


@pytest.mark.parametrize("kind, seed", list(DRAWS))
def test_first_draws_are_frozen(kind, seed):
    src = NoiseSource(kind, 2.5, seed=seed)
    assert tuple(-1.25 + src.draw() for _ in range(6)) == DRAWS[kind, seed]


def test_derive_seed_is_frozen():
    for parts, seed in SEEDS.items():
        assert derive_seed(*parts) == seed


@pytest.mark.parametrize("master", [0, 1, 99, 2**40 + 3, 2**64 - 1])
def test_spawned_streams_equal_derived_seeds(master):
    for root in (NoiseSource(LAPLACE, 1.5, seed=master),
                 NoiseSource(LAPLACE, 1.5, seed=(master,))):
        root.draw()  # spawning reads the seed, not the counter
        for i, tag in ((0, 0), (0, 1), (4, 1), (7, 2)):
            child = root.spawn(i, tag)
            assert child.seed == derive_seed(master, i, tag)
            assert (child.kind, child.scale) == (LAPLACE, 1.5)
            twin = NoiseSource(LAPLACE, 1.5, seed=(master, i, tag))
            assert [child.draw() for _ in range(5)] == [twin.draw() for _ in range(5)]


@pytest.mark.parametrize("key", list(COVERAGE))
def test_pssm_coverage_pair_is_frozen(key):
    records, kind, composition, master_seed = key
    got = run(coverage_oracle(records), [0, 1, 2, 3], k=2, theta=0.2,
              epsilon=1.0, delta=1e-4, composition=composition, noise_kind=kind,
              m_bound=3.0, n_bound=4, master_seed=master_seed)
    assert got == COVERAGE[key]


@pytest.mark.parametrize("key", list(KMEDIANS))
def test_pssm_kmedians_is_frozen(key):
    kind, master_seed = key
    got = run(kmedians_oracle(KMEDIANS_CLIENTS, KMEDIANS_GRID), KMEDIANS_GRID, k=3,
              theta=0.3, epsilon=0.5, delta=1e-3, noise_kind=kind, m_bound=20.0,
              master_seed=master_seed)
    assert got == KMEDIANS[key]


@pytest.mark.parametrize("key", list(REPEATED))
def test_pssm_repeated_stream_elements_are_frozen(key):
    kind, master_seed = key
    got = run(coverage_oracle((0, 0, 1, 2, 2, 2)), [0, 1, 0, 2, 1, 3, 0], k=3, theta=0.2,
              epsilon=0.8, delta=1e-3, composition="basic", noise_kind=kind, m_bound=6.0,
              master_seed=master_seed)
    assert got == REPEATED[key]


@pytest.mark.parametrize("key", list(DESK_CSVS))
def test_desk_csvs_are_frozen(key, tmp_path):
    master_seed, shuffle = key
    cfg = ExperimentConfig(components=4, points_per_component=100, box_side=20.0, grid_side=10,
                           k_values=(2, 5), epsilon_values=(0.2, 0.9), repetitions=2,
                           master_seed=master_seed, shuffle_stream=shuffle)
    paths = emit_csv(run_experiment(cfg), tmp_path, "golden_")
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == DESK_CSVS[key]
