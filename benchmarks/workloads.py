"""The benchmark's three workloads over privstream's public API.

Each workload has ``setup(seed)``, which does everything a run pays before its
first solver call and returns the run's state; ``round(state)``, which runs
one whole round of solver runs and returns how many it attempted; and
``check(state)``, which checks every recorded output (see checks.py).

Importing this module imports numpy and privstream; run.py puts the
checkout's ``src`` first on ``sys.path`` before it does.
"""
from __future__ import annotations

import hashlib
import json
import sys
import traceback
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import privstream as ps
from privstream import experiment

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DESK_CONFIG = ROOT / "configs" / "desk_scale.cfg"
OUT_DIR = BENCH_DIR / "out"


def _privacy(epsilon: float, delta: float, composition: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eps = 1 >= 1 notice
        return ps.PrivacyParams(epsilon, delta, composition)


def _src_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def desk_config(seed: int, **overrides):
    """The shipped desk-scale config with the run's seed as master seed."""
    values = {"master_seed": str(seed)}
    values.update({key: str(value) for key, value in overrides.items()})
    return ps.load_config(DESK_CONFIG, values)


def fill_cache(oracle, stream) -> None:
    """First marginal of every grid point on a fresh state."""
    state = oracle.make_state()
    for e in stream:
        state.marginal(e)


def build_instance(cfg):
    """The desk-scale k-medians instance, solver-ready.

    The clients come from the same helper ``run_experiment`` uses, so the
    checks see exactly the instance the sweep solves.
    """
    clients = experiment._load_clients(cfg)
    grid = ps.make_grid(clients.bounding_box, cfg.grid_side)
    stream = [tuple(p) for p in grid.points]
    oracle = ps.kmedians_oracle(clients.points, stream)
    fill_cache(oracle, stream)
    return SimpleNamespace(clients=clients.points, stream=stream, oracle=oracle)


class DeskSweep:
    """``privstream run configs/desk_scale.cfg`` at one repetition.

    Rounds cycle through ``instances`` master seeds, seed * instances + i:
    throughput depends on the instance by about 10%, and a run that averages
    many instances repeats from seed to seed where one instance does not.
    Rounds of an instance that comes back are compared byte for byte.
    """

    name = "desk_sweep"
    repetitions = 1
    instances = 16

    def setup(self, seed: int):
        cfgs = [desk_config(seed * self.instances + i, repetitions=self.repetitions,
                            out_dir=(OUT_DIR / self.name / f"slot{i}").as_posix())
                for i in range(self.instances)]
        build_instance(cfgs[0])  # what the first sweep builds before its first solver call
        return SimpleNamespace(cfgs=cfgs, rounds=0, failed=0, failed_cells=[],
                               hashes=[[] for _ in cfgs], csv_texts=[None for _ in cfgs])

    def round(self, st) -> int:
        slot = st.rounds % self.instances
        cfg = st.cfgs[slot]
        report = ps.run_experiment(cfg)
        paths = ps.emit_csv(report, cfg.out_dir, cfg.prefix)
        texts = {p.name: p.read_text(encoding="utf-8") for p in paths}
        st.hashes[slot].append(hashlib.sha256(json.dumps(texts, sort_keys=True).encode()).hexdigest())
        st.csv_texts[slot] = texts
        failed = [(cfg.master_seed, c.method, c.k, c.epsilon, c.error) for c in report.failed_cells]
        st.failed_cells += failed
        st.failed += len(failed) * cfg.repetitions
        st.rounds += 1
        return len(report.cells) * cfg.repetitions

    def check(self, st) -> None:
        checks._require(not st.failed_cells, f"failed cells: {st.failed_cells}")
        for cfg, hashes, texts in zip(st.cfgs, st.hashes, st.csv_texts):
            if not hashes:
                continue
            checks._require(sorted(cfg.methods) == sorted(experiment.METHODS),
                            f"the config must run all four methods, got {cfg.methods}")
            checks._require(len(set(hashes)) == 1,
                            f"master seed {cfg.master_seed}: CSVs differ between rounds")
            clients = experiment._load_clients(cfg).points
            checks.check_sweep(texts, cfg.epsilon_values, cfg.k_values, cfg.theta,
                               cfg.repetitions, clients,
                               checks.desk_grid(clients, cfg.grid_side))
            self._check_against_earlier_runs(cfg, hashes[0])

    def _check_against_earlier_runs(self, cfg, digest: str) -> None:
        # The repository README promises byte-identical CSVs for a fixed seed:
        # runs of the same source and seed, in this checkout, must agree.
        record = OUT_DIR / "desk_csv_hashes.json"
        key = f"{_src_fingerprint()}:{cfg.repetitions}:{cfg.master_seed}"
        known = json.loads(record.read_text(encoding="utf-8")) if record.exists() else {}
        earlier = known.setdefault(key, digest)
        checks._require(earlier == digest,
                        f"master seed {cfg.master_seed}: CSV hash {digest} differs from an "
                        f"earlier run's {earlier}")
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")


class PrivateSweep:
    """``pssm`` alone, Laplace and Gumbel, over the desk-scale (k, eps) grid."""

    name = "private_sweep"
    kinds = (ps.LAPLACE, ps.GUMBEL)

    def setup(self, seed: int):
        cfg = desk_config(seed)
        inst = build_instance(cfg)
        n_clients = len(inst.clients)
        delta = cfg.delta if cfg.delta is not None else 1.0 / n_clients ** 1.5
        cells = [(kind, k, eps, _privacy(eps, delta, cfg.composition))
                 for kind in self.kinds for k in cfg.k_values for eps in cfg.epsilon_values]
        return SimpleNamespace(cfg=cfg, seed=seed, inst=inst, delta=delta, cells=cells,
                               m=float(n_clients), rounds=0, failed=0, outputs=[],
                               G=checks.l1_normalizer(inst.clients, np.asarray(inst.stream)))

    def round(self, st) -> int:
        rng = np.random.default_rng([st.seed, 17, st.rounds])
        base = st.inst.stream
        stream = [base[i] for i in rng.permutation(len(base))]
        seeds = rng.integers(0, 2**62, size=len(st.cells))
        for (kind, k, eps, privacy), seed in zip(st.cells, seeds):
            run_cfg = ps.PssmConfig(k=k, theta=st.cfg.theta, privacy=privacy, noise_kind=kind,
                                    m_bound=st.m, n_bound=len(stream), eta=st.cfg.eta,
                                    master_seed=int(seed))
            try:
                selected, diag = ps.pssm(st.inst.oracle, stream, run_cfg)
            except Exception:  # noqa: BLE001 - a failed run is counted, the loop goes on
                st.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            st.outputs.append((kind, k, eps, stream, selected, diag))
        st.rounds += 1
        return len(st.cells)

    def check(self, st) -> None:
        for kind, k, eps, stream, selected, diag in st.outputs:
            checks.check_private_run(
                selected, diag, kind=kind, composition=st.cfg.composition, k=k, epsilon=eps,
                delta=st.delta, theta=st.cfg.theta, m=st.m, stream=stream,
                clients=st.inst.clients, G=st.G)


class PrivacyAudit:
    """Monte-Carlo ``pssm`` on criterion 9's coverage instance, all calibrations."""

    name = "privacy_audit"
    stream = (0, 1, 2, 3)
    datasets = ((0, 1, 2), (0, 1))  # a 3-agent data set and its 2-agent neighbour
    calibrations = ((ps.GUMBEL, "basic"), (ps.GUMBEL, "advanced"),
                    (ps.LAPLACE, "basic"), (ps.LAPLACE, "advanced"))
    k, theta, epsilon, delta = 2, 0.2, 1.0, 1e-4
    batch = 125  # runs per calibration and data set in one round

    def setup(self, seed: int):
        oracles = [ps.coverage_oracle(records) for records in self.datasets]
        configs = [ps.PssmConfig(k=self.k, theta=self.theta,
                                 privacy=_privacy(self.epsilon, self.delta, composition),
                                 noise_kind=kind, m_bound=float(len(self.datasets[0])),
                                 n_bound=len(self.stream))
                   for kind, composition in self.calibrations]
        counts = [[Counter() for _ in self.datasets] for _ in self.calibrations]
        return SimpleNamespace(seed=seed, oracles=oracles, configs=configs, counts=counts,
                               rounds=0, failed=0)

    def round(self, st) -> int:
        stream = list(self.stream)
        first = (st.seed << 32) + st.rounds * self.batch
        for run_cfg, per_dataset in zip(st.configs, st.counts):
            for oracle, counts in zip(st.oracles, per_dataset):
                for master_seed in range(first, first + self.batch):
                    run_cfg.master_seed = master_seed
                    try:
                        selected, _ = ps.pssm(oracle, stream, run_cfg)
                    except Exception:  # noqa: BLE001 - a failed run is counted, the loop goes on
                        st.failed += 1
                        traceback.print_exc(file=sys.stderr)
                        continue
                    counts[frozenset(selected)] += 1
        st.rounds += 1
        return len(st.configs) * len(st.oracles) * self.batch

    def check(self, st) -> None:
        runs = st.rounds * self.batch
        for (kind, composition), (counts_a, counts_b) in zip(self.calibrations, st.counts):
            try:
                checks.check_audit(counts_a, counts_b, runs, self.epsilon, self.delta,
                                   self.stream, self.k)
            except checks.CheckFailed as exc:
                raise checks.CheckFailed(f"{kind}/{composition}: {exc}") from None


WORKLOADS = {w.name: w for w in (DeskSweep, PrivateSweep, PrivacyAudit)}
