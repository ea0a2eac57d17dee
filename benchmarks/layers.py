"""Per-layer metrics: which privstream calls are traced and what they yield.

Layers are privstream's modules. ``instrument`` wraps their public calls
(and the benchmark's own cache fill) with a Tracer; ``layer_metrics`` turns
the aggregates into the per-layer metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import privstream as ps
from privstream import accounting, data, experiment, noise, objectives, streaming

import workloads

PSSM = "streaming.pssm"
SWEEP = "experiment.run_experiment"
LAYERS = ("data", "objectives", "noise", "accounting", "streaming", "experiment")


def instrument(tracer) -> None:
    """Wrap every traced call; undo with ``tracer.restore()``."""
    kmedians_state = type(ps.kmedians_oracle([[0.0, 0.0]], [(0.0, 0.0)]).make_state())
    coverage_state = type(ps.coverage_oracle([0]).make_state())

    def on_pssm(result):
        _, diag = result
        tracer.count("pssm.runs")
        tracer.count("streaming.rungs", diag.num_guesses)
        tracer.count("streaming.marginal_calls", diag.marginal_calls)

    def on_sweep(report):
        for cell in report.cells:
            tracer.count(f"experiment.cell_s.{cell.method}", cell.wall_time_s)
            tracer.count(f"experiment.cells.{cell.method}")
            if cell.method == "nonprivate":
                tracer.count("experiment.nonprivate_solves", cell.n_seeds)

    spans = [
        (data, "synth_mixture", "data.synth_mixture", None),
        (data, "make_grid", "data.make_grid", None),
        (objectives, "kmedians_oracle", "objectives.kmedians_oracle", None),
        (workloads, "fill_cache", "objectives.cache_fill", None),
        (streaming, "pssm", PSSM, on_pssm),
        (streaming, "threshold_stream_with_tail_fill", "streaming.tail_fill", None),
        (experiment, "run_experiment", SWEEP, on_sweep),
        (experiment, "emit_csv", "experiment.emit_csv", None),
    ]
    for owner, attr, name, on_return in spans:
        tracer.patch(owner, attr, name, span=True, on_return=on_return)
    hot = [
        (kmedians_state, "marginal", "objectives.marginal"),
        (kmedians_state, "accept", "objectives.accept"),
        (objectives.KMediansObjective, "evaluate", "objectives.evaluate"),
        (objectives.KMediansObjective, "clustering_cost", "objectives.clustering_cost"),
        (coverage_state, "marginal", "objectives.coverage_marginal"),
        (coverage_state, "accept", "objectives.coverage_accept"),
        (objectives.CoverageObjective, "evaluate", "objectives.coverage_evaluate"),
        (noise.NoiseSource, "__init__", "noise.source_init"),
        (noise.NoiseSource, "draw", lambda args: "noise.draw." + args[0].kind),
        (noise, "private_argmax", "noise.private_argmax"),
        (accounting, "split_budget", "accounting.split_budget"),
        (streaming, "build_guess_ladder", "streaming.build_guess_ladder"),
        (streaming.SparseInstance, "step", "streaming.step"),
    ]
    for owner, attr, name in hot:
        tracer.patch(owner, attr, name)


def _per_call(scale, name, parent=None, exclude_parent=None):
    def metric(tr, scope):
        count, total, _ = tr.agg(scope, name, parent, exclude_parent)
        return total / count * scale if count else None
    return metric


def _per_pssm_run(*names):
    def metric(tr, scope):
        runs = tr.counted(scope, "pssm.runs")
        if not runs:
            return None
        return sum(tr.agg(scope, name, PSSM)[0] for name in names) / runs
    return metric


def _counted_per_run(name):
    def metric(tr, scope):
        runs = tr.counted(scope, "pssm.runs")
        return tr.counted(scope, name) / runs if runs else None
    return metric


def _pssm_self_ms(tr, scope):
    # pssm's own self time plus that of the streaming calls inside it: the
    # run minus its oracle, noise and accounting children.
    count, _, own = tr.agg(scope, PSSM)
    if not count:
        return None
    own += sum(tr.agg(scope, name, PSSM)[2]
               for name in ("streaming.step", "streaming.build_guess_ladder"))
    return own / count * 1e3


def _accept_ratio(tr, scope):
    calls = tr.counted(scope, "streaming.marginal_calls")
    if not calls:
        return None
    accepts = sum(tr.agg(scope, name, PSSM)[0]
                  for name in ("objectives.accept", "objectives.coverage_accept"))
    return accepts / calls


def _evaluate_calls(tr, scope):
    solves = tr.counted(scope, "experiment.nonprivate_solves")
    return tr.agg(scope, "objectives.evaluate", SWEEP)[0] / solves if solves else None


def _layer_self_ms(layer):
    # The layer's self time per solver run: its traced calls' durations
    # minus the traced calls inside them.
    def metric(tr, scope):
        runs = tr.counted(scope, "bench.runs")
        own = sum(agg[2] for (s, _, name), agg in tr.calls.items()
                  if s == scope and name.startswith(layer + "."))
        return own / runs * 1e3 if runs and own else None
    return metric


def _cell_s(method):
    def metric(tr, scope):
        cells = tr.counted(scope, f"experiment.cells.{method}")
        return tr.counted(scope, f"experiment.cell_s.{method}") / cells if cells else None
    return metric


def _nonprivate_share(tr, scope):
    total = sum(tr.counted(scope, f"experiment.cell_s.{m}") for m in experiment.METHODS)
    return tr.counted(scope, "experiment.cell_s.nonprivate") / total if total else None


# name -> (unit, metric(tracer, scope) -> value or None when the scope never
# made the call).
METRICS = {
    "data.synth_mixture_ms": ("ms", _per_call(1e3, "data.synth_mixture")),
    "data.make_grid_ms": ("ms", _per_call(1e3, "data.make_grid")),
    "objectives.oracle_build_ms": ("ms", _per_call(1e3, "objectives.kmedians_oracle")),
    "objectives.cache_fill_ms": ("ms", _per_call(1e3, "objectives.cache_fill")),
    "objectives.marginal_us": ("us", _per_call(1e6, "objectives.marginal",
                                               exclude_parent="objectives.cache_fill")),
    "objectives.marginal_calls": ("count", _per_pssm_run("objectives.marginal",
                                                          "objectives.coverage_marginal")),
    "objectives.accept_us": ("us", _per_call(1e6, "objectives.accept")),
    "objectives.evaluate_us": ("us", _per_call(1e6, "objectives.evaluate", SWEEP)),
    "objectives.evaluate_calls": ("count", _evaluate_calls),
    "objectives.coverage_marginal_us": ("us", _per_call(1e6, "objectives.coverage_marginal")),
    "noise.draw_us.gumbel": ("us", _per_call(1e6, "noise.draw.gumbel")),
    "noise.draw_us.laplace": ("us", _per_call(1e6, "noise.draw.laplace")),
    "noise.draws": ("count", _per_pssm_run("noise.draw.gumbel", "noise.draw.laplace")),
    "noise.source_init_us": ("us", _per_call(1e6, "noise.source_init")),
    "noise.private_argmax_us": ("us", _per_call(1e6, "noise.private_argmax")),
    "accounting.split_budget_us": ("us", _per_call(1e6, "accounting.split_budget")),
    "streaming.ladder_build_us": ("us", _per_call(1e6, "streaming.build_guess_ladder")),
    "streaming.rungs": ("count", _counted_per_run("streaming.rungs")),
    "streaming.step_us": ("us", _per_call(1e6, "streaming.step")),
    "streaming.pssm_self_ms": ("ms", _pssm_self_ms),
    "streaming.marginal_calls": ("count", _counted_per_run("streaming.marginal_calls")),
    "streaming.accepts": ("count", _per_pssm_run("objectives.accept", "objectives.coverage_accept")),
    "streaming.accept_ratio": ("ratio", _accept_ratio),
    "streaming.tail_fill_ms": ("ms", _per_call(1e3, "streaming.tail_fill")),
    **{f"experiment.cell_s.{m}": ("s", _cell_s(m)) for m in experiment.METHODS},
    "experiment.nonprivate_share": ("ratio", _nonprivate_share),
    "experiment.emit_csv_ms": ("ms", _per_call(1e3, "experiment.emit_csv")),
    **{f"{layer}.self_ms": ("ms", _layer_self_ms(layer)) for layer in LAYERS},
}


def layer_metrics(tracer, scopes) -> tuple[dict, dict]:
    """Each metric from the first scope that made its call; returns the
    metrics and the scope each came from."""
    metrics, sources = {}, {}
    for name, (unit, metric) in METRICS.items():
        for scope in scopes:
            value = metric(tracer, scope)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
                sources[name] = scope
                break
        else:
            raise RuntimeError(f"no traced scope exercised {name}")
    return metrics, sources
