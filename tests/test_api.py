import privstream

# The 14 names the benchmark reads as ``ps.X``, then the ones the README
# presents as package API.
PUBLIC_API = [
    "ExperimentConfig", "GUMBEL", "LAPLACE", "PrivacyParams", "PssmConfig",
    "build_guess_ladder", "coverage_oracle", "emit_csv", "kmedians_oracle",
    "load_config", "make_grid", "pssm", "run_experiment", "synth_mixture",
    "NoiseSource", "RunDiagnostics", "derive_seed", "private_argmax",
    "threshold_stream_with_tail_fill",
]


def test_public_api():
    assert sorted(privstream.__all__) == sorted(PUBLIC_API)
    namespace = {}
    exec("from privstream import *", namespace)
    for name in PUBLIC_API:
        assert namespace[name] is getattr(privstream, name), name
