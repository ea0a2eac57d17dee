import pytest

from privstream.cli import main
from privstream.data import load_points_csv
from support import read_report_csv


def test_gen_synth_roundtrips(tmp_path):
    out = tmp_path / "clients.csv"
    code = main(["gen-synth", "--components", "2", "--points-per-component", "25",
                 "--seed", "4", "--out", str(out)])
    assert code == 0
    cloud = load_points_csv(out, "x", "y")
    assert len(cloud) == 50
    assert cloud.skipped_rows == 0


def test_gen_synth_creates_the_output_directory(tmp_path):
    out = tmp_path / "new" / "dir" / "clients.csv"
    code = main(["gen-synth", "--components", "1", "--points-per-component", "3",
                 "--out", str(out)])
    assert code == 0
    assert len(load_points_csv(out, "x", "y")) == 3


def test_run_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "components = 2\npoints_per_component = 30\ngrid_side = 5\n"
        "k_values = 2\nepsilon_values = 0.5\nrepetitions = 2\n"
        "methods = gumbel, random\n"
    )
    out = tmp_path / "results"
    code = main(["run", str(cfg), "--set", f"out_dir={out}", "--set", "master_seed=2"])
    assert code == 0
    parsed = read_report_csv(out / "eps_5E-1.csv")
    assert (2, "Ours") in parsed
    assert (2, "Random") in parsed
    assert (2, "Laplace") not in parsed


def test_run_rejects_malformed_set(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("k_values = 2\n")
    with pytest.raises(SystemExit):
        main(["run", str(cfg), "--set", "nonsense"])
