import math

import numpy as np
import pytest

from privstream.data import PointCloud, load_points_csv, make_grid, synth_mixture


def test_load_points_csv(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("lat,lon,extra\n1.0,2.0,x\n3.5,-1.0,y\n4.0,0.25,z\n")
    cloud = load_points_csv(path, "lat", "lon")
    assert len(cloud) == 3
    assert cloud.bounding_box == (1.0, -1.0, 4.0, 2.0)
    assert cloud.skipped_rows == 0


def test_load_points_csv_skips_malformed(tmp_path):
    path = tmp_path / "pts.csv"
    rows = ["x,y"] + [f"{i},{i}" for i in range(9)] + ["oops,"]
    path.write_text("\n".join(rows) + "\n")
    cloud = load_points_csv(path, "x", "y")
    assert len(cloud) == 9
    assert cloud.skipped_rows == 1
    path.write_text("x,y\n1.0,2.0\nnan,4.0\n3.0,6.0\n2.0,5.0\n")  # non-finite is malformed
    cloud = load_points_csv(path, "x", "y")
    assert cloud.skipped_rows == 1
    assert cloud.bounding_box == (1.0, 2.0, 3.0, 6.0)


def test_load_points_csv_max_rows(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n" + "\n".join(f"{i},{i}" for i in range(1000)) + "\n")
    cloud = load_points_csv(path, "x", "y", max_rows=100)
    assert len(cloud) == 100
    assert cloud.points[-1].tolist() == [99.0, 99.0]
    for max_rows in (0, -1):
        with pytest.raises(ValueError, match="max_rows"):
            load_points_csv(path, "x", "y", max_rows=max_rows)


def test_load_points_csv_errors(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_points_csv(path, "x", "y")
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\nnope,1\n")
    with pytest.raises(ValueError):
        load_points_csv(bad, "x", "y")
    with pytest.raises(FileNotFoundError):
        load_points_csv(tmp_path / "missing.csv", "x", "y")


def test_synth_mixture_counts_and_determinism():
    a = synth_mixture(5, 40, 20.0, np.random.default_rng(3))
    b = synth_mixture(5, 40, 20.0, np.random.default_rng(3))
    assert len(a) == 200
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("box_side", [math.inf, -math.inf, math.nan, -1.0])
def test_synth_mixture_rejects_bad_box_side(box_side):
    with pytest.raises(ValueError, match="box_side"):
        synth_mixture(2, 10, box_side, np.random.default_rng(0))


def test_synth_mixture_single_component_clt():
    n = 4000
    cloud = synth_mixture(1, n, 0.0, np.random.default_rng(9))
    mean = cloud.points.mean(axis=0)
    assert np.linalg.norm(mean) < 4.0 / np.sqrt(n)


def test_make_grid_corners_and_spacing():
    cloud = make_grid((0.0, 0.0, 1.0, 1.0), 2)
    assert cloud.points.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]
    grid = make_grid((-1.0, 2.0, 3.0, 4.0), 50)
    assert len(grid) == 2500
    xs = grid.points[:50, 0]
    gaps = np.diff(xs)
    assert np.all(np.abs(gaps - gaps[0]) < 1e-12)
    # row-major: the first 50 points share the lowest y
    assert np.all(grid.points[:50, 1] == 2.0)
    with pytest.raises(ValueError):
        make_grid((0, 0, 1, 1), 1)


def test_point_cloud_nonempty():
    with pytest.raises(ValueError):
        PointCloud.from_points(np.empty((0, 2)))
