"""Point ingestion and generation for the clustering benchmark."""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PointCloud:
    """An immutable batch of 2-D points with its bounding box."""

    points: np.ndarray
    bounding_box: tuple[float, float, float, float]
    skipped_rows: int = 0

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("point cloud must be non-empty")

    def __len__(self):
        return len(self.points)

    @classmethod
    def from_points(cls, points, skipped_rows: int = 0) -> "PointCloud":
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if len(pts) == 0:
            raise ValueError("point cloud must be non-empty")
        box = (
            float(pts[:, 0].min()),
            float(pts[:, 1].min()),
            float(pts[:, 0].max()),
            float(pts[:, 1].max()),
        )
        return cls(points=pts, bounding_box=box, skipped_rows=skipped_rows)


def load_points_csv(path, x_column: str, y_column: str, max_rows: int | None = None) -> PointCloud:
    """Load 2-D points from a headered CSV.

    Malformed rows (missing, non-numeric or non-finite coordinates) are
    skipped and counted; ``max_rows`` caps the number of valid rows kept.
    """
    if max_rows is not None and max_rows < 1:
        raise ValueError(f"max_rows must be at least 1, got {max_rows}")
    points = []
    skipped = 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a CSV header")
        missing = {x_column, y_column} - set(reader.fieldnames)
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            try:
                x = float(row[x_column])
                y = float(row[y_column])
            except (TypeError, ValueError):
                x = y = math.nan
            if not (math.isfinite(x) and math.isfinite(y)):
                skipped += 1
                continue
            points.append((x, y))
            if max_rows is not None and len(points) >= max_rows:
                break
    if skipped:
        log.warning("%s: skipped %d malformed rows", path, skipped)
    if not points:
        raise ValueError(f"{path}: no valid data rows")
    return PointCloud.from_points(points, skipped_rows=skipped)


def synth_mixture(
    num_components: int, points_per_component: int, box_side: float, rng
) -> PointCloud:
    """Sample an isotropic Gaussian mixture.

    Component means are uniform over [0, box_side]^2 and each component
    contributes ``points_per_component`` unit-covariance samples.
    """
    if num_components < 1 or points_per_component < 1:
        raise ValueError("component and point counts must be positive")
    if not (math.isfinite(box_side) and box_side >= 0):
        raise ValueError(f"box_side must be finite and non-negative, got {box_side}")
    means = rng.uniform(0.0, box_side, size=(num_components, 2))
    blocks = [
        mean + rng.standard_normal(size=(points_per_component, 2)) for mean in means
    ]
    return PointCloud.from_points(np.vstack(blocks))


def make_grid(bounding_box, side_count: int) -> PointCloud:
    """A side_count x side_count grid spanning the box, edges included.

    Points are emitted in row-major order (y varies slowest); downstream
    stream order is exactly this order unless explicitly shuffled.
    """
    if side_count < 2:
        raise ValueError(f"side_count must be at least 2, got {side_count}")
    min_x, min_y, max_x, max_y = bounding_box
    xs = np.linspace(min_x, max_x, side_count)
    ys = np.linspace(min_y, max_y, side_count)
    pts = [(x, y) for y in ys for x in xs]
    return PointCloud.from_points(pts)
