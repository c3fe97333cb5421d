"""Fixtures shared by the test modules."""

import json

import numpy as np
import pytest

from equibox.measures import gaussian_mixture_cloud


@pytest.fixture
def overflowing_measure(tmp_path):
    """Write a measure whose values are all finite but whose projections
    can overflow, and return its path: kind "cloud" is a 2000-point cloud
    in R^3 scaled to coordinates near +-1.7e308, kind "grid" a 16x16 grid
    whose far corner is 1.75e308."""
    def write(kind):
        if kind == "cloud":
            cloud = gaussian_mixture_cloud(3, 3, 2000, 5)
            with np.errstate(over="ignore"):
                points = np.clip(cloud.points * 1e308, -1.7e308, 1.7e308)
            path = tmp_path / "over.csv"
            np.savetxt(path, np.column_stack((points, cloud.weights)),
                       fmt="%.17g", delimiter=",", header="x1,x2,x3,w",
                       comments="")
        else:
            path = tmp_path / "over.json"
            path.write_text(json.dumps({
                "dim": 2, "origin": [0.9e308, 0.9e308],
                "spacing": [0.85e308 / 16] * 2, "shape": [16, 16],
                "data": [1.0] * 256}))
        return path
    return write
