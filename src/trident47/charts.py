"""The two chart tags on R^7, their coordinate names and sample boxes.

Kept free of sympy so that the numeric modules can tag, check and sample
points without importing the symbolic field library; ``fields`` tags its
symbolic fields with the same two names.
"""
import numpy as np

ORIGINAL = "original"
ADAPTED = "adapted"

CHART_COORDS = {
    ORIGINAL: ("x", "y", "theta", "phi", "l1", "l2", "l3"),
    ADAPTED: ("x", "l1", "l2", "l3", "y1", "y2", "y3"),
}

#: default sampling boxes of the sampled certificates; legs kept positive in
#: the original chart so no denominator vanishes
_SAMPLE_BOX = {
    ORIGINAL: [(-1.0, 1.0)] * 4 + [(0.5, 2.0)] * 3,
    ADAPTED: [(-1.0, 1.0)] * 7,
}


def random_points(chart: str, n: int, rng=None) -> np.ndarray:
    """n sample points in the chart's standard box (legs positive)."""
    rng = np.random.default_rng(0) if rng is None else rng
    box = np.array(_SAMPLE_BOX[chart])
    return rng.uniform(box[:, 0], box[:, 1], size=(n, 7))
