"""The two chart tags on R^7 and their coordinate names.

Kept free of sympy so that the numeric modules can tag and check points
without importing the symbolic field library; ``fields`` re-exports them.
"""

ORIGINAL = "original"
ADAPTED = "adapted"

CHART_COORDS = {
    ORIGINAL: ("x", "y", "theta", "phi", "l1", "l2", "l3"),
    ADAPTED: ("x", "l1", "l2", "l3", "y1", "y2", "y3"),
}
