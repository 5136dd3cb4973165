"""The two chart tags on R^7 and their coordinate names.

Kept free of sympy and numpy so that every module can tag and check points
cheaply; ``fields`` tags its symbolic fields with the same two names.  There
is no sampling box here: the structural certificates are exact.
"""
ORIGINAL = "original"
ADAPTED = "adapted"

CHART_COORDS = {
    ORIGINAL: ("x", "y", "theta", "phi", "l1", "l2", "l3"),
    ADAPTED: ("x", "l1", "l2", "l3", "y1", "y2", "y3"),
}
