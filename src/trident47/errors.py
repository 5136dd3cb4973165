"""Exception types shared across the toolkit.

The types that blame the input subclass ``ValueError`` too: ``cli.guarded`` exits 2
on a ValueError or an OSError, 1 on any other TridentError (``NotASymmetry``).

No program path evaluates symbolic quotients: the tests' sympy evaluator
keeps its own ``DivisionByZero`` beside it in ``tests/sympy_forms.py``.
"""


class TridentError(Exception):
    """Base class for all toolkit errors."""


class ChartMismatch(TridentError, ValueError):
    """An operation received points or fields from the wrong chart."""


class SingularConfiguration(TridentError, ValueError):
    """The configuration violates l2 != 0 or L = l1 + l3 + 2 != 0."""


class DegenerateGrowth(TridentError, ValueError):
    """The bracket-generated distribution does not fill the tangent space."""


class NotASymmetry(TridentError):
    """A field failed an infinitesimal-symmetry condition: a failed check, not an input fault.

    Carries the offending residual field (a ``polyfield.PolyField``) in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ZeroCombination(TridentError, ValueError):
    """A linear combination that must be nonzero was zero."""


class ZeroHorizontalMomentum(TridentError, ValueError):
    """Solution constants whose horizontal momentum h1..h4 is all zero (no geodesic)."""
