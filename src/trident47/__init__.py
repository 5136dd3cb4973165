"""Geometric control toolkit for the (4,7) trident mechanism.

The public names live in their submodules (``from trident47 import pmp``).
``import trident47`` loads no submodule, and only ``fields``, the acceptance
gate's symbolic algebra, loads sympy.
"""

__version__ = "0.1.0"
