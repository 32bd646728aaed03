"""Exact-simulation laboratory for two-player self-tests of many e-bits.

Builds the honest strategies of both parallel tests (the Mayers-Yao family
and the strictly parallel CHSH-style game), measures correlation deviations
of arbitrary projective strategies, constructs the self-testing isometry
explicitly, and evaluates every published robustness bound at desk scale.
"""

__version__ = "0.1.0"
