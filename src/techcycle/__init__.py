"""Technology substitution and lifecycle analytics.

Fits power-law substitution models between competing technologies'
revenue series, detects lifecycle events (begin, peak, end), and measures
cycle asymmetry; ships a reconstructed recorded-music revenue dataset and
a synthetic-scenario lab for validating the estimator.

Import public names from the submodules that define them, e.g.
``techcycle.growth.fit_substitution``.
"""

__version__ = "0.1.0"
