"""Online fair division of indivisible goods with prediction advice.

Exact-rational allocators, fairness metrics, adversarial lower-bound
constructions, closed-form accuracy bounds, and a verification harness.
"""

__version__ = "0.1.0"
