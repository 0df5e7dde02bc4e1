"""evosteer: minimum-energy steering for impulsive delay evolution equations.

Synthesizes per-window feedback controls through controllability Gramians,
iterates the steered mild-solution operator to its fixed point, computes the
contraction certificate that predicts convergence, and verifies that every
control window endpoint hits its prescribed target.
"""

__version__ = "0.1.0"
