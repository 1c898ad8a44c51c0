"""Generalized Stokes tensors, SLOCC-invariant norms and entanglement
measures for n-qubit states, plus simulated estimation routes."""

from . import estimator, measures, qstate, slocc, stokes

__version__ = "0.1.0"
