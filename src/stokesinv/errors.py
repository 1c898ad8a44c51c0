"""Exceptions with the exit codes the CLI maps them to, and the tolerance table."""

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

TOLERANCES = {
    "psd": 1e-10,  # max |m - m^dagger| and minus the smallest eigenvalue of a density matrix
    "document": 1e-8,  # a density-matrix document's Hermiticity and PSD
    "amplitude_norm": 1e-9,  # | |psi|^2 - 1 | of an amplitude document
    "imag_residue": 1e-8,  # largest |imaginary part| of a Stokes component
    "overlap_imag": 1e-10,  # |Im Tr(a b)| / max(1, |Re Tr(a b)|)
    "unimodular": 1e-8,  # |det a - 1| of a filter operator
    "singular": 1e-9,  # floor on |det a| of a local operator
    "annihilation": 1e-12,  # floor on the trace (intensity) left in a state
    "tangle_range": 1e-8,  # how far a tangle lies outside [0, 1]; admits (1 + amplitude_norm)^2
    "monogamy": 1e-6,  # largest CKW residual of a three-qubit pure state
    "zero_probability": 1e-15,  # outcome probabilities below it become exact 0
    "sl2c_det": 1e-6,  # floor on |det| of a Gaussian draw rescaled to det 1
}
FLOORS = frozenset({"singular", "annihilation"})


def check(name: str, value: float, exc: type, what: str) -> None:
    """Raise `exc`, naming `what` and its value, unless `value` is at most
    tolerance `name`, or above it for one of the FLOORS. NaN passes neither."""
    tol = TOLERANCES[name]
    if not (value > tol if name in FLOORS else value <= tol):
        raise exc("outside the %s tolerance %g: %s %g" % (name, tol, what, value))


class StokesInvError(Exception):
    exit_code = EXIT_DOMAIN


class ParseError(StokesInvError):
    exit_code = EXIT_PARSE


class BadStateName(ParseError):
    pass


class BadSubsystem(StokesInvError):
    pass


class DimensionMismatch(StokesInvError):
    pass


class OutOfRange(StokesInvError):
    pass


class NotUnimodular(StokesInvError):
    pass


class EnsembleAnnihilated(StokesInvError):
    pass


class NonHermitianInput(StokesInvError):
    exit_code = EXIT_NUMERIC


class NotPositiveSemidefinite(StokesInvError):
    exit_code = EXIT_NUMERIC


class IdentityViolation(StokesInvError):
    exit_code = EXIT_NUMERIC
