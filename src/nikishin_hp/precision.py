"""Working-precision context shared by every numeric kernel in the package.

All scalars are mpmath floats at the binary working precision P of the
ambient mpmath context.  P is an argument, not process state: a SystemSpec
carries its P, build_system and run_experiment run under working_precision
of it, and no package call leaves mp.prec changed.  Library calls (solvers,
checks, analysis) read the ambient mp.prec, so one system can be evaluated
at several precisions.  Noise gates are fixed fractions of P (2^-P/2
separates signal from roundoff; 2^-P/3 and 2^-P/4 are the looser gates
where error accumulates through products and root finding).

The module also holds the package's one integer rule, is_integer, which
precisions, multi-index entries, counts and the CLI's integer config values
all follow.
"""

from __future__ import annotations

from contextlib import contextmanager

from mpmath import mp, mpf

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 64
MAX_PRECISION_BITS = 4096


def is_integer(x) -> bool:
    """Whether x counts as an integer: an int or an integral float such as
    128.0, never a bool.  A fraction, a string or any other type does not.
    """
    return isinstance(x, int) and not isinstance(x, bool) or isinstance(x, float) and x.is_integer()


def checked_int(x, name: str) -> int:
    """x as an int; a ValueError naming `name` unless is_integer(x)."""
    if not is_integer(x):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def checked_bits(bits) -> int:
    """bits as an int; a ValueError unless is_integer(bits) and bits >= 64.

    An integral float such as 128.0 is accepted and converted.  A fraction,
    a bool, a string or any other type is rejected, never truncated.
    """
    if not is_integer(bits):
        raise ValueError(f"working precision must be an integer number of bits, got {bits!r}")
    bits = int(bits)
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"working precision must be >= {MIN_PRECISION_BITS} bits, got {bits}")
    return bits


def set_precision(bits: int) -> int:
    """Set the ambient working precision (bits, >= 64). Returns the value set."""
    mp.prec = bits = checked_bits(bits)
    return bits


@contextmanager
def working_precision(bits: int):
    """Temporarily run at a different working precision (bits, >= 64)."""
    old, mp.prec = mp.prec, checked_bits(bits)
    try:
        yield mp
    finally:
        mp.prec = old


def noise_floor(fraction: float = 0.5) -> mpf:
    """2^-(P*fraction) at the ambient precision P.

    fraction 0.5 is the default "numerically zero" gate; 1/3 and 1/4 are the
    progressively looser gates for product identities and junction spacing.
    """
    return mp.ldexp(1, -int(mp.prec * fraction))
