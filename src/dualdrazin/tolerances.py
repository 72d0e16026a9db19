"""Default numeric thresholds, shared by the whole package.

All thresholds are relative.  Rank decisions compare singular values against
``max(m, n) * RANK_TOL * sigma_max``; residual checks compare Frobenius norms
against ``RESIDUAL_TOL * (1 + scale)`` where the scale is the norm of the
quantity the residual is measured against.

An override of RANK_TOL or RESIDUAL_TOL must be a finite number >= 0.  NaN
compares false both ways, so a NaN floor gives rank 0 and index 0 together
and a NaN bound fails every residual; an infinite floor counts every
singular value as zero, and a negative bound fails every residual.  The
command line refuses any other value (--rank-tol, --residual-tol).
"""

RANK_TOL = 1e-12
RESIDUAL_TOL = 1e-9
APPRECIABLE_TOL = 1e-12


def rank_tol(override: float | None = None) -> float:
    return RANK_TOL if override is None else float(override)


def residual_tol(override: float | None = None) -> float:
    return RESIDUAL_TOL if override is None else float(override)
