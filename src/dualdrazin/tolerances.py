"""Default numeric thresholds, shared by the whole package.

All thresholds are relative.  Rank decisions compare singular values against
``max(m, n) * RANK_TOL * sigma_max``; residual checks compare Frobenius norms
against ``RESIDUAL_TOL * (1 + scale)`` where the scale is the norm of the
quantity the residual is measured against.
"""

RANK_TOL = 1e-12
RESIDUAL_TOL = 1e-9
APPRECIABLE_TOL = 1e-12


def rank_tol(override: float | None = None) -> float:
    return RANK_TOL if override is None else float(override)


def residual_tol(override: float | None = None) -> float:
    return RESIDUAL_TOL if override is None else float(override)
