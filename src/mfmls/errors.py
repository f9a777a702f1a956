"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that tests (and the CLI error manifest) can discriminate without string
matching. All of them derive from :class:`MfmlsError`.
"""


class MfmlsError(Exception):
    """Base class for all errors raised by this package."""


# --- geometry ---------------------------------------------------------------

class GradientTooSmall(MfmlsError):
    """Newton projection hit a point where |grad P| is below threshold."""


class ProjectionDiverged(MfmlsError):
    """Newton projection failed to reach the residual tolerance."""


class SamplingFailed(MfmlsError):
    """Surface sampler could not produce a cloud meeting its guarantees."""


class SinglePointCloud(MfmlsError):
    """Separation distance is undefined for a cloud with fewer than 2 points."""


class MeshFormatError(MfmlsError):
    """OBJ/mesh input could not be parsed."""


class EmptyMesh(MfmlsError):
    """Mesh has no non-degenerate triangles."""


# --- mls --------------------------------------------------------------------

class TooFewPoints(MfmlsError):
    """Cloud has fewer points than the neighbor rule requires."""


class EmptyStencil(MfmlsError):
    """No cloud point lies strictly inside the support ball."""


class AllWeightsZero(MfmlsError):
    """Every stencil weight vanished; the local fit is undefined."""


class DegenerateFit(MfmlsError):
    """Local least-squares system is numerically unusable."""


# --- rbf --------------------------------------------------------------------

class KernelOrderError(MfmlsError):
    """Kernel smoothness order outside the supported integer range."""


class DuplicateSites(MfmlsError):
    """Interpolation sites contain (near-)duplicates; Gram matrix is singular."""


class FactorizationFailed(MfmlsError):
    """Cholesky factorization failed even after jitter escalation."""


class TooFewLevels(MfmlsError):
    """A rate study needs at least three density levels."""


# --- cli --------------------------------------------------------------------

class ConfigError(MfmlsError):
    """Experiment configuration file is malformed or inconsistent."""
