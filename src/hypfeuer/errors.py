"""Exception types for the geometry kernel.

Every failure mode that callers are expected to branch on gets its own
class, and only those: each class below the base is raised somewhere in
the package, and two outcomes no caller tells apart share one class.
All of them derive from ``GeometryError`` so a blanket
``except GeometryError`` at the CLI boundary can turn any of them into a
flagged instance instead of a crash; ``SamplingExhausted`` alone does
not, because it reports sampler settings no draw meets, a usage error.
"""


class GeometryError(Exception):
    """Base class for all geometric failure modes."""


class BoundaryPoint(GeometryError):
    """Point lies on or outside the unit circle where an interior point is required."""


class CoincidentPoints(GeometryError):
    """Two supposedly distinct points are numerically identical."""


class DegenerateAngle(GeometryError):
    """Angle vertex coincides with one of the ray endpoints."""


class DegenerateTriangle(GeometryError):
    """Triangle vertices are collinear or too close together."""


class NotACycle(GeometryError):
    """Coefficient triple has no real locus (negative discriminant and A != 0)."""


class NotACircle(GeometryError):
    """Hyperbolic center/radius requested for a cycle that is not a compact circle."""


class IdenticalCycles(GeometryError):
    """Intersection of a cycle with itself (or a scalar multiple) is not a point pair."""


class BracketFailure(GeometryError):
    """A cevian foot falls outside the part of the side line where it may lie."""


class DivergentCevians(GeometryError):
    """Cevian pair has no common point inside the disk."""


class AxisOutsideDisk(GeometryError):
    """Two cycles whose radical axis misses the disk, concentric circles
    among them."""


class MissingCenter(GeometryError):
    """A center the construction needs does not exist: a homothetic center
    required by a sign pattern, or a circle's center that meet_point
    does not read as a disk point."""


class NoHyperbolicCenter(GeometryError):
    """Cycle meets or encloses the absolute, so it has no interior center."""


class DegenerateConfiguration(GeometryError):
    """Instance collapsed in a way no specific error class describes."""


class SamplingExhausted(Exception):
    """A seeded generator gave up: no draw met its settings within its cap."""
