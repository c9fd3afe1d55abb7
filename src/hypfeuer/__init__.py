"""Triangle geometry and theorem verification in the hyperbolic disk."""

from .errors import GeometryError
from .geom_core import (
    DiskIsometry,
    Triangle,
    hyp_distance,
    sigma,
    signed_angle,
    triangle_area,
)
from .cycles import (
    CycleClass,
    GeneralizedCycle,
    circle_from_center_radius,
    classify,
    cycle_through,
    geodesic_through,
    hyp_center_radius,
    intersect,
    lexell_cycle,
    tangency_residual,
    transform,
)
from .cevians import TriangleConfig, build_config
from .power import (
    homothetic_centers,
    monge_centers,
    monge_line,
    power_of_point,
    pseudolength,
    radical_axis,
    radical_center,
)
from .theorems import Tolerances, VerificationReport
from .svg_render import render_svg
from .cli import Scenario, main, run_verify

__version__ = "0.1.0"

__all__ = [
    "CycleClass",
    "DiskIsometry",
    "GeneralizedCycle",
    "GeometryError",
    "Scenario",
    "Tolerances",
    "Triangle",
    "TriangleConfig",
    "VerificationReport",
    "build_config",
    "circle_from_center_radius",
    "classify",
    "cycle_through",
    "geodesic_through",
    "homothetic_centers",
    "hyp_center_radius",
    "hyp_distance",
    "intersect",
    "lexell_cycle",
    "main",
    "monge_centers",
    "monge_line",
    "power_of_point",
    "pseudolength",
    "radical_axis",
    "radical_center",
    "render_svg",
    "run_verify",
    "sigma",
    "signed_angle",
    "tangency_residual",
    "transform",
    "triangle_area",
    "__version__",
]
