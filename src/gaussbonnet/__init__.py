"""Numerical verification of curvature-topology identities.

Curvature integrals recover Euler characteristics (Gauss-Bonnet-Chern),
index sums of vector-field zeros recover the same integers
(Poincare-Hopf), clutching data of plane bundles recovers Euler numbers
two ways, Mathai-Quillen Thom forms integrate to one along fibers, and
heat-kernel supertraces are t-independent integers (McKean-Singer).
"""

from .exterior import (BigradedElement, FormElement, SkewFormMatrix, berezin,
                       berezin_fiber, dp_extend, dp_extend4, exp_nilpotent,
                       patodi_coefficient, pfaffian, supertrace)
from .expr import eval_jet, parse
from .gbc import gb_density_aw_batch, gb_density_pfaffian_batch, verify_gbc
from .geometry import Atlas, Chart, NormalCoordinates, PointGeometry, point_geometry
from .heat import FlatTorusSpectrum, RoundSphereSpectrum, asymptotic_fit, supertrace_heat
from .index import VectorFieldSpec, ZeroRecord, find_zeros, index_sum, local_degree
from .bundles import PlaneBundle, generalized_gbc, make_plane_bundle
from .library import build_field, build_manifold, manifold_names
from .mq import mq_euler_number, mq_fiber_integral, mq_form_bundle, mq_form_point
from .quadrature import integrate_atlas, integrate_chart

__version__ = "0.1.0"
