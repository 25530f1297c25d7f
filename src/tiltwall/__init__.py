"""Exact-arithmetic calculator for tilt stability and wall-and-chamber
structures on P^3 and its local Calabi-Yau fourfold."""

from .errors import DomainError, InputError, TiltwallError
from .euler import chi_local, chi_p3, chi_pair_p3, spherical_twist_class
from .heartgate import (CheckReport, CollectionSpec, admissible_a_interval,
                        cone_check, general_condition_check, simples_classes,
                        thm_region_check)
from .numclass import (NumClass, POINT, class_of_line_bundle,
                       class_of_named, dual_shifted, is_integral_class,
                       shift, tensor_line)
from .surd import Surd
from .tiltcalc import (ChargeValue, CurveCE, ParamPoint, Slope, alpha_E_beta,
                       bg_margin, central_charge_2, central_charge_3,
                       curve_CE, curve_endpoint, discriminant, dual_transform,
                       min_positive_v1beta, mu12, quadratic_form_Q,
                       reduce_to_fundamental, shift_transform, slope_mu,
                       tilt_slope_nu, twisted_v)
from .walls import (Region, Wall, common_slope, enumerate_candidate_walls,
                    passes_through, pi_point, plot_scene, scene_svg,
                    wall_between)

__version__ = "0.1.0"
