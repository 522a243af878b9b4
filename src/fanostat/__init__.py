"""Photon statistics of a driven two-level emitter in a waveguide with a
Fabry-Perot background: closed-form correlators, ensemble averaging, an
independent Bloch-equation solver, and parameter fitting."""

__version__ = "0.1.0"

from .params import (HBAR_UEV_PS, DimensionlessParams, FPBackground,
                     PhysicalParams, ScatteringMatrix, detuning_to_delta,
                     fp_background, hbar_gamma, phi_from_t0, scattering_matrix,
                     tau_to_dimensionless, to_dimensionless)
from .correlators import (CorrelatorDecomposition, G2Coefficients, g1_general,
                          g1_ideal, g2_coefficients, g2_tau_general,
                          g2_tau_parts, g2zero_ideal, ideal_min_g2zero)
from .averaging import ModelCurves, avg_g1, avg_g2, check_refinement
from .bloch import (bloch_matrix, output_correlator_g1, output_correlator_g2,
                    propagate_exact, steady_state)
from .fitting import (FitResult, G2Histogram, MeasurementSet, fit_full_model,
                      fit_report, model_objective)
from .io import (DataFormatError, LoadReport, load_measurements,
                 merge_measurements, params_from_config, read_config,
                 write_series)

__all__ = [name for name in dir() if not name.startswith("_")]
