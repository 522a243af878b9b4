"""Photon statistics of a driven two-level emitter in a waveguide with a
Fabry-Perot background: closed-form correlators, ensemble averaging, an
independent Bloch-equation solver, and parameter fitting."""

__version__ = "0.1.0"

from .params import (HBAR_UEV_PS, FPBackground, PhysicalParams,
                     detuning_to_delta, fp_background, hbar_gamma,
                     phi_from_t0, tau_to_dimensionless)
from .correlators import (CorrelatorDecomposition, g1_general, g2_tau_general,
                          g2_tau_parts, g2zero_ideal)
from .averaging import ModelCurves, avg_g1, avg_g2
from .bloch import (bloch_matrix, output_correlators, output_g1,
                    propagate_exact, steady_state)
from .fitting import (FitResult, G2Histogram, MeasurementSet, fit_full_model,
                      fit_report)
from .io import (DataFormatError, LoadReport, load_measurements,
                 merge_measurements, params_from_config, read_config,
                 write_series)

__all__ = [name for name in dir() if not name.startswith("_")]
