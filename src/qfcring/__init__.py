"""qfcring: cavity-enhanced quantum frequency converter design toolkit.

A thin-film LN ring resonator, bus-coupled through an asymmetric thermally
tuned Mach-Zehnder interferometer, converts single photons between a
visible memory transition and the telecom bands via chi(2) three-wave
mixing.  This package models the passive elements, searches for triply
resonant operating points over the ring-tuner temperature, and evaluates
conversion efficiency and pump-induced four-wave-mixing noise versus pump
power and geometry.
"""

__version__ = "0.1.0"

from .conversion import (
    ModeChannel,
    TwmSystem,
    cooperativity,
    efficiency_vs_power,
    evolve_mean_field,
    external_efficiency,
    g0_effective,
    intracavity_pump,
    pump_power_unity_cooperativity,
    steady_state_conversion,
)
from .dispersion import (
    DispersionModel,
    DispersionTable,
    default_model,
    fit_dispersion_table,
    load_dispersion_table,
    parse_dispersion_table,
)
from .elements import (
    Device,
    DirectionalCoupler,
    MziCoupler,
    RingCavity,
    coupling_ratio,
    qpm_mismatch,
    resonance_comb,
    ring_spectrum,
)
from .matching import (
    MatchResult,
    SearchConstraints,
    find_triple_resonance,
    verify_match,
)
from .noise import (
    FwmChannel,
    TradeoffVariant,
    efficiency_snr_tradeoff,
    fwm_noise_rate,
    noise_vs_power,
    snr_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
