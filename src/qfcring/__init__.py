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
