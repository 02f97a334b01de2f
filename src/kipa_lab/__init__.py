"""Toolkit for dc-biased three-wave-mixing kinetic-inductance parametric
amplifiers: device design, input-output gain and squeezing predictions, and
calibration fits for measured or synthetic sweep data."""

__version__ = "0.1.0"
