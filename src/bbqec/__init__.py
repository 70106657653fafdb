"""Toolkit for bivariate bicycle quantum LDPC codes.

Covers code construction and structural checks, syndrome-measurement
circuits with symbolic verification, circuit-level noise models,
BP-OSD decoding and logical-operator machinery.
"""

__version__ = "0.1.0"
