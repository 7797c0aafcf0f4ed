"""Name of the kernel implementation.

Every kernel in ges.kernels has one numpy implementation.  backend()
still names it, so that a run record can say which kernels produced it
and timings taken on different implementations are never compared.
"""

from __future__ import annotations


def backend() -> str:
    """Name of the kernel implementation: always "numpy"."""
    return "numpy"
