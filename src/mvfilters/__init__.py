"""Workbench for the filter calculus of MV-algebras.

Finite algebras are handled exhaustively (elements as indices, subsets as
bitmasks); the dense rational chain is handled symbolically with exact
Fraction endpoints.  See the README for the calculus itself.

The package root exports only the names of the README tour.  Everything else
is imported from the module that defines it: ``mvfilters.core``,
``.filters``, ``.calculus``, ``.spectra``, ``.densechain``, ``.verify`` and
``.errors``.
"""

from .core import make_lukasiewicz_chain
from .filters import principal_generator
from .calculus import kernel, set_plus, sqto
from .spectra import build_hat, prime_spectrum
from .verify import run_dense, run_finite
