"""Center/focus certification for planar polynomial systems and Abel equations.

The package decides whether the origin of

    x' = -y + P(x, y),   y' = x + Q(x, y)     (P, Q homogeneous of degree n)

is surrounded by closed orbits (a center) or spiraling ones (a focus),
by exact symbolic certificates where parity arguments apply and by
validated return-map numerics otherwise.  The same machinery handles
free-standing scalar equations x' = f(t) x^3 + g(t) x^2 on a symmetric
interval, to which every planar system reduces exactly.
"""

from . import errors
from .abel_solver import *
from .certifier import *
from .errors import *
from .families import *
from .planar_solver import *
from .reduction import *
from .trigpoly import *

__version__ = "0.1.0"

__all__ = ["errors", *abel_solver.__all__, *certifier.__all__, *errors.__all__,
           *families.__all__, *planar_solver.__all__, *reduction.__all__, *trigpoly.__all__]
