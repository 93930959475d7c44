"""prodex: exact product expansions of integer power series.

Every unit integer power series f has one and only one representation as
an infinite product prod_k (1 - m_k x^k) with integer exponents m_k.  This
package computes that expansion and its inverse exactly, transforms
exponent sequences to and from their divisor-sum (ghost) sequences, and
uses the machinery to produce Fermat quotients, a full verification of
p | a^p - a, a Wieferich-prime scanner, and the partition-number product.
"""

from . import congruences, errors, ghost, products, series
from .congruences import *
from .errors import *
from .ghost import *
from .products import *
from .series import *

__version__ = "0.1.0"

# each layer's __all__ is the one list of its public names
__all__ = (series.__all__ + products.__all__ + ghost.__all__ + congruences.__all__
           + errors.__all__)
