"""Majority-vote competence math.

Exact majority probabilities for heterogeneous juries, learning-rate
trade-offs between group size and deliberation time, correlation bounds,
and simple competence dynamics, with a CSV-emitting command-line front end.

The package re-exports each module's ``__all__``, its one public surface.
"""

from .correlation import *
from .csvio import *
from .dynamics import *
from .errors import *
from .figures import *
from .profiles import *
from .tradeoff import *
from .votemath import *

__version__ = "0.1.0"
