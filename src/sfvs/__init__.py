"""Self-similar graph families, their maximum induced forests, and an
exact feedback vertex set solver with verification tooling."""

from . import (
    addressing,
    exact_fvs,
    generators,
    graph_core,
    pairable_forest,
    triangle_forest,
    verify_cli,
)
from .addressing import *
from .exact_fvs import *
from .generators import *
from .graph_core import *
from .pairable_forest import *
from .triangle_forest import *
from .verify_cli import *

__version__ = "0.1.0"

# each module's __all__ is the one declaration of its public names
__all__ = [
    *addressing.__all__,
    *exact_fvs.__all__,
    *generators.__all__,
    *graph_core.__all__,
    *pairable_forest.__all__,
    *triangle_forest.__all__,
    *verify_cli.__all__,
    "__version__",
]
