"""SSA form: construction, pinning model, copy propagation."""

from .construction import SSAConstructionError, construct_ssa
from .copyprop import eliminate_dead_code, optimize_ssa, propagate_copies
from .pinning import (PinningError, check_function_pinning, pin_definition,
                      resource_of, variable_resources)

__all__ = ["SSAConstructionError", "construct_ssa", "PinningError",
           "check_function_pinning", "pin_definition", "resource_of",
           "variable_resources", "eliminate_dead_code", "optimize_ssa",
           "propagate_copies"]
