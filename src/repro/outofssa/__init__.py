"""Out-of-SSA translation algorithms and their building blocks.

* :func:`out_of_pinned_ssa` -- the shared Leung & George-style
  reconstruction engine ("out-of-pinned-SSA" in the paper's Table 1);
* :func:`coalesce_phis` -- the paper's contribution, ``pinningφ``;
* :func:`sreedhar_to_cssa` -- Sreedhar et al. Method III + pinningCSSA;
* :func:`naive_abi` -- late local ABI lowering;
* :func:`aggressive_coalesce` -- Chaitin-style repeated coalescing;
* :func:`sequentialize_function` -- parallel copy sequentialization.
"""

from .chaitin import aggressive_coalesce
from .leung_george import OutOfSSAStats, out_of_pinned_ssa
from .naive_abi import naive_abi
from .parallel_copy import (expand_pcopy, sequentialize_function,
                            sequentialize_pairs)
from .pinning_coalescer import (CoalescingStats, ResourcePool, coalesce_phis)
from .sreedhar import SreedharStats, sreedhar_to_cssa

__all__ = [
    "aggressive_coalesce", "OutOfSSAStats", "out_of_pinned_ssa",
    "naive_abi", "expand_pcopy", "sequentialize_function",
    "sequentialize_pairs", "CoalescingStats", "ResourcePool",
    "coalesce_phis", "SreedharStats", "sreedhar_to_cssa",
]
