"""The conventional-SSA checker."""

from repro.outofssa import out_of_pinned_ssa, sreedhar_to_cssa
from repro.outofssa.cssa_check import (check_conventional,
                                       phi_congruence_classes)
from repro.pipeline import ensure_ssa

from helpers import DIAMOND, SWAP_LOOP, function_of, module_of


class TestCssaCheck:
    def test_swap_is_not_conventional(self):
        m = module_of(SWAP_LOOP)
        f = m.function("swaploop")
        ensure_ssa(f)
        assert check_conventional(f)

    def test_sreedhar_establishes_cssa(self):
        m = module_of(SWAP_LOOP)
        f = m.function("swaploop")
        ensure_ssa(f)
        sreedhar_to_cssa(f, pin_classes=False)
        assert check_conventional(f) == []

    def test_sreedhar_on_kernels_establishes_cssa(self):
        from repro.benchgen.kernels import KERNELS
        from repro.lai import parse_module
        from repro.ssa import optimize_ssa

        for name, src, _ in KERNELS[:8]:
            module = parse_module(src, name=name)
            for f in module.iter_functions():
                ensure_ssa(f)
                optimize_ssa(f)
                sreedhar_to_cssa(f, pin_classes=False)
                assert check_conventional(f) == [], (name, f.name)

    def test_congruence_classes(self):
        f = function_of(DIAMOND)
        classes = phi_congruence_classes(f)
        assert len(classes) == 1
        names = {v.name for v in classes[0]}
        assert names == {"r", "x", "y"}

    def test_interference_free_diamond_is_conventional(self):
        f = function_of(DIAMOND)
        assert check_conventional(f) == []
