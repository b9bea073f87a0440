"""LAI-like assembly front end (one line-oriented parser).

The paper's LAO tool "converts a program written in the Linear Assembly
Input (LAI) language into the final assembly language"; our dialect plays
the same role for this reproduction: benchmarks, figures and examples are
written as readable assembly text and parsed into the IR.
"""

from .parser import (LaiSyntaxError, Parser, Token, parse_function,
                     parse_module, tokenize)

__all__ = ["LaiSyntaxError", "Token", "tokenize", "Parser",
           "parse_function", "parse_module"]
