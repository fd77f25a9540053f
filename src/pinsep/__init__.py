"""Exact invariants of finitely generated purely inseparable extensions
of k = F_p(x_1, ..., x_nu): r-bases, degree of irrationality, canonical
exponent lists, defining equations, modularity, equiexponentiality,
relatively perfect chains, truncation fields, U-tables, and the parity
lengths driving the halving truncation formulas.
"""

from .exprs import parse_element, render_element
from .invariants import (RBase, UTable, ParityLengths, canonical_rbase,
                         defining_equations, di, exponents_by_di,
                         is_equiexponential, is_modular, parity_lengths,
                         rbase_extract, rp_chain, u_table)
from .perfect import CapExceeded, Context, PerfElem
from .polynomials import MultiPoly, RatFunc
from .subfields import Subfield
from .towers import TowerFamily, family

__all__ = [
    "CapExceeded", "Context", "MultiPoly", "ParityLengths", "PerfElem",
    "RBase", "RatFunc", "Subfield", "TowerFamily", "UTable",
    "canonical_rbase", "defining_equations", "di", "exponents_by_di",
    "family", "is_equiexponential", "is_modular", "parity_lengths",
    "parse_element", "rbase_extract", "render_element", "rp_chain",
    "u_table",
]

__version__ = "0.1.0"
