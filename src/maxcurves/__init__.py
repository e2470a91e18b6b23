"""Exact verification toolkit for maximal curves and Hermitian coverings.

Deterministic finite-field towers, curve point counts, PGU(3, q) element
actions, Riemann-Hurwitz ledgers, linearized polynomial algebra, and the
integer case scans behind two non-covering results, each reproduced at
concrete parameters through the check registry (see maxcurves.checks and
the `maxcurves` command-line tool).
"""

from .gf import GF, TowerMap, build_field, embed, load_field_config
from .curves import (FermatHermitian, GarciaStichtenoth, GeneralizedGK,
                     NormTraceHermitian)
from .proj3 import ProjLine, ProjPoint, incident, line_points, normalize, polar
from .pgu3 import (Projectivity, SubgroupSpec, generate, in_psu, is_unitary,
                   make_alpha, make_alpha_a, make_beta, make_three_cycle)
from .action import (fixed_points, is_semiregular, orbits, restrict_to_line,
                     sharply_2_transitive, stabilizer_census, sylow_census)
from .ramification import (RamificationLedger, different_degree,
                           expected_delta, i_sigma, ledger_feasibility)
from .linpoly import (AssociatePoly, LinearizedPoly, compose, decompose,
                      from_kernel, inverse_associate, p_associate,
                      symbolic_divides)
from .catalog import (lemmino_scan, mh_orders, order_excluded, primovalore_scan,
                      psu3_order, quattordici_scan)
from .checks import run_all, run_check

__version__ = "0.1.0"
