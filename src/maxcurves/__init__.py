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
from .proj3 import ProjPoint, line_points, normalize
from .pgu3 import (Projectivity, SubgroupSpec, generate, in_psu, make_alpha,
                   make_alpha_a, make_beta, make_three_cycle)
from .action import (fixed_points, is_semiregular, orbits,
                     restrict_to_infinity, sharply_2_transitive, sylow_census)
from .ramification import (RamificationLedger, different_degree,
                           expected_delta, i_sigma, ledger_feasibility)
from .linpoly import compose, decompose
from .catalog import (lemmino_scan, mh_orders, order_excluded, primovalore_scan,
                      psu3_order, quattordici_scan)
from .checks import run_all, run_check

__version__ = "0.1.0"
