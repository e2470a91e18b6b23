"""Riemann-Hurwitz accounting for Galois coverings of Hermitian curves.

Per-element different contributions i(sigma) follow a closed table:

  * order coprime to the characteristic (tame): the number of fixed points
    on the curve, where a homology contributes its whole polar axis, a
    (Q+1)-secant;
  * characteristic 2, order 2: Q + 2;  characteristic 2, order 4: 2.

Anything wilder raises UnsupportedRamification rather than guessing: the
artifact never extrapolates higher ramification data.  The inconsistency
of a ledger (a quotient genus that fails to be a nonnegative integer) is
itself meaningful and is reported, not hidden.
"""

from .action import fixed_points


class UnsupportedRamification(ValueError):
    pass


class RamificationLedger:
    def __init__(self, model, group, records, delta, top_genus,
                 quotient_genus, consistent):
        self.model = model
        self.group = group
        self.records = records          # [(element, order, tag, value)]
        self.delta = delta
        self.top_genus = top_genus
        self.quotient_genus = quotient_genus
        self.consistent = consistent


def wild_contribution(order, model):
    """i(sigma) for an element whose order the characteristic divides, from
    the closed table: characteristic 2, order 2 gives Q + 2, order 4 gives 2."""
    if model.p == 2 and order in (2, 4):
        return model.q + 2 if order == 2 else 2
    raise UnsupportedRamification(
        f"no contribution rule for order {order} in characteristic {model.p}")


def i_sigma(sigma, model):
    """(value, tag) for one nontrivial automorphism of a Hermitian model."""
    if sigma.is_identity():
        raise UnsupportedRamification("i(sigma) is defined for nontrivial elements")
    order = sigma.order()
    if order % model.p == 0:
        return wild_contribution(order, model), f"wild-order-{order}"
    fps = fixed_points(sigma, model)
    if fps.kind == "line":
        return fps.on_curve_count(), "tame-homology"
    return fps.on_curve_count(), "tame-isolated"


def different_degree(group, model) -> RamificationLedger:
    """Full ledger for a subgroup: every i(sigma), their sum, and the
    quotient genus when Riemann-Hurwitz admits an integer solution."""
    records = []
    delta = 0
    for s in group.nontrivial():
        value, tag = i_sigma(s, model)
        records.append((s, s.order(), tag, value))
        delta += value
    g_top = model.genus()
    n = group.order
    quotient_genus = None
    numerator = 2 * g_top - 2 - delta
    consistent = numerator % (2 * n) == 0 and numerator // (2 * n) + 1 >= 0
    if consistent:
        quotient_genus = numerator // (2 * n) + 1
    return RamificationLedger(model, group, records, delta, g_top,
                              quotient_genus, consistent)


def expected_delta(g_top: int, g_quot: int, n: int) -> int:
    """(2 g_top - 2) - n (2 g_quot - 2)."""
    return (2 * g_top - 2) - n * (2 * g_quot - 2)


def _allowed_contributions(order, model):
    if order % model.p == 0:
        return (wild_contribution(order, model),)
    # tame: at most 3 isolated fixed points, or a homology axis
    return (0, 1, 2, 3, model.q + 1)


def ledger_feasibility(delta, element_profile, model):
    """Can any assignment of per-element contributions consistent with the
    i(sigma) rules sum to delta?  Returns (feasible, explanation)."""
    wild_sum = 0
    tame_counts = []
    for order, count in element_profile:
        allowed = _allowed_contributions(order, model)
        if len(allowed) == 1:
            wild_sum += allowed[0] * count
        else:
            tame_counts.append(count)
    n_tame = sum(tame_counts)
    remaining = delta - wild_sum
    if remaining < 0:
        return False, (f"forced wild contributions sum to {wild_sum}, "
                       f"already exceeding delta = {delta}")
    big = model.q + 1
    # tame elements contribute 0..3 each, or exactly big (homology)
    for homologies in range(n_tame + 1):
        r = remaining - big * homologies
        if 0 <= r <= 3 * (n_tame - homologies):
            return True, (f"achievable with {homologies} homologies "
                          f"among {n_tame} tame elements")
    return False, (f"wild contributions force {wild_sum}; the remaining "
                   f"{remaining} cannot be written as {big}*h + r with "
                   f"r <= 3*({n_tame} - h)")
