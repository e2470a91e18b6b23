"""Dense univariate polynomials over a GF instance.

A polynomial is a list/tuple of field elements (ints), low degree first,
normalized so the last coefficient is nonzero; () is the zero polynomial.

Root finding is deterministic equal-degree splitting (Cantor-Zassenhaus)
with shifts taken from the subfield that holds the roots.  When the roots
of g lie in the degree-s subfield F_{p^s} of F, a shift c of that subfield
splits g by gcd(g, T_c): T_c is the subfield trace of cX in characteristic
2 and (X + c)^((p^s-1)/2) - 1 otherwise.  For w a generator of F_{p^s}*,
the shifts in characteristic 2 are w, w^2, ..., w^s: 1, w, ..., w^(s-1) is
a basis of F_{2^s} over F_2 and multiplying by w is an F_2-linear
bijection, so they are a basis too, and one of them separates any two
roots.  The shift 1 is left out because it never splits a g that is
irreducible over a proper subfield holding its coefficients: Tr(r) is then
the same on every root.  Otherwise the shifts are 1, w, w^2, ..., walking
all of F_{p^s}, ending with 0.  `one_root` descends into the smaller
factor of each split until a linear factor is left, so the other roots of
an irreducible factor follow as its Frobenius conjugates.  `roots`
isolates the part g of f that splits over F (gcd with X^|F| - X) and
takes its roots one at a time: r = `one_root` of g, then g / (X - r).

Both X^|F| mod f and the characteristic-2 trace take p-th powers mod a
fixed g.  The p-th power map is additive, so (Sum h_i X^i)^p mod g is
Sum h_i^p R_i for the table R_i = X^(p i) mod g, i < deg g, built once per
g (Berlekamp's Q-matrix; von zur Gathen and Shoup): a step costs deg g
p-th powers in F and the products by the table rows, with no polynomial
product or division.  Every polynomial it yields equals the one square-
and-multiply gives, so every gcd, split and root is the same.
"""


def trim(cs):
    i = len(cs)
    while i and cs[i - 1] == 0:
        i -= 1
    return tuple(cs[:i])


def sub(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(F.sub(x, y))
    return trim(out)


def scale(F, a, c):
    return trim([F.mul(x, c) for x in a])


def mul(F, a, b):
    out = [0] * (len(a) + len(b) - 1)
    f_add, f_mul = F.add, F.mul
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] = f_add(out[j], f_mul(x, y))
    return trim(out)


def divmod_poly(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    inv_lead = 1 if lead == 1 else F.inv(lead)
    f_sub, f_mul = F.sub, F.mul
    q = [0] * max(0, len(a) - db)
    for d in range(len(a) - 1, db - 1, -1):
        c = a[d]
        if c:
            f = c if lead == 1 else f_mul(c, inv_lead)
            q[d - db] = f
            for i, y in enumerate(b, d - db):
                a[i] = f_sub(a[i], f_mul(f, y))
    return trim(q), trim(a)


def mod(F, a, b):
    """a mod b for b != 0, with no quotient built.  Each step cancels the
    top term left, which is then never read again, so only b's nonzero
    lower terms are subtracted; the remainder is what is left below
    deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    a = list(a)
    lead = b[-1]
    inv_lead = 1 if lead == 1 else F.inv(lead)
    f_sub, f_mul = F.sub, F.mul
    for d in range(len(a) - 1, db - 1, -1):
        c = a[d]
        if c:
            f = c if lead == 1 else f_mul(c, inv_lead)
            s = d - db
            for i in range(db):
                y = b[i]
                if y:
                    a[s + i] = f_sub(a[s + i], f_mul(f, y))
    return trim(a[:db])


def monic(F, a):
    if not a:
        return a
    return scale(F, a, F.inv(a[-1]))


def gcd_poly(F, a, b):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, mod(F, a, b)
    return monic(F, a)


def _square(F, a):
    """a * a with about half the products of `mul`: each cross term
    a_i a_j (i < j) is taken once and doubled (for p = 2 the doubled
    term is 0)."""
    out = [0] * (2 * len(a) - 1)
    f_mul, f_add = F.mul, F.add
    for i, x in enumerate(a):
        if x:
            out[2 * i] = f_add(out[2 * i], f_mul(x, x))
            x2 = f_add(x, x)
            for j in range(i + 1, len(a)):
                y = a[j]
                if y:
                    out[i + j] = f_add(out[i + j], f_mul(x2, y))
    return trim(out)


def pow_mod(F, base, e, m):
    # left to right over the bits of e: no square after the last one
    if not e:
        return (1,)
    b = r = mod(F, base, m)
    for bit in bin(e)[3:]:
        r = mod(F, _square(F, r), m)
        if bit == "1":
            r = mod(F, mul(F, r, b), m)
    return r


def _frobenius_table(F, g):
    """R_i = X^(p i) mod g for i < deg g: R_0 = 1, R_(i+1) = R_i (X^p mod g)."""
    xp = mod(F, (0,) * F.p + (1,), g)
    table = [(1,)]
    for _ in range(len(g) - 2):
        table.append(mod(F, mul(F, table[-1], xp), g))
    return table


def _frobenius(F, h, table):
    """h^p mod g for h reduced mod g, from the table of g: the p-th power
    map is additive, so (Sum h_i X^i)^p = Sum h_i^p X^(p i)."""
    out = [0] * len(table)
    f_add, f_mul, frob = F.add, F.mul, F.frobenius
    for c, row in zip(h, table):
        if c:
            c = frob(c)
            for j, r in enumerate(row):
                if r:
                    out[j] = f_add(out[j], f_mul(c, r))
    return trim(out)


def _splitting_part(F, f):
    """gcd(f, X^|F| - X): the product of the distinct linear factors over F."""
    table = _frobenius_table(F, f)
    xq = mod(F, (0, 1), f)
    for _ in range(F.k):  # X^(p^k) by k p-th powers
        xq = _frobenius(F, xq, table)
    return gcd_poly(F, sub(F, xq, (0, 1)), f)


def _shifts(F, s):
    """The shift constants of the degree-s subfield, in their fixed order:
    w, w^2, ..., w^s for p = 2 (w times the basis 1, ..., w^(s-1), so a
    basis of F_{2^s} over F_2), else 1, w, ..., w^(p^s - 2), 0."""
    q = F.p**s
    w = F.pow(F.generator, F.units // (q - 1))
    c = w if F.p == 2 else 1
    for _ in range(s if F.p == 2 else q - 1):
        yield c
        c = F.mul(c, w)
    if F.p != 2:
        yield 0


def _split(F, g, s):
    """A proper monic factor of g: monic, degree >= 2, with distinct roots
    all in the degree-s subfield of F."""
    deg = len(g) - 1
    table = _frobenius_table(F, g) if F.p == 2 else None
    for c in _shifts(F, s):
        if F.p == 2:
            h = (0, c)
            acc = [0] * deg  # Sum (cX)^(2^i) mod g, added in place by XOR
            acc[1] = c
            for _ in range(s - 1):
                h = _frobenius(F, h, table)
                for i, x in enumerate(h):
                    acc[i] ^= x
            d = gcd_poly(F, acc, g)
        else:
            h = pow_mod(F, (c, 1), (F.p**s - 1) // 2, g)
            d = gcd_poly(F, sub(F, h, (1,)), g)
        if 0 < len(d) - 1 < deg:
            return d
    raise RuntimeError("splitting shifts exhausted (unreachable)")


def one_root(F, g, s):
    """One root of g: monic, with distinct roots all in the degree-s
    subfield of F.  Deterministic: each split keeps the smaller factor."""
    g = trim(g)
    if len(g) < 2:
        raise ValueError("constant polynomial has no root")
    if F.k % s:
        raise ValueError(f"{F} has no subfield of degree {s}")
    while len(g) > 2:
        d = _split(F, g, s)
        e = divmod_poly(F, g, d)[0]
        g = d if len(d) <= len(e) else e
    return F.neg(g[0])


def roots(F, f):
    """Distinct roots of f lying in F, ascending in canonical element order."""
    f = trim(f)
    if not f:
        raise ValueError("zero polynomial")
    found = []
    if len(f) > 1:
        # gcd(f, X^|F| - X) keeps the factor X once when f(0) = 0
        g = _splitting_part(F, monic(F, f))
        while len(g) > 1:
            found.append(one_root(F, g, F.k))
            g = divmod_poly(F, g, (F.neg(found[-1]), 1))[0]
    return sorted(found)
