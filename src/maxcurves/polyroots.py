"""Dense univariate polynomials over a GF instance.

A polynomial is a list/tuple of field elements (ints), low degree first,
normalized so the last coefficient is nonzero; () is the zero polynomial.

Root finding is deterministic equal-degree splitting (Cantor-Zassenhaus)
with shifts taken from the subfield that holds the roots.  When the roots
of g lie in the degree-s subfield F_{p^s} of F, a shift c of that subfield
splits g by gcd(g, T_c): T_c is the subfield trace of cX in characteristic
2 and (X + c)^((p^s-1)/2) - 1 otherwise.  The shifts are 1, w, w^2, ... for
w a generator of F_{p^s}*: in characteristic 2 the first s of them are a
basis of F_{p^s}, so one of them separates any two roots; otherwise all of
F_{p^s} is walked, ending with 0.  `roots` isolates the part of f that
splits over F (gcd with X^|F| - X) and splits it completely; `one_root`
descends into the smaller factor of each split until a linear factor is
left, so the other roots of an irreducible factor follow as its Frobenius
conjugates.
"""


def trim(cs):
    i = len(cs)
    while i and cs[i - 1] == 0:
        i -= 1
    return tuple(cs[:i])


def add(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(F.add(x, y))
    return trim(out)


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
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return trim(out)


def divmod_poly(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    inv_lead = 1 if lead == 1 else F.inv(lead)
    q = [0] * max(0, len(a) - db)
    for d in range(len(a) - 1, db - 1, -1):
        c = a[d]
        if c:
            f = c if lead == 1 else F.mul(c, inv_lead)
            q[d - db] = f
            for j in range(db + 1):
                a[d - db + j] = F.sub(a[d - db + j], F.mul(f, b[j]))
    return trim(q), trim(a)


def mod(F, a, b):
    return divmod_poly(F, a, b)[1]


def monic(F, a):
    if not a:
        return a
    return scale(F, a, F.inv(a[-1]))


def gcd_poly(F, a, b):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, mod(F, a, b)
    return monic(F, a)


def pow_mod(F, base, e, m):
    r = (1,)
    b = mod(F, base, m)
    while e:
        if e & 1:
            r = mod(F, mul(F, r, b), m)
        b = mod(F, mul(F, b, b), m)
        e >>= 1
    return r


def _splitting_part(F, f):
    """gcd(f, X^|F| - X): the product of the distinct linear factors over F."""
    xq = pow_mod(F, (0, 1), F.order, f)
    return gcd_poly(F, sub(F, xq, (0, 1)), f)


def _shifts(F, s):
    """The shift constants of the degree-s subfield, in their fixed order."""
    q = F.p**s
    w = F.pow(F.generator, F.units // (q - 1))
    c = 1
    for _ in range(s if F.p == 2 else q - 1):
        yield c
        c = F.mul(c, w)
    if F.p != 2:
        yield 0


def _split(F, g, s):
    """A proper monic factor of g: monic, degree >= 2, with distinct roots
    all in the degree-s subfield of F."""
    deg = len(g) - 1
    for c in _shifts(F, s):
        if F.p == 2:
            h = (0, c)
            acc = h
            for _ in range(s - 1):
                h = mod(F, mul(F, h, h), g)
                acc = add(F, acc, h)
            d = gcd_poly(F, acc, g)
        else:
            h = pow_mod(F, (c, 1), (F.p**s - 1) // 2, g)
            d = gcd_poly(F, sub(F, h, (1,)), g)
        if 0 < len(d) - 1 < deg:
            return d
    raise RuntimeError("splitting shifts exhausted (unreachable)")


def _split_equal_degree(F, g, out):
    """g: monic, squarefree, splits into distinct linear factors over F."""
    deg = len(g) - 1
    if deg == 0:
        return
    if deg == 1:
        out.append(F.neg(g[0]))
        return
    d = _split(F, g, F.k)
    _split_equal_degree(F, d, out)
    _split_equal_degree(F, divmod_poly(F, g, d)[0], out)


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
    # strip powers of X
    v = 0
    while v < len(f) and f[v] == 0:
        v += 1
    if v:
        found.append(0)
        f = f[v:]
    if len(f) > 1:
        g = _splitting_part(F, monic(F, f))
        out = []
        if len(g) - 1 >= 1:
            _split_equal_degree(F, g, out)
        found.extend(out)
    return sorted(found)
