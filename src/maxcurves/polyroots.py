"""Dense univariate polynomials over a GF instance.

A polynomial is a list/tuple of field elements (ints), low degree first,
normalized so the last coefficient is nonzero; () is the zero polynomial.
Root finding uses gcd with X^|F| - X to isolate the part that splits in the
field, then deterministic equal-degree splitting (trace polynomials in
characteristic 2, half-power shifts otherwise), walking the fixed sequence
0, 1, g, g^2, ... of shift constants so results never depend on randomness.
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
    inv_lead = F.inv(lead)
    q = [0] * max(0, len(a) - db)
    for d in range(len(a) - 1, db - 1, -1):
        c = a[d]
        if c:
            f = F.mul(c, inv_lead)
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


def _split_equal_degree(F, g, out):
    """g: monic, squarefree, splits into distinct linear factors over F."""
    deg = len(g) - 1
    if deg == 0:
        return
    if deg == 1:
        out.append(F.neg(g[0]))
        return
    # deterministic shift sequence: 0, 1, g, g^2, ...
    shifts = _shift_sequence(F)
    for c in shifts:
        if F.p == 2:
            # trace polynomial of c*X modulo g
            h = mod(F, (0, c), g)
            acc = h
            for _ in range(F.k - 1):
                h = mod(F, mul(F, h, h), g)
                acc = add(F, acc, h)
            d = gcd_poly(F, acc, g)
        else:
            s = pow_mod(F, (c, 1), F.units // 2, g)
            d = gcd_poly(F, sub(F, s, (1,)), g)
        if 0 < len(d) - 1 < deg:
            _split_equal_degree(F, d, out)
            _split_equal_degree(F, divmod_poly(F, g, d)[0], out)
            return
    raise RuntimeError("splitting sequence exhausted (unreachable)")


def _shift_sequence(F):
    yield 1
    c = F.generator
    for _ in range(4 * F.k + 16):
        yield c
        c = F.mul(c, F.generator)
    yield 0


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


def roots_with_multiplicity(F, f):
    """List of (root, multiplicity) pairs for roots of f lying in F."""
    out = []
    for r in roots(F, f):
        m = 0
        lin = (F.neg(r), 1)
        while True:
            q, rem = divmod_poly(F, f, lin)
            if rem:
                break
            f = q
            m += 1
        out.append((r, m))
    return out
