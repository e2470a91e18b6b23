"""Points and lines of PG(2, F) and the unitary polarity of a Hermitian model.

Coordinates are homogeneous triples of field elements, normalized so the
first nonzero coordinate is 1; equality and hashing always go through the
normalized form.  A point is a ProjPoint; a line is the normalized triple
(a, b, c) of its equation a X + b Y + c T = 0.  Point enumeration order is
the affine chart T = 1 first (lexicographic in canonical element order),
then the chart T = 0.
"""


class ProjError(ValueError):
    pass


def normalize(field, coords):
    """Scale a nonzero coordinate tuple so its first nonzero entry is 1."""
    coords = tuple(coords)
    for c in coords:
        if c:
            if c == 1:
                return coords
            inv = field.inv(c)
            return tuple(field.mul(inv, x) for x in coords)
    raise ProjError("the zero vector has no projective class")


def _cross(F, a, b):
    """The cross product a x b of two triples over F: its entries are the
    2x2 minors of the rows a and b, and it is orthogonal to both."""
    mul, sub = F.mul, F.sub
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (sub(mul(a1, b2), mul(a2, b1)), sub(mul(a2, b0), mul(a0, b2)),
            sub(mul(a0, b1), mul(a1, b0)))


class ProjPoint:
    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        coords = tuple(coords)
        if len(coords) != 3:
            raise ProjError("expected three homogeneous coordinates")
        self.field = field
        self.coords = normalize(field, coords)

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field is other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def __repr__(self):
        return f"ProjPoint{self.coords}"


def pole(line, model) -> ProjPoint:
    """The point whose polar line under the unitary polarity of the
    Hermitian model is the given line, a coordinate triple over
    `model.field`: x -> x^q applied to adj(H) line, for H the gram
    matrix.  The columns of adj(H) are r1 x r2, r2 x r0 and r0 x r1 for
    the rows r0, r1, r2 of H; the adjugate is a scalar multiple of the
    inverse, which ProjPoint drops."""
    F = model.field
    r0, r1, r2 = (tuple(F.const(e) for e in row) for row in model.hermitian_gram())
    l0, l1, l2 = line
    v = (F.add(F.add(F.mul(l0, a), F.mul(l1, b)), F.mul(l2, c)) for a, b, c
         in zip(_cross(F, r1, r2), _cross(F, r2, r0), _cross(F, r0, r1)))
    # undo x -> x^q inside F_{q^2}: the inverse is x -> x^q again
    return ProjPoint(F, [F.pow(c, model.q) for c in v])


def line_points(F, line):
    """The |F| + 1 points of PG(2, F) on a line, given by its coordinate
    triple (a, b, c) (the points with a x + b y + c t = 0), in canonical
    order."""
    a, b, c = line
    pts = []
    # chart T = 1: a x + b y + c = 0
    if b:
        binv = F.inv(b)
        for x in F.elements():
            y = F.mul(binv, F.neg(F.add(F.mul(a, x), c)))
            pts.append(ProjPoint(F, (x, y, 1)))
    elif a:
        ainv = F.inv(a)
        x = F.mul(ainv, F.neg(c))
        for y in F.elements():
            pts.append(ProjPoint(F, (x, y, 1)))
    else:
        # line T = 0 has no affine points
        pass
    # chart T = 0: a x + b y = 0
    if a == 0 and b == 0:
        for x in F.elements():
            pts.append(ProjPoint(F, (x, 1, 0)))
        pts.append(ProjPoint(F, (1, 0, 0)))
    elif b:
        pts.append(ProjPoint(F, (1, F.mul(F.inv(b), F.neg(a)), 0)))
    else:
        pts.append(ProjPoint(F, (0, 1, 0)))
    return pts
