"""Points and lines of PG(2, F) and the unitary polarity of a Hermitian model.

Coordinates are homogeneous triples of field elements, normalized so the
first nonzero coordinate is 1; equality and hashing always go through the
normalized form.  Point enumeration order is the affine chart T = 1 first
(lexicographic in canonical element order), then the chart T = 0.
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


def _triple(field, coords):
    coords = tuple(coords)
    if len(coords) != 3:
        raise ProjError("expected three homogeneous coordinates")
    return normalize(field, coords)


class ProjPoint:
    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = _triple(field, coords)

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field is other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def __repr__(self):
        return f"ProjPoint{self.coords}"


class ProjLine:
    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = _triple(field, coords)

    def __eq__(self, other):
        return (isinstance(other, ProjLine) and self.field is other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.field), "line", self.coords))

    def __repr__(self):
        return f"ProjLine{self.coords}"


def pole(line: ProjLine, model) -> ProjPoint:
    """The point whose polar line under the unitary polarity of the
    Hermitian model is the given line."""
    from .pgu3 import Projectivity  # pgu3 imports this module
    F = line.field
    gram = Projectivity(F, [F.const(e) for row in model.hermitian_gram() for e in row])
    # the adjugate is a scalar multiple of the inverse; ProjPoint drops it
    conj_v = gram.inverse().apply(line.coords)
    # undo x -> x^q inside F_{q^2}: the inverse is x -> x^q again
    return ProjPoint(F, [F.pow(c, model.q) for c in conj_v])


def line_points(line: ProjLine):
    """The |F| + 1 points of PG(2, F) on a line, in canonical order."""
    F = line.field
    a, b, c = line.coords
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
