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


def incident(point: ProjPoint, line: ProjLine) -> bool:
    F = point.field
    if F is not line.field:
        raise ProjError("point and line live over different fields")
    acc = 0
    for a, b in zip(point.coords, line.coords):
        acc = F.add(acc, F.mul(a, b))
    return acc == 0


def polar(point: ProjPoint, model) -> ProjLine:
    """Polar line of a point under the unitary polarity of a Hermitian model."""
    gram = model.hermitian_gram()
    F = point.field
    q = model.q
    conj = [F.pow(c, q) for c in point.coords]
    line = []
    for i in range(3):
        acc = 0
        for j in range(3):
            if gram[j][i]:
                term = F.mul(F.const(gram[j][i]), conj[j])
                acc = F.add(acc, term)
        line.append(acc)
    return ProjLine(F, line)


def pole(line: ProjLine, model) -> ProjPoint:
    """Inverse of polar(): the point whose polar is the given line."""
    from .pgu3 import Projectivity  # pgu3 imports this module
    F = line.field
    gram = Projectivity(F, [F.const(e) for row in model.hermitian_gram() for e in row])
    # the adjugate is a scalar multiple of the inverse; ProjPoint drops it
    conj_v = gram.inverse().apply(line.coords)
    # undo x -> x^q inside F_{q^2}: the inverse is x -> x^q again
    return ProjPoint(F, [F.pow(c, model.q) for c in conj_v])


def line_points(line: ProjLine, field=None):
    """The |F| + 1 points of PG(2, F) on a line, in canonical order."""
    F = field or line.field
    if F is not line.field:
        raise ProjError("field mismatch")
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


def all_points(field):
    """Every point of PG(2, F), affine chart first.  Requires table mode."""
    for x in field.elements():
        for y in field.elements():
            yield ProjPoint(field, (x, y, 1))
    for x in field.elements():
        yield ProjPoint(field, (x, 1, 0))
    yield ProjPoint(field, (1, 0, 0))
