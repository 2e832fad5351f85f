"""Reference models for the benchmark's presentations, independent of catcw.

A model evaluates a composable word of generator names to an element: a
hashable value that two words share exactly when they name the same
morphism.  Composition is diagrammatic ("f then g"), as in catcw paths.
Every model knows how many morphisms its category has, so a finite table
can be checked by its size and by evaluating sampled cells.

Nothing here imports catcw: these answers must not come from the code under
test.
"""

from __future__ import annotations


class Model:
    """Base class: subclasses define ``order``, ``identity``, ``gen``, ``compose``."""

    order: int
    tag = ""  # prefix of every generator name in the presentation

    def identity(self, obj: str):
        raise NotImplementedError

    def gen(self, name: str):
        raise NotImplementedError

    def compose(self, a, b):
        raise NotImplementedError

    def evaluate(self, at: str, gens) -> object:
        e = self.identity(at)
        cut = len(self.tag)
        for g in gens:
            e = self.compose(e, self.gen(g[cut:]))
        return e

    def generator_names(self) -> list[str]:
        raise NotImplementedError

    def objects(self) -> list[str]:
        return ["*"]

    def elements(self) -> set:
        """Closure of the identities under the generators (breadth first)."""
        seen = {self.identity(x) for x in self.objects()}
        frontier = list(seen)
        gens = [self.gen(g) for g in self.generator_names()]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    try:
                        h = self.compose(e, g)
                    except ValueError:  # not composable
                        continue
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return seen


# ---------------------------------------------------------------------------
# Coxeter groups


def coxeter_matrix(kind: str, rank: int) -> list[list[int]]:
    """The Coxeter matrix of type A, B, D or H (H only for rank 3)."""
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]

    def link(i: int, j: int, label: int) -> None:
        m[i][j] = m[j][i] = label

    if kind == "A":
        for i in range(rank - 1):
            link(i, i + 1, 3)
    elif kind == "B":
        for i in range(rank - 2):
            link(i, i + 1, 3)
        link(rank - 2, rank - 1, 4)
    elif kind == "D":
        for i in range(rank - 2):
            link(i, i + 1, 3)
        link(rank - 3, rank - 1, 3)
    elif kind == "H" and rank == 3:
        link(0, 1, 5)
        link(1, 2, 3)
    else:
        raise ValueError(f"no Coxeter matrix for {kind}{rank}")
    return m


def coxeter_order(kind: str, rank: int) -> int:
    """|A_n| = (n+1)!, |B_n| = 2^n n!, |D_n| = 2^(n-1) n!, |H_3| = 120."""
    fact = 1
    for i in range(2, rank + 1):
        fact *= i
    if kind == "A":
        return fact * (rank + 1)
    if kind == "B":
        return 2**rank * fact
    if kind == "D":
        return 2 ** (rank - 1) * fact
    if kind == "H" and rank == 3:
        return 120
    raise ValueError(f"no Coxeter group {kind}{rank}")


class SignedPermutationModel(Model):
    """A_n, B_n and D_n as (signed) permutations of coordinates.

    A signed permutation of n coordinates is stored as a permutation of the
    2n points +e_i (point 2i) and -e_i (point 2i + 1); an element is the
    tuple of images.  A_n permutes n + 1 coordinates and never negates.
    """

    def __init__(self, kind: str, rank: int):
        self.kind, self.rank = kind, rank
        self.order = coxeter_order(kind, rank)
        n = rank + 1 if kind == "A" else rank
        self.points = 2 * n
        self._gens = {}
        for i in range(rank):
            name = f"s{i}"
            if kind == "A" or i < rank - 1:
                self._gens[name] = self._signed_swap(i, i + 1, negate=False)
            elif kind == "B":
                self._gens[name] = self._negate(n - 1)
            else:  # D: swap the last two coordinates and negate both
                self._gens[name] = self._signed_swap(n - 2, n - 1, negate=True)

    def _signed_swap(self, i: int, j: int, negate: bool) -> tuple[int, ...]:
        img = list(range(self.points))
        for sign in (0, 1):
            flip = 1 - sign if negate else sign
            img[2 * i + sign] = 2 * j + flip
            img[2 * j + sign] = 2 * i + flip
        return tuple(img)

    def _negate(self, i: int) -> tuple[int, ...]:
        img = list(range(self.points))
        img[2 * i], img[2 * i + 1] = 2 * i + 1, 2 * i
        return tuple(img)

    def generator_names(self):
        return list(self._gens)

    def identity(self, obj):
        return tuple(range(self.points))

    def gen(self, name):
        return self._gens[name]

    def compose(self, a, b):
        return tuple(b[x] for x in a)


class ZPhi:
    """Exact arithmetic in Z[phi], phi the golden ratio (phi^2 = phi + 1)."""

    @staticmethod
    def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        a, b = x
        c, d = y
        return (a * c + b * d, a * d + b * c + b * d)

    @staticmethod
    def add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return (x[0] + y[0], x[1] + y[1])


class H3Model(Model):
    """H_3 through its reflection representation in the root basis.

    With B(e_i, e_j) = -cos(pi / m_ij), the reflection s_i sends e_j to
    e_j - 2 B(e_i, e_j) e_i.  For H_3 every 2 B(e_i, e_j) lies in Z[phi]
    (-1 for m = 3, -phi for m = 5), so the matrices are exact.  The
    representation is faithful, so an element is its matrix.
    """

    order = 120

    def __init__(self):
        m = coxeter_matrix("H", 3)
        two_b = {1: (2, 0), 2: (0, 0), 3: (-1, 0), 5: (0, -1)}
        self._gens = {}
        for i in range(3):
            # column j is the image of e_j: e_j - 2B(e_i, e_j) e_i
            cols = []
            for j in range(3):
                col = [(1, 0) if r == j else (0, 0) for r in range(3)]
                c = two_b[m[i][j]]
                col[i] = ZPhi.add(col[i], (-c[0], -c[1]))
                cols.append(col)
            self._gens[f"s{i}"] = tuple(
                tuple(cols[j][r] for j in range(3)) for r in range(3)
            )
        self._id = tuple(
            tuple((1, 0) if r == c else (0, 0) for c in range(3)) for r in range(3)
        )

    def generator_names(self):
        return list(self._gens)

    def identity(self, obj):
        return self._id

    def gen(self, name):
        return self._gens[name]

    def compose(self, a, b):
        # "a then b" acts as the matrix product b @ a
        out = []
        for r in range(3):
            row = []
            for c in range(3):
                acc = (0, 0)
                for k in range(3):
                    acc = ZPhi.add(acc, ZPhi.mul(b[r][k], a[k][c]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)


def coxeter_model(kind: str, rank: int) -> Model:
    if kind == "H":
        return H3Model()
    return SignedPermutationModel(kind, rank)


# ---------------------------------------------------------------------------
# Dihedral, abelian and chaotic


class DihedralModel(Model):
    """D_k as maps x -> s*x + a on Z/k: r is x -> x + 1, f is x -> -x.

    An element is the pair (rotation a, flip bit) with s = -1 when flipped.
    """

    def __init__(self, k: int):
        self.k = k
        self.order = 2 * k

    def generator_names(self):
        return ["r", "f"]

    def identity(self, obj):
        return (0, 0)

    def gen(self, name):
        return (1, 0) if name == "r" else (0, 1)

    def compose(self, a, b):
        # b after a: x -> s_b (s_a x + a_a) + a_b
        rot_a, flip_a = a
        rot_b, flip_b = b
        sign_b = -1 if flip_b else 1
        return ((sign_b * rot_a + rot_b) % self.k, flip_a ^ flip_b)


class AbelianModel(Model):
    """Z_a x Z_b: an element is the pair of exponent sums of x and y."""

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        self.order = a * b

    def generator_names(self):
        return ["x", "y"]

    def identity(self, obj):
        return (0, 0)

    def gen(self, name):
        return (1, 0) if name == "x" else (0, 1)

    def compose(self, u, v):
        return ((u[0] + v[0]) % self.a, (u[1] + v[1]) % self.b)


class ChaoticModel(Model):
    """chaotic(n): one morphism per ordered pair, so a morphism is its endpoints."""

    def __init__(self, names: list[str]):
        self.names = list(names)
        self.order = len(names) ** 2

    def objects(self):
        return list(self.names)

    def generator_names(self):
        return [f"{x}>{y}" for x in self.names for y in self.names if x != y]

    def identity(self, obj):
        return (obj, obj)

    def gen(self, name):
        x, y = name.split(">")
        return (x, y)

    def compose(self, a, b):
        if a[1] != b[0]:
            raise ValueError("not composable")
        return (a[0], b[1])


def model_for(spec: dict) -> Model:
    """The reference model of a generated presentation's ``spec``."""
    family = spec["family"]
    if family == "chaotic":
        return ChaoticModel(spec["objects"])  # names carry the tag already
    if family == "coxeter":
        model = coxeter_model(spec["kind"], spec["rank"])
    elif family == "dihedral":
        model = DihedralModel(spec["k"])
    elif family == "abelian":
        model = AbelianModel(spec["a"], spec["b"])
    else:
        raise ValueError(f"no reference model for family {family!r}")
    model.tag = spec["tag"]
    return model


# ---------------------------------------------------------------------------
# Finite spaces


def space_is_connected(points: list[str], opens: list[list[str]]) -> bool:
    """Connectedness of a finite space from its list of opens.

    Points x and y are linked when y lies in the smallest open containing x;
    the space is connected when the links join every point.
    """
    parent = {x: x for x in points}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x in points:
        smallest = set(points)
        for u in opens:
            if x in u:
                smallest &= set(u)
        for y in smallest:
            parent[root(y)] = root(x)
    return len({root(x) for x in points}) == 1
