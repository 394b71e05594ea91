"""Tensor coalgebra of a shifted associative algebra and the Hochschild coboundary.

Letters of a ``FiniteAlgebra`` carry their unshifted degree.  Tensor words
live over the shifted copy of the basis: their letters are the same symbols
with the degree lowered by one (``graded.shifted``), and every sign below
reads those shifted degrees directly.  An element is a sparse dict
word -> Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import Letter, shifted, word_deg

Word = tuple  # tuple[Letter, ...] with shifted degrees
Elem = dict   # dict[Word, Fraction]
Vec = dict    # dict[Letter, Fraction], an element of the algebra or module
ONE = Fraction(1)


def add_term(acc: dict, key, coeff: Fraction):
    if not coeff:
        return
    s = acc.get(key, 0) + coeff
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def add_scaled(acc: dict, other: dict, coeff=Fraction(1)):
    if not coeff:
        return acc
    for k, v in other.items():
        add_term(acc, k, coeff * v)
    return acc


def elem_eq(a: dict, b: dict) -> bool:
    return {k: v for k, v in a.items() if v} == {k: v for k, v in b.items() if v}


def extend(op, x: dict, y: dict | None = None) -> dict:
    """Linear extension of ``op`` (key -> sparse element) to the element x,
    or, given y, bilinear extension of op(key, key) to the pair x, y."""
    out: dict = {}
    for a, ca in x.items():
        if y is None:
            add_scaled(out, op(a), ca)
        else:
            for b, cb in y.items():
                add_scaled(out, op(a, b), ca * cb)
    return out


# The graded identities, each written once as a residual: the sparse element
# lhs - rhs, empty exactly when the identity holds on the given keys.  ``op``
# maps two keys, ``D`` and ``cop`` one key, to a sparse element (the keys of
# a coproduct value are pairs); ``deg`` is the degree of a key, and only its
# parity is read.


def symmetry(op, deg, a, b, sign=1) -> dict:
    """op(a, b) - sign (-1)^(ab) op(b, a): graded commutativity for sign 1,
    graded antisymmetry for sign -1."""
    out = add_scaled({}, op(a, b))
    return add_scaled(out, op(b, a), sign if deg(a) * deg(b) % 2 else -sign)


def associativity(op, a, b, c) -> dict:
    """op(op(a, b), c) - op(a, op(b, c))."""
    out = extend(op, op(a, b), {c: ONE})
    return add_scaled(out, extend(op, {a: ONE}, op(b, c)), -1)


def jacobi(op, deg, a, b, c) -> dict:
    """Graded Jacobi: the sum of (-1)^(xz) op(op(x, y), z) over the cyclic
    rotations (x, y, z) of (a, b, c)."""
    out: dict = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        add_scaled(out, extend(op, op(x, y), {z: ONE}),
                   -1 if deg(x) * deg(z) % 2 else 1)
    return out


def derivation(D, d_deg, op, deg, a, b) -> dict:
    """Leibniz rule for D of degree d_deg over op:
    D(op(a, b)) - op(D a, b) - (-1)^(d_deg a) op(a, D b)."""
    out = extend(D, op(a, b))
    add_scaled(out, extend(op, D(a), {b: ONE}), -1)
    return add_scaled(out, extend(op, {a: ONE}, D(b)),
                      1 if d_deg * deg(a) % 2 else -1)


def square_zero(D, x) -> dict:
    """D(D(x))."""
    return extend(D, D(x))


def coassociativity(cop, x) -> dict:
    """(id (x) cop) cop(x) - (cop (x) id) cop(x) for an even coproduct, on
    key triples."""
    out: dict = {}
    for (a, b), c in cop(x).items():
        for (u, v), c2 in cop(b).items():
            add_term(out, (a, u, v), c * c2)
        for (u, v), c2 in cop(a).items():
            add_term(out, (u, v, b), -c * c2)
    return out


def cojacobi(cop, deg, x) -> dict:
    """Graded coJacobi: (cop (x) id) cop(x) summed over the cyclic rotations
    of its three factors, each with its Koszul sign."""
    trip: dict = {}
    for (a, b), c in cop(x).items():
        for (u, v), c2 in cop(a).items():
            add_term(trip, (u, v, b), c * c2)
    out = dict(trip)
    for (u, v, w), c in trip.items():
        du, dv, dw = deg(u), deg(v), deg(w)
        add_term(out, (v, w, u), -c if du * (dv + dw) % 2 else c)
        add_term(out, (w, u, v), -c if dw * (du + dv) % 2 else c)
    return out


def cosymmetry(cop, deg, x, sign=1) -> dict:
    """tau cop(x) - sign cop(x), tau the Koszul swap of the two factors:
    cocommutativity for sign 1, coantisymmetry for sign -1."""
    val = cop(x)
    out: dict = {}
    for (a, b), c in val.items():
        add_term(out, (b, a), -c if deg(a) * deg(b) % 2 else c)
    return add_scaled(out, val, -sign)


def coderivation(D, d_deg, cop, cop_deg, deg, x) -> dict:
    """Coderivation law for D of degree d_deg over cop of degree cop_deg:
    (D (x) id + id (x) D) cop(x) - (-1)^(d_deg cop_deg) cop(D x), where
    id (x) D passes a left factor a with the sign (-1)^(d_deg a)."""
    out: dict = {}
    for (a, b), c in cop(x).items():
        for u, c2 in D(a).items():
            add_term(out, (u, b), c * c2)
        s = -c if d_deg * deg(a) % 2 else c
        for u, c2 in D(b).items():
            add_term(out, (a, u), s * c2)
    return add_scaled(out, extend(cop, D(x)), 1 if d_deg * cop_deg % 2 else -1)


class FiniteAlgebra:
    """Graded associative algebra given by structure constants on a basis.

    ``product[(i, j)]`` maps the pair of letter idents to a dict
    ident -> Fraction.  Associativity (and graded commutativity when the flag
    is set) is checked on all basis triples at construction; a bad table is a
    caller bug, not something the coboundary operators detect later.
    """

    def __init__(self, letters, product, commutative=False):
        self.letters = list(letters)
        self.by_ident = {a.ident: a for a in self.letters}
        self.product = {
            key: {i: Fraction(c) for i, c in val.items() if c}
            for key, val in product.items()
        }
        self.commutative = commutative
        self._validate()

    def mul_letters(self, a: Letter, b: Letter) -> Vec:
        tab = self.product.get((a.ident, b.ident))
        if not tab:
            return {}
        return {self.by_ident[i]: c for i, c in tab.items()}

    def mul(self, x: Vec, y: Vec) -> Vec:
        return extend(self.mul_letters, x, y)

    def _validate(self):
        for a in self.letters:
            for b in self.letters:
                for c, coeff in self.mul_letters(a, b).items():
                    if coeff and c.degree != a.degree + b.degree:
                        raise ValueError(
                            f"product not degree 0: {a.ident}*{b.ident} -> {c.ident}"
                        )
        deg = lambda x: x.degree
        for a in self.letters:
            for b in self.letters:
                if self.commutative and symmetry(self.mul_letters, deg, a, b):
                    raise ValueError(
                        f"not graded commutative on {a.ident},{b.ident}"
                    )
                for c in self.letters:
                    if associativity(self.mul_letters, a, b, c):
                        raise ValueError(
                            f"not associative on {a.ident},{b.ident},{c.ident}"
                        )


class Bimodule:
    """Graded bimodule over a FiniteAlgebra, with explicit action tables.

    ``left[(a, v)]`` and ``right[(v, a)]`` map idents to dicts over module
    letter idents.  ``regular(alg)`` gives the algebra acting on itself.
    """

    def __init__(self, alg: FiniteAlgebra, letters, left, right, check=True):
        self.alg = alg
        self.letters = list(letters)
        self.by_ident = {v.ident: v for v in self.letters}
        self.left = left
        self.right = right
        if check:
            self._validate()

    @classmethod
    def regular(cls, alg: FiniteAlgebra) -> "Bimodule":
        left = {
            (a.ident, b.ident): alg.product.get((a.ident, b.ident), {})
            for a in alg.letters
            for b in alg.letters
        }
        right = {
            (a.ident, b.ident): alg.product.get((a.ident, b.ident), {})
            for a in alg.letters
            for b in alg.letters
        }
        return cls(alg, alg.letters, left, right, check=False)

    def act_left(self, a: Letter, v: Vec) -> Vec:
        out: Vec = {}
        for w, cw in v.items():
            tab = self.left.get((a.ident, w.ident), {})
            for i, c in tab.items():
                add_term(out, self.by_ident[i], cw * Fraction(c))
        return out

    def act_right(self, v: Vec, a: Letter) -> Vec:
        out: Vec = {}
        for w, cw in v.items():
            tab = self.right.get((w.ident, a.ident), {})
            for i, c in tab.items():
                add_term(out, self.by_ident[i], cw * Fraction(c))
        return out

    def _validate(self):
        alg = self.alg
        one = Fraction(1)
        for a in alg.letters:
            for b in alg.letters:
                ab = alg.mul_letters(a, b)
                for v in self.letters:
                    lhs: Vec = {}
                    for c, cc in ab.items():
                        add_scaled(lhs, self.act_left(c, {v: one}), cc)
                    rhs = self.act_left(a, self.act_left(b, {v: one}))
                    if not elem_eq(lhs, rhs):
                        raise ValueError("left action not associative")
                    lhs = {}
                    for c, cc in ab.items():
                        add_scaled(lhs, self.act_right({v: one}, c), cc)
                    rhs = self.act_right(self.act_right({v: one}, a), b)
                    if not elem_eq(lhs, rhs):
                        raise ValueError("right action not associative")
                    mid1 = self.act_right(self.act_left(a, {v: one}), b)
                    mid2 = self.act_left(a, self.act_right({v: one}, b))
                    if not elem_eq(mid1, mid2):
                        raise ValueError("actions do not commute")


def deconcat(word: Word) -> dict:
    """Deconcatenation coproduct of a word: sum of all proper front/back splits.

    Returns {(left_word, right_word): coefficient}; empty for a single letter.
    """
    out = {}
    for k in range(1, len(word)):
        add_term(out, (word[:k], word[k:]), Fraction(1))
    return out


def m2(a: Letter, b: Letter, alg: FiniteAlgebra) -> Vec:
    """Shifted product of two shifted letters: (-1)^(deg a) times the algebra
    product, returned over shifted letters."""
    sign = -1 if a.degree % 2 else 1
    prod = alg.mul_letters(alg.by_ident[a.ident], alg.by_ident[b.ident])
    return {shifted(c): sign * v for c, v in prod.items()}


def coderivation_lift_tensor(taylor: dict, q: int):
    """Unique coderivation of the deconcatenation coproduct with given parts.

    ``taylor[r]`` maps an r-letter word to an element of A[1] (dict
    Letter -> Fraction); ``q`` is the common degree of the parts.  The lift is

        Q(a_1 (x) ... (x) a_n) =
            sum_(r,j) (-1)^(q * (a_1+...+a_j)) a_[1,j] (x) Q_r(a_[j+1,j+r]) (x) a_[j+r+1,n]

    with shifted degrees in the exponent.
    """

    def lift(elem: Elem) -> Elem:
        out: Elem = {}
        for word, coeff in elem.items():
            n = len(word)
            for r, Qr in taylor.items():
                if r > n:
                    continue
                for j in range(0, n - r + 1):
                    sign = 1
                    if q % 2:
                        if word_deg(word[:j]) % 2:
                            sign = -1
                    val = Qr(word[j : j + r])
                    for letter, c in val.items():
                        neww = word[:j] + (letter,) + word[j + r :]
                        add_term(out, neww, coeff * sign * c)
        return out

    return lift


def m_differential(alg: FiniteAlgebra):
    """The square-zero codifferential lifting the shifted product m2."""
    return coderivation_lift_tensor({2: lambda w: m2(w[0], w[1], alg)}, 1)


def d_hochschild(C, n: int, alg: FiniteAlgebra, module: Bimodule,
                 value_parity: int = 0):
    """Hochschild coboundary of an (n-1)-cochain C on words of shifted letters.

    C maps an (n-1)-letter word to a module element.  The value on an n-letter
    word is

        (-1)^(a_[1,n-1]+1) C(a_[1,n-1]).a_n  +  (-1)^(a_1+1) a_1.C(a_[2,n])
        - sum_j (-1)^(a_[1,j]+1) C(a_1 (x) ... (x) a_j a_(j+1) (x) ... (x) a_n)

    with shifted degrees in the exponents and plain products / module actions
    in the terms.  ``value_parity`` is the parity of C as a graded map; it
    twists the left boundary term by (-1)^((a_1+1) * parity), which is what
    makes the coboundary square to zero across the whole complex (the
    coboundary of a parity-p cochain has parity p+1).  For ungraded algebras
    the twist never fires.  Returns the n-cochain as a callable on words.
    """

    def dC(word: Word) -> Vec:
        if len(word) != n:
            raise ValueError(f"expected word of length {n}")
        out: Vec = {}
        sign = -1 if (word_deg(word[:-1]) + 1) % 2 else 1
        last = alg.by_ident[word[-1].ident]
        add_scaled(out, module.act_right(C(word[:-1]), last), Fraction(sign))
        e = (word[0].degree + 1) * (1 + value_parity)
        sign = -1 if e % 2 else 1
        first = alg.by_ident[word[0].ident]
        add_scaled(out, module.act_left(first, C(word[1:])), Fraction(sign))
        for j in range(n - 1):
            sign = -1 if (word_deg(word[: j + 1]) + 1) % 2 else 1
            prod = alg.mul_letters(
                alg.by_ident[word[j].ident], alg.by_ident[word[j + 1].ident]
            )
            for letter, c in prod.items():
                neww = word[:j] + (shifted(letter),) + word[j + 2 :]
                add_scaled(out, C(neww), -Fraction(sign) * c)
        return out

    return dC
