"""Tensor coalgebra of a shifted associative algebra and the Hochschild coboundary.

Each coalgebra has one coderivation lift: ``coderivation_lift_tensor`` for
deconcatenation, ``coderivation_lift_sym`` for the symmetric coproduct (used
by ``symco.ell_lift`` and the ``ginfty`` packet codifferentials).

Letters of a ``FiniteAlgebra`` carry their unshifted degree.  Tensor words
live over the shifted copy of the basis: their letters are the same symbols
with the degree lowered by one (``graded.shifted``), and every sign below
reads those shifted degrees directly.  An element is a sparse dict
word -> coefficient.

Coefficients are exact rationals, and int and Fraction terms add up to the
same exact value.  The package's number rule: a coefficient is an ``int``
unless it is not an integer.  It holds from the shuffle products, the
coproducts and cocrochets, the classical coboundaries, the shuffle-quotient
tables and the ``GerstBasis`` constants through the ``genv`` operators,
``chcoh`` row assembly and ``exactlin`` matrices and solves.  A ``Fraction``
is made only where a value is stored or divided: ``exactlin.echelonize``'s
division by a pivot that does not divide an entry, ``fraction_table`` (the
``FiniteAlgebra`` product, the ``LieData`` bracket and differential tables,
``GerstBasis.wedge_table``/``bracket_table``), ``chcoh.Cochain`` (its
``values``) and the tests' ``Polyvec`` oracle.  ``int_coeffs`` reads
stored values back as ints where they are integers (``d_ch`` reads a
cochain so).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .graded import Letter, shifted, slot_terms, word_deg

Word = tuple  # tuple[Letter, ...] with shifted degrees
Elem = dict   # dict[Word, int | Fraction]
Vec = dict    # dict[Letter, int | Fraction], an element of the algebra
ONE = 1


def add_term(acc: dict, key, coeff: int | Fraction):
    if not coeff:
        return
    s = acc.get(key, 0) + coeff
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def add_scaled(acc: dict, other: dict, coeff=1):
    """acc += coeff * other, term by term as ``add_term`` would: zero terms
    are skipped and cancelled keys removed.  Returns acc."""
    if not coeff:
        return acc
    get = acc.get
    for k, v in other.items():
        if v:
            s = get(k, 0) + coeff * v
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


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
# lhs - rhs, empty exactly when the identity holds on the given keys.
# ``associativity``, ``jacobi`` and ``derivation`` add each op value of a
# term straight into one output dict with ``add_scaled``, so they build no
# intermediate element and no one-key dict.  ``op``
# maps two keys, ``D`` and ``cop`` one key, to a sparse element (the keys of
# a coproduct value are pairs); ``deg`` is the degree of a key, and only its
# parity is read.  The residuals only read the values of op, D and cop.  The
# structure validators run them on letter idents: ``GerstBasis.validate`` on
# its two ident operations, ``FiniteAlgebra._validate`` and
# ``symco.LieData._validate`` over ``int_view``s of their tables, so integral
# constants are checked in int arithmetic, with no Letter built and no
# Fraction unless a constant needs one.


def int_coeffs(vec: dict) -> dict:
    """Copy of a sparse dict with each coefficient of denominator 1 as an
    int; other coefficients stay Fractions."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in vec.items()}


def fraction_table(table: dict) -> dict:
    """Copy of a structure-constant table with Fraction values, zero
    constants dropped and keys of an empty entry left out."""
    return {key: {i: Fraction(c) for i, c in val.items() if c}
            for key, val in table.items() if val}


def on_letters(table: dict, by_ident: dict, key) -> dict:
    """Entry ``key`` of an ident-keyed table as a Letter-keyed dict, {} when
    it is missing."""
    val = table.get(key)
    return {by_ident[i]: c for i, c in val.items()} if val else {}


def int_view(table: dict):
    """Op (i, j) -> table[(i, j)] over a private ``int_coeffs`` copy of the
    ident-pair table, {} for a missing pair.  The op returns the stored
    dicts, so callers must only read them; ``table`` itself is not touched."""
    get = {key: int_coeffs(val) for key, val in table.items()}.get
    empty: dict = {}
    return lambda i, j: get((i, j), empty)


def symmetry(op, deg, a, b, sign=1) -> dict:
    """op(a, b) - sign (-1)^(ab) op(b, a): graded commutativity for sign 1,
    graded antisymmetry for sign -1."""
    out = add_scaled({}, op(a, b))
    return add_scaled(out, op(b, a), sign if deg(a) * deg(b) % 2 else -sign)


def associativity(op, a, b, c) -> dict:
    """op(op(a, b), c) - op(a, op(b, c))."""
    out: dict = {}
    for k, v in op(a, b).items():
        add_scaled(out, op(k, c), v)
    for k, v in op(b, c).items():
        add_scaled(out, op(a, k), -v)
    return out


def jacobi(op, deg, a, b, c) -> dict:
    """Graded Jacobi: the sum of (-1)^(xz) op(op(x, y), z) over the cyclic
    rotations (x, y, z) of (a, b, c)."""
    out: dict = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        sign = -1 if deg(x) * deg(z) % 2 else 1
        for k, v in op(x, y).items():
            add_scaled(out, op(k, z), sign * v)
    return out


def derivation(D, d_deg, op, deg, a, b) -> dict:
    """Leibniz rule for D of degree d_deg over op:
    D(op(a, b)) - op(D a, b) - (-1)^(d_deg a) op(a, D b)."""
    out: dict = {}
    for k, v in op(a, b).items():
        add_scaled(out, D(k), v)
    for k, v in D(a).items():
        add_scaled(out, op(k, b), -v)
    sign = 1 if d_deg * deg(a) % 2 else -1
    for k, v in D(b).items():
        add_scaled(out, op(a, k), sign * v)
    return out


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
    ident -> coefficient, stored with Fraction values (``fraction_table``).
    Associativity (and graded commutativity when the flag is set) is checked
    on all basis triples at construction, on idents over an ``int_view`` of
    the table; a bad table is a caller bug, not something the coboundary
    operators detect later.
    """

    def __init__(self, letters, product, commutative=False):
        self.letters = list(letters)
        self.by_ident = {a.ident: a for a in self.letters}
        self.product = fraction_table(product)
        self.commutative = commutative
        self._validate()

    def mul_letters(self, a: Letter, b: Letter) -> Vec:
        return on_letters(self.product, self.by_ident, (a.ident, b.ident))

    def _validate(self):
        idents = [a.ident for a in self.letters]
        deg = {a.ident: a.degree for a in self.letters}
        mul = int_view(self.product)
        for a in idents:
            for b in idents:
                for c, coeff in mul(a, b).items():
                    if coeff and deg[c] != deg[a] + deg[b]:
                        raise ValueError(f"product not degree 0: {a}*{b} -> {c}")
        deg_of = deg.__getitem__
        for a in idents:
            for b in idents:
                if self.commutative and symmetry(mul, deg_of, a, b):
                    raise ValueError(f"not graded commutative on {a},{b}")
                for c in idents:
                    if associativity(mul, a, b, c):
                        raise ValueError(f"not associative on {a},{b},{c}")


def deconcat(word: Word) -> dict:
    """Deconcatenation coproduct of a word: sum of all proper front/back splits.

    Returns {(left_word, right_word): coefficient}; empty for a single letter.
    """
    out = {}
    for k in range(1, len(word)):
        add_term(out, (word[:k], word[k:]), 1)
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
    Letter -> coefficient); ``q`` is the common degree of the parts.  The lift is

        Q(a_1 (x) ... (x) a_n) =
            sum_(r,j) (-1)^(q * (a_1+...+a_j)) a_[1,j] (x) Q_r(a_[j+1,j+r]) (x) a_[j+r+1,n]

    with shifted degrees in the exponent.
    """

    def lift(elem: Elem) -> Elem:
        out: Elem = {}
        for word, coeff in elem.items():
            n = len(word)
            # scaled[j] = (-1)^(q * (a_1+...+a_j)) coeff, by running parity
            scaled = [coeff]
            for a in word:
                scaled.append(-scaled[-1] if q % 2 and a.degree % 2 else scaled[-1])
            for r, Qr in taylor.items():
                if r > n:
                    continue
                for j in range(0, n - r + 1):
                    val = Qr(word[j : j + r])
                    for letter, c in val.items():
                        neww = word[:j] + (letter,) + word[j + r :]
                        add_term(out, neww, scaled[j] * c)
        return out

    return lift


def coderivation_lift_sym(taylor: dict, deg, key):
    """Unique degree 1 coderivation of the symmetric coproduct with given parts.

    ``taylor[r]`` (r = 1, 2) maps r items to a sparse element over items;
    ``deg`` gives an item's shifted degree and ``key`` sorts the products,
    which are sorted tuples of items.  On each product the lift makes one
    ``graded.slot_terms`` step per r-subset of positions, in ``combinations``
    order: Q_1 in slot j with (-1)^(x_1+...+x_(j-1)), Q_2(x_i, x_j) with
    eps(x / x_i x_j rest) (-1)^(x_i), each value sorted into the rest.
    """

    def lift(elem: dict) -> dict:
        out: dict = {}
        for items, coeff in elem.items():
            degs = [deg(x) for x in items]
            for r, Qr in taylor.items():
                for picks in combinations(range(len(items)), r):
                    val = Qr(*(items[i] for i in picks))
                    for k, c in slot_terms(items, degs, picks, val, 1, key):
                        add_term(out, k, coeff * c)
        return out

    return lift


def m_differential(alg: FiniteAlgebra):
    """The square-zero codifferential lifting the shifted product m2."""
    return coderivation_lift_tensor({2: lambda w: m2(w[0], w[1], alg)}, 1)


def d_hochschild(C, n: int, alg: FiniteAlgebra, value_parity: int = 0):
    """Hochschild coboundary of an (n-1)-cochain C on words of shifted letters,
    with coefficients in the algebra itself.

    C maps an (n-1)-letter word to an algebra element.  The value on an
    n-letter word is

        (-1)^(a_[1,n-1]+1) C(a_[1,n-1]).a_n  +  (-1)^(a_1+1) a_1.C(a_[2,n])
        - sum_j (-1)^(a_[1,j]+1) C(a_1 (x) ... (x) a_j a_(j+1) (x) ... (x) a_n)

    with shifted degrees in the exponents and plain algebra products in the
    terms: the algebra acts on the values through ``mul_letters``.
    ``value_parity`` is the parity of C as a graded map; it twists the left
    boundary term by (-1)^((a_1+1) * parity), which is what makes the
    coboundary square to zero across the whole complex (the coboundary of a
    parity-p cochain has parity p+1).  For ungraded algebras
    the twist never fires.  Returns the n-cochain as a callable on words.
    """

    def dC(word: Word) -> Vec:
        if len(word) != n:
            raise ValueError(f"expected word of length {n}")
        out: Vec = {}
        sign = -1 if (word_deg(word[:-1]) + 1) % 2 else 1
        last = alg.by_ident[word[-1].ident]
        add_scaled(out, extend(alg.mul_letters, C(word[:-1]), {last: ONE}), sign)
        e = (word[0].degree + 1) * (1 + value_parity)
        sign = -1 if e % 2 else 1
        first = alg.by_ident[word[0].ident]
        add_scaled(out, extend(alg.mul_letters, {first: ONE}, C(word[1:])), sign)
        for j in range(n - 1):
            sign = -1 if (word_deg(word[: j + 1]) + 1) % 2 else 1
            prod = alg.mul_letters(
                alg.by_ident[word[j].ident], alg.by_ident[word[j + 1].ident]
            )
            for letter, c in prod.items():
                neww = word[:j] + (shifted(letter),) + word[j + 2 :]
                add_scaled(out, C(neww), -sign * c)
        return out

    return dC
