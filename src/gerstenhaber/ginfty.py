"""The bicoalgebra on symmetric monomials of shuffle-quotient packets.

A packet is a representative word of the shuffle quotient, viewed one shift
down: its degree is (sum of letter degrees) - 1.  A monomial is a tuple of
packets in canonical order (sorted by length then letter idents); reordering
multiplies by the Koszul sign on packet degrees and a repeated odd packet
kills the monomial.

Four operators live here: the cocommutative coproduct, the cocrochet kappa
cutting one packet in two, the bracket coderivation and the product
codifferential.  kappa cuts representatives and re-reduces the pieces, which
is legitimate because the cocrochet kills shuffle images.
"""

from __future__ import annotations

from fractions import Fraction

from .genv import GerstBasis, h_bracket, h_mu
from .graded import bipartitions, koszul_sign, word_deg
from .shuffleco import ShuffleQuotient, Word
from .tensorco import add_term

Mono = tuple      # tuple[Word, ...] canonical
MonoElem = dict   # dict[Mono, Fraction]
PairElem = dict   # dict[(Mono, Mono), Fraction]


def pdeg(packet: Word) -> int:
    """Packet degree: letter degrees summed, minus one for the extra shift."""
    return word_deg(packet) - 1


def mono_deg(mono: Mono) -> int:
    return sum(pdeg(w) for w in mono)


def packet_sort_key(packet: Word):
    return (len(packet), tuple(a.ident for a in packet))


def mono_key(packets) -> tuple:
    """Canonical (sorted monomial, Koszul sign), or (None, 0) if square-zero."""
    idx = sorted(range(len(packets)), key=lambda i: (packet_sort_key(packets[i]), i))
    mono = tuple(packets[i] for i in idx)
    for a, b in zip(mono, mono[1:]):
        if a == b and pdeg(a) % 2:
            return None, 0
    sign = koszul_sign([pdeg(w) for w in packets], idx)
    return mono, sign


def add_mono(acc: MonoElem, packets, coeff: Fraction):
    mono, sign = mono_key(packets)
    if mono is not None:
        add_term(acc, mono, sign * coeff)


def add_pair(acc: PairElem, left_packets, right_packets, coeff: Fraction):
    left, sl = mono_key(left_packets)
    if left is None:
        return
    right, sr = mono_key(right_packets)
    if right is None:
        return
    add_term(acc, (left, right), sl * sr * coeff)


def big_delta(mono: Mono) -> PairElem:
    """Cocommutative coproduct: signed sum over proper factor bipartitions.
    Both sides of a canonical monomial are canonical with sign +1."""
    return bipartitions(mono, [pdeg(w) for w in mono])


def kappa(mono: Mono, quotient: ShuffleQuotient) -> PairElem:
    """Cocrochet: cut one packet, distribute the others on both sides.

    For each factor X_s, each bipartition I | J of the remaining factors and
    each proper cut X_s = U (x) V, the terms are

        eps(x / x_I x_s x_J) (-1)^(x_I) (-1)^(u+1)
            [ (X_I . U) (x) (V . X_J)  +  (-1)^(uv) (X_I . V) (x) (U . X_J) ]

    with packet degrees in all exponents; U and V are re-reduced in the
    quotient.  On a single packet this is the cosymmetric packet cocrochet.
    """
    n = len(mono)
    degs = [pdeg(w) for w in mono]
    out: PairElem = {}
    for s in range(n):
        packet = mono[s]
        if len(packet) < 2:
            continue
        rest = [i for i in range(n) if i != s]
        for mask in range(1 << (n - 1)):
            left = [rest[i] for i in range(n - 1) if mask & (1 << i)]
            right = [rest[i] for i in range(n - 1) if not mask & (1 << i)]
            perm = left + [s] + right
            base = koszul_sign(degs, perm)
            if sum(degs[i] for i in left) % 2:
                base = -base
            lpacks = [mono[i] for i in left]
            rpacks = [mono[i] for i in right]
            for j in range(1, len(packet)):
                ured = quotient.reduce_word(packet[:j])
                vred = quotient.reduce_word(packet[j:])
                u = pdeg(packet[:j])
                v = pdeg(packet[j:])
                cut = -base if u % 2 == 0 else base  # (-1)^(u+1)
                for uw, cu in ured.items():
                    for vw, cv in vred.items():
                        add_pair(out, lpacks + [uw], [vw] + rpacks, cut * cu * cv)
                        swap = cut if (u * v) % 2 == 0 else -cut
                        add_pair(out, lpacks + [vw], [uw] + rpacks, swap * cu * cv)
    return out


def ell_on_packets(mono: Mono, basis: GerstBasis, quotient: ShuffleQuotient) -> MonoElem:
    """Bracket coderivation: l2(X_i, X_j) = (-1)^(x_i) [X_i, X_j] in place."""
    n = len(mono)
    degs = [pdeg(w) for w in mono]
    out: MonoElem = {}
    for i in range(n):
        for j in range(i + 1, n):
            rest = [mono[k] for k in range(n) if k != i and k != j]
            perm = [i, j] + [k for k in range(n) if k != i and k != j]
            sign = koszul_sign(degs, perm)
            if degs[i] % 2:
                sign = -sign
            br = h_bracket(mono[i], mono[j], basis, quotient)
            for w, c in br.items():
                add_mono(out, [w] + rest, Fraction(sign) * c)
    return out


def m_on_packets(mono: Mono, basis: GerstBasis, quotient: ShuffleQuotient) -> MonoElem:
    """Product codifferential: mu applied to one factor at a time."""
    n = len(mono)
    degs = [pdeg(w) for w in mono]
    out: MonoElem = {}
    for j in range(n):
        if len(mono[j]) < 2:
            continue
        sign = -1 if sum(degs[:j]) % 2 else 1
        mj = h_mu(mono[j], basis, quotient)
        for w, c in mj.items():
            packs = [mono[k] if k != j else w for k in range(n)]
            add_mono(out, packs, Fraction(sign) * c)
    return out


def lm_on_packets(mono: Mono, basis: GerstBasis, quotient: ShuffleQuotient) -> MonoElem:
    out = ell_on_packets(mono, basis, quotient)
    for k, v in m_on_packets(mono, basis, quotient).items():
        add_term(out, k, v)
    return out


def pair_apply_left(op, pairs: PairElem) -> PairElem:
    """(op (x) id) with no crossing sign: op acts on the left factor."""
    out: PairElem = {}
    for (a, b), c in pairs.items():
        for m2, c2 in op(a).items():
            add_term(out, (m2, b), c * c2)
    return out


def pair_apply_right(op, op_degree: int, pairs: PairElem) -> PairElem:
    """(id (x) op): crossing the left factor costs (-1)^(op_degree * deg left)."""
    out: PairElem = {}
    for (a, b), c in pairs.items():
        sign = -1 if (op_degree % 2) and (mono_deg(a) % 2) else 1
        for m2, c2 in op(b).items():
            add_term(out, (a, m2), sign * c * c2)
    return out
