"""The bicoalgebra on symmetric monomials of shuffle-quotient packets.

A packet is a representative word of the shuffle quotient, viewed one shift
down: its degree is (sum of letter degrees) - 1.  A monomial is a tuple of
packets in canonical order (sorted by length then letter idents); reordering
multiplies by the Koszul sign on packet degrees and a repeated odd packet
kills the monomial.

Four operators live here: the cocommutative coproduct, the cocrochet kappa
cutting one packet in two, the bracket coderivation and the product
codifferential.  kappa reads each packet's cuts from the Lie cocrochet
``shuffleco.delta``, which cuts representatives and re-reduces the pieces;
that is legitimate because the cocrochet kills shuffle images.
"""

from __future__ import annotations

from functools import partial

from .genv import GerstBasis, h_bracket, h_mu
from .graded import bipartitions, koszul_sort, unshuffle_sign, word_deg
from .shuffleco import ShuffleQuotient, Word, delta
from .tensorco import add_term, coderivation_lift_sym

Mono = tuple      # tuple[Word, ...] canonical
MonoElem = dict   # dict[Mono, int | Fraction], int unless not an integer
PairElem = dict   # dict[(Mono, Mono), int | Fraction], as MonoElem


def pdeg(packet: Word) -> int:
    """Packet degree: letter degrees summed, minus one for the extra shift."""
    return word_deg(packet) - 1


def mono_deg(mono: Mono) -> int:
    return sum(pdeg(w) for w in mono)


def mono_grade(mono: Mono) -> int:
    """Monomial grade: letter grades summed, minus one per packet for its
    extra shift (the shift lowers the degree and keeps the weight)."""
    return sum([a.grade for w in mono for a in w]) - len(mono)


def packet_sort_key(packet: Word):
    return (len(packet), tuple(a.ident for a in packet))


def mono_key(packets) -> tuple:
    """Canonical (sorted monomial, Koszul sign), or (None, 0) if square-zero."""
    return koszul_sort(packets, [pdeg(w) for w in packets], packet_sort_key)


def add_mono(acc: MonoElem, packets, coeff):
    mono, sign = mono_key(packets)
    if mono is not None:
        add_term(acc, mono, sign * coeff)


def add_pair(acc: PairElem, left_packets, right_packets, coeff):
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
    quotient.  The bracket is (-1)^(|U|) times a term of the Lie cocrochet
    ``delta(X_s)``, with |U| the word degree of its left piece, so the cuts
    are read from ``delta``.  On a single packet this is the cosymmetric
    packet cocrochet.
    """
    n = len(mono)
    degs = [pdeg(w) for w in mono]
    out: PairElem = {}
    for s in range(n):
        cuts = delta(mono[s], quotient)
        if not cuts:
            continue
        rest = [i for i in range(n) if i != s]
        for mask in range(1 << (n - 1)):
            left = [rest[i] for i in range(n - 1) if mask & (1 << i)]
            right = [rest[i] for i in range(n - 1) if not mask & (1 << i)]
            base = unshuffle_sign(degs, left + [s])
            if sum(degs[i] for i in left) % 2:
                base = -base
            lpacks = [mono[i] for i in left]
            rpacks = [mono[i] for i in right]
            for (u, v), c in cuts.items():
                add_pair(out, lpacks + [u], [v] + rpacks,
                         -base * c if word_deg(u) % 2 else base * c)
    return out


def ell_on_packets(mono: Mono, basis: GerstBasis, quotient: ShuffleQuotient) -> MonoElem:
    """Bracket coderivation: the lift of l2(X_i, X_j) = (-1)^(x_i) [X_i, X_j],
    with ``h_bracket`` as its part (the pair step adds the sign)."""
    br = partial(h_bracket, basis=basis, quotient=quotient)
    return coderivation_lift_sym({2: br}, pdeg, packet_sort_key)({mono: 1})


def m_on_packets(mono: Mono, basis: GerstBasis, quotient: ShuffleQuotient) -> MonoElem:
    """Product codifferential: the lift of ``h_mu``, mu on one factor at a time."""
    mu = partial(h_mu, basis=basis, quotient=quotient)
    return coderivation_lift_sym({1: mu}, pdeg, packet_sort_key)({mono: 1})


def lm_on_packets(mono: Mono, basis: GerstBasis, quotient: ShuffleQuotient) -> MonoElem:
    """``m_on_packets`` plus ``ell_on_packets``: one lift with both parts."""
    mu = partial(h_mu, basis=basis, quotient=quotient)
    br = partial(h_bracket, basis=basis, quotient=quotient)
    return coderivation_lift_sym({1: mu, 2: br}, pdeg, packet_sort_key)({mono: 1})
