from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber.genv import polyvec_basis, sandbox_gerstenhaber
from gerstenhaber.ginfty import (add_pair, big_delta, ell_on_packets, kappa,
                                 m_on_packets, mono_deg, mono_key,
                                 packet_sort_key, pdeg)
from gerstenhaber.graded import Letter, bipartitions, koszul_sign
from gerstenhaber.prng import SplitMix64
from gerstenhaber.shuffleco import ShuffleQuotient, bat, bat3, delta
from gerstenhaber.suites import suite_ginfty
from gerstenhaber.tensorco import add_term, deconcat


def rep(quo, word):
    red = quo.reduce_word(word)
    return sorted(red)[0] if red else None


def test_mono_key_square_zero_and_sort():
    a = Letter(("q", 0), 0)   # packet degree -1, odd
    b = Letter(("q", 1), 1)   # packet degree 0, even
    key, sign = mono_key([(b,), (a,)])
    assert key == ((a,), (b,)) and sign == 1  # even past odd
    assert mono_key([(a,), (a,)]) == (None, 0)
    key, sign = mono_key([(b,), (b,)])
    assert key == ((b,), (b,)) and sign == 1


def mono_key_oracle(packets) -> tuple:
    """The former ``mono_key``: sort positions, then ``koszul_sign``."""
    idx = sorted(range(len(packets)), key=lambda i: (packet_sort_key(packets[i]), i))
    mono = tuple(packets[i] for i in idx)
    for a, b in zip(mono, mono[1:]):
        if a == b and pdeg(a) % 2:
            return None, 0
    sign = koszul_sign([pdeg(w) for w in packets], idx)
    return mono, sign


# letter degrees 0, 1, 2: packets of every degree parity, lengths 1 to 3
PACKET_LETTERS = [Letter(("q", i), i) for i in range(3)]
PACKETS = [w for n in (1, 2, 3) for w in product(PACKET_LETTERS, repeat=n)]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PACKETS[:12]) | st.sampled_from(PACKETS), max_size=6))
def test_mono_key_matches_the_former_sort(packets):
    """Mixed-parity packets with repeats (drawn mostly from the 12 shortest);
    the sign is also the ``koszul_sign`` of the sorting permutation."""
    assert mono_key(packets) == mono_key_oracle(packets)
    assert mono_key(tuple(packets)) == mono_key_oracle(packets)


def test_big_delta_cases():
    a, b = Letter(("q", 0), 1), Letter(("q", 1), 1)  # even packets
    assert big_delta(((a,),)) == {}
    out = big_delta(((a,), (b,)))
    assert out == {
        (((a,),), ((b,),)): Fraction(1),
        (((b,),), ((a,),)): Fraction(1),
    }


def test_kappa_single_packet():
    quo = ShuffleQuotient()
    basis = polyvec_basis(2)
    assert kappa(((basis.letters[0],),), quo) == {}
    vf = [x for x in basis.letters if x.degree == 0]
    w = rep(quo, (vf[0], vf[1]))
    out = kappa((w,), quo)
    # cosymmetric: swapping the factors with packet degrees fixes the dict
    swapped = {}
    for (x, y), c in out.items():
        s = -1 if (mono_deg(x) % 2 and mono_deg(y) % 2) else 1
        add_term(swapped, (y, x), s * c)
    assert out == {k: v for k, v in swapped.items() if v}
    # and the displayed single-cut form: (-1)^(u+1) (U(x)V + flip)
    a1, a2 = w
    u = pdeg((a1,))
    cut = Fraction(-1 if u % 2 == 0 else 1)
    want = {}
    add_term(want, (((a1,),), ((a2,),)), cut)
    s = cut if (u * pdeg((a2,))) % 2 == 0 else -cut
    add_term(want, (((a2,),), ((a1,),)), s)
    assert out == {k: v for k, v in want.items() if v}


def kappa_cuts(mono, quotient):
    """Independent route: cut each packet at every position and reduce the
    two pieces, with the displayed per-cut signs (no ``delta``)."""
    n = len(mono)
    degs = [pdeg(w) for w in mono]
    out = {}
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


def test_kappa_matches_cut_oracle():
    """kappa (delta per packet) against the per-cut formula on seeded
    monomials of 1-3 representative packets of length up to 3."""
    rng = SplitMix64(67)
    quo = ShuffleQuotient()
    basis = polyvec_basis(2)
    odd_packets = nonzero = 0
    for _ in range(60):
        packets = []
        for _ in range(rng.randint(1, 3)):
            letters = [rng.choice(basis.letters) for _ in range(rng.randint(1, 3))]
            reps = quo.representatives(letters)
            if reps:
                packets.append(rng.choice(reps))
        mono, _ = mono_key(packets)
        if not packets or mono is None:
            continue
        odd_packets += sum(pdeg(w) % 2 for w in mono)
        got = kappa(mono, quo)
        assert got == kappa_cuts(mono, quo)
        nonzero += bool(got)
    assert odd_packets > 30 and nonzero > 40


def test_kappa_kills_shuffle_image_packets():
    quo = ShuffleQuotient()
    basis = polyvec_basis(2)
    rng = SplitMix64(61)
    for _ in range(15):
        a = tuple(rng.choice(basis.letters) for _ in range(rng.randint(1, 2)))
        b = tuple(rng.choice(basis.letters) for _ in range(rng.randint(1, 2)))
        acc = {}
        for w, c in bat(a, b).items():
            red = quo.reduce(dict([(w, c)]))
            for wr, cr in red.items():
                for pair, c2 in kappa((wr,), quo).items():
                    add_term(acc, pair, c2 * cr)
        # kappa descends to the quotient: the class of a shuffle image is zero
        assert not {k: v for k, v in acc.items() if v}


def test_ell_and_m_small_cases():
    quo = ShuffleQuotient()
    basis = polyvec_basis(2)
    vf = [x for x in basis.letters if x.degree == 0]
    X, Y = (vf[0],), (vf[1],)
    assert ell_on_packets((X,), basis, quo) == {}
    out = ell_on_packets(mono_key([X, Y])[0], basis, quo)
    want = {}
    sign = -1 if pdeg(X) % 2 else 1
    for c, v in basis.bracket(vf[0], vf[1]).items():
        add_term(want, ((c,),), Fraction(sign) * v)
    assert out == {k: v for k, v in want.items() if v}

    assert m_on_packets(((vf[0],), (vf[1],)), basis, quo) == {}
    w = rep(quo, (vf[0], vf[1]))
    out = m_on_packets((w,), basis, quo)
    a1, a2 = w
    want = {}
    for c, v in basis.mu2(a1, a2).items():
        add_term(want, ((c,),), v)
    assert out == {k: v for k, v in want.items() if v}


def test_m_sign_alternation():
    quo = ShuffleQuotient()
    basis = polyvec_basis(2)
    # first packet of odd degree: the second slot term carries -1
    odd = [x for x in basis.letters if x.degree == -1][0]   # packet deg -2? no:
    # letter degree -1 means packet degree -2 (even); use a vf letter (packet -1)
    vfl = [x for x in basis.letters if x.degree == 0][0]
    biv = [x for x in basis.letters if x.degree == 1]
    w2 = rep(quo, (vfl, biv[0]))
    mono, sign0 = mono_key([(vfl,), w2])
    out = m_on_packets(mono, basis, quo)
    # compare against the explicit in-place formula
    want = {}
    degs = [pdeg(p) for p in mono]
    for j, packet in enumerate(mono):
        if len(packet) < 2:
            continue
        s = -1 if sum(degs[:j]) % 2 else 1
        for c, v in basis.mu2(packet[0], packet[1]).items():
            packs = [mono[k] if k != j else (c,) for k in range(len(mono))]
            key, s2 = mono_key(packs)
            if key is not None:
                add_term(want, key, Fraction(s * s2) * v)
    assert out == {k: v for k, v in want.items() if v}


def test_coalgebra_coefficients_are_ints():
    """The shuffle products, the Lie cocrochet, the bipartition and
    deconcatenation coproducts, the packet cocrochet and the packet coproduct
    give ``int`` coefficients on polyvector and sandbox letters: signs and
    shuffle coefficients are never turned into Fractions."""
    rng = SplitMix64(29)
    quo = ShuffleQuotient()
    alphabets = [polyvec_basis(2, 1).letters, sandbox_gerstenhaber(rng).letters]
    seen: dict = {}
    for t in range(100):
        letters = alphabets[t % 2]
        a, b, c = (tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
                   for _ in range(3))
        packets = [rep(quo, w) for w in (a, b, c)]
        mono, _ = mono_key([w for w in packets if w is not None])
        word = a + b + c
        values = {"bat": bat(a, b), "bat3": bat3(a, b, c),
                  "delta": delta(a + b, quo), "deconcat": deconcat(word),
                  "bipartitions": bipartitions(word, [x.degree for x in word])}
        if mono:
            values["kappa"] = kappa(mono, quo)
            values["big_delta"] = big_delta(mono)
        for name, val in values.items():
            seen.setdefault(name, set()).update(map(type, val.values()))
    assert seen == dict.fromkeys(["bat", "bat3", "delta", "deconcat",
                                  "bipartitions", "kappa", "big_delta"], {int})


def test_identity_suite():
    for name, ok, bad in suite_ginfty(7, 60, polyvec_basis(2)):
        assert ok, f"{name}: {bad}"
