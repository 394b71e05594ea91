import gc
import hashlib
import weakref
from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from itertools import (combinations, combinations_with_replacement, permutations,
                       product)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber import shuffleco
from gerstenhaber.chcoh import TaylorFamily, reconstruct_morphism
from gerstenhaber.exactlin import echelonize
from gerstenhaber.genv import h_mu, polyvec_basis, sandbox_gerstenhaber
from gerstenhaber.graded import (Letter, koszul_sign, pack_grade, shifted,
                                 word_deg, word_grade)
from gerstenhaber.prng import SplitMix64
from gerstenhaber.shuffleco import (Elem, GradedLetters, ShuffleQuotient, Word,
                                    bat, bat3, bat_elem, d_harrison, delta,
                                    delta_elem, graded_multisets, mu,
                                    validate_harrison_cochain)
from gerstenhaber.suites import suite_shuffle
from gerstenhaber.tensorco import FiniteAlgebra, add_term, extend, m2

A = Letter(("w", "a"), 0)   # even
B = Letter(("w", "b"), 0)
E = Letter(("w", "e"), 1)   # odd


def test_bat_two_letters():
    out = bat((A,), (B,))
    assert out == {(A, B): Fraction(1), (B, A): Fraction(1)}
    out = bat((E,), (E,))
    assert out == {}  # (-1)^(1*1) cancels the two shuffles
    out = bat((A,), (B, E))
    assert len(out) == 3  # C(3,1) shuffles


def test_bat3_matches_nested():
    rng = SplitMix64(31)
    letters = [A, B, E, Letter(("w", "f"), -1)]
    for _ in range(25):
        a = tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
        b = tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
        c = tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
        tri = bat3(a, b, c)
        assert tri == bat_elem(bat(a, b), {c: Fraction(1)})
        assert tri == bat_elem({a: Fraction(1)}, bat(b, c))


def multisets_upto(alphabet, length: int) -> list:
    """Every multiset of 1..length letters of ``alphabet``, as sorted tuples,
    in ``combinations_with_replacement`` order length by length."""
    return [ms for n in range(1, length + 1)
            for ms in combinations_with_replacement(sorted(alphabet), n)]


def eager_quotient(alphabet, length: int) -> ShuffleQuotient:
    """A quotient with the reduction table of every multiset of
    ``multisets_upto(alphabet, length)`` built."""
    quo = ShuffleQuotient()
    for ms in multisets_upto(alphabet, length):
        quo.reduce_word(ms)
    return quo


def split_row_table(multiset: tuple) -> tuple:
    """Oracle (table, representatives) of a sorted letter multiset, built
    without the representative rule: one shuffle row per proper split u|v of
    every word with (len u, u) <= (len v, v) (the split v|u only repeats it
    up to sign), brought to reduced echelon form with the words in
    lexicographic order; the non-pivot words are the representatives and
    each pivot word reduces to minus the rest of its row."""
    alphabet = sorted(set(multiset))
    code = {x: i for i, x in enumerate(alphabet)}
    odd = [x.degree % 2 for x in alphabet]
    coded = sorted(set(permutations([code[x] for x in multiset])))
    index = {w: i for i, w in enumerate(coded)}
    rows = [{index[x]: c for x, c in shuffleco._shuffle(w[:p], w[p:], odd).items()}
            for w in coded for p in range(1, len(w))
            if (p, w[:p]) <= (len(w) - p, w[p:])]
    rows, pivots = echelonize(rows, len(coded))
    words = [tuple(alphabet[c] for c in w) for w in coded]
    table = {w: {w: Fraction(1)} for w in words}
    for row, col in zip(rows, pivots):
        table[words[col]] = {words[u]: -v for u, v in row.items() if u != col}
    pivset = set(pivots)
    return table, [w for i, w in enumerate(words) if i not in pivset]


def test_quotient_dimensions_small():
    quo = ShuffleQuotient()
    assert len(quo.representatives([A, B])) == 1     # T^2 is 2-dim, shuffles span 1
    assert len(quo.representatives([E, E])) == 1     # bat(e,e) = 0
    assert len(quo.representatives([A, A])) == 0     # bat(a,a) = 2 a(x)a
    assert len(quo.representatives([A])) == 1


def test_reduction_properties():
    quo = ShuffleQuotient()
    rng = SplitMix64(32)
    letters = [A, B, E]
    for _ in range(30):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        red = quo.reduce_word(w)
        for rep in red:
            assert quo.reduce_word(rep) == {rep: Fraction(1)}  # idempotent
        p = rng.randint(1, max(1, len(w) - 1))
        if p < len(w):
            assert quo.reduce(bat(w[:p], w[p:])) == {}


def test_is_representative_reads_the_list_and_builds_no_table():
    """is_representative answers from the generated list, and agrees with
    the reduction row {w: 1} of a table built afterwards."""
    quo, oracle = ShuffleQuotient(), ShuffleQuotient()
    for n in range(1, 5):
        for w in product([A, B, E], repeat=n):
            assert quo.is_representative(w) == (oracle.reduce_word(w) == {w: 1})
    assert len(quo.tables) == 0 and len(oracle.tables) > 0


def necklace_dim(m: int, n: int) -> int:
    """Free Lie algebra dimension by the necklace count, independent route."""

    def mobius(k):
        out, d, kk = 1, 2, k
        while d * d <= kk:
            if kk % d == 0:
                kk //= d
                if kk % d == 0:
                    return 0
                out = -out
            d += 1
        if kk > 1:
            out = -out
        return out

    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(d) * m ** (n // d)
    return total // n


def test_dimension_matches_necklace_count():
    for m, n in ((2, 2), (2, 3), (3, 2)):
        letters = [Letter(("v", i), 0) for i in range(m)]
        quo = eager_quotient(letters, n)
        assert len(quo.rep_words(letters, n)) == necklace_dim(m, n)


def test_delta_cases():
    quo = ShuffleQuotient()
    assert delta((A,), quo) == {}
    w = quo.representatives([A, B])[0]
    out = delta(w, quo)
    a1, a2 = w
    assert out == {
        ((a1,), (a2,)): Fraction(1),
        ((a2,), (a1,)): Fraction(-1),
    }


def test_lift_morphism_identity_and_comorphism():
    """The morphism lift ``reconstruct_morphism(...)[1]`` on one-packet
    monomials (rep,): the identity family lifts to the identity, and a
    degree-0 family with a length-2 part satisfies (F x F) delta = delta F."""
    quo = ShuffleQuotient()
    rng = SplitMix64(33)
    letters = [A, B, E]
    identity = TaylorFamily({(1,): {((x,),): {x: Fraction(1)} for x in letters}})
    _, ident = reconstruct_morphism(identity, quo, quo)
    for _ in range(10):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        red = quo.reduce_word(w)
        if not red:
            continue
        rep = sorted(red)[0]
        assert ident((rep,)) == {rep: Fraction(1)}

    # degree-0 2-level Taylor family: comorphism identity (F x F) delta = delta F
    out_letters = [Letter(("o", i), d) for i, d in enumerate((-1, 0, 0, 1, 1, 2))]
    by_deg = {}
    for letter in out_letters:
        by_deg.setdefault(letter.degree, []).append(letter)
    table2 = {}
    for _ in range(10):
        w = tuple(rng.choice(letters) for _ in range(2))
        red = quo.reduce_word(w)
        if red:
            rep = sorted(red)[0]
            choices = by_deg.get(sum(a.degree for a in rep), [])
            if choices:
                table2[(rep,)] = {rng.choice(choices): Fraction(rng.randint(-2, 2))}

    fmap = {A: by_deg[0][0], B: by_deg[0][1], E: by_deg[1][0]}
    family = TaylorFamily({(1,): {((x,),): {fmap[x]: Fraction(1)} for x in letters},
                           (2,): table2})
    _, single = reconstruct_morphism(family, quo, quo)
    F = lambda word: single((word,))
    nonzero = 0
    for _ in range(15):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        red = quo.reduce_word(w)
        if not red:
            continue
        rep = sorted(red)[0]
        lhs = {}
        for (u, v), c in delta(rep, quo).items():
            for u2, c2 in F(u).items():
                for v2, c3 in F(v).items():
                    add_term(lhs, (u2, v2), c * c2 * c3)
        rhs = delta_elem(F(rep), quo)
        assert lhs == rhs
        nonzero += bool(rhs)
    assert nonzero


def commutative_square_zero():
    one, x = Letter(("c", 0), 0), Letter(("c", 1), 0)
    prod = {
        (one.ident, one.ident): {one.ident: Fraction(1)},
        (one.ident, x.ident): {x.ident: Fraction(1)},
        (x.ident, one.ident): {x.ident: Fraction(1)},
    }
    return FiniteAlgebra([one, x], prod, commutative=True)


def displayed_mu(word: Word, mu2, quo) -> Elem:
    """mu(a_[1,n]) = sum_k (-1)^(a_1 + ... + a_(k-1))
    a_[1,k-1] (x) mu2(a_k, a_(k+1)) (x) a_[k+2,n], reduced."""
    out: Elem = {}
    for k in range(len(word) - 1):
        sign = -1 if word_deg(word[:k]) % 2 else 1
        for letter, c in mu2(word[k], word[k + 1]).items():
            add_term(out, word[:k] + (letter,) + word[k + 2:], sign * c)
    return quo.reduce(out)


@pytest.mark.parametrize("case", ["shuffleco.mu", "genv.h_mu-polyvec",
                                  "genv.h_mu-sandbox"])
def test_mu_displayed_formula(case):
    """shuffleco.mu on a commutative algebra and genv.h_mu on a GerstBasis
    (polyvector fields on R^2, a sandbox) equal the displayed formula on
    random representative words of up to 4 letters, and square to zero."""
    quo = ShuffleQuotient()
    if case == "shuffleco.mu":
        alg = commutative_square_zero()
        mufun, mu2 = mu(alg, quo), partial(m2, alg=alg)
        letters = [shifted(a) for a in alg.letters]
        s1, sx = letters
        # length 2: single term m2; m2(x,x) = 0, m2(1,x) = -x
        assert mufun((s1, sx)) == {(sx,): Fraction(-1)}
    else:
        basis = (polyvec_basis(2) if case.endswith("polyvec")
                 else sandbox_gerstenhaber(SplitMix64(35)))
        mufun, mu2, letters = partial(h_mu, basis=basis, quotient=quo), basis.mu2, basis.letters
    rng = SplitMix64(34)
    nonzero = 0
    for _ in range(20):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        red = quo.reduce_word(w)
        if not red:
            continue
        rep = sorted(red)[0]
        out = mufun(rep)
        assert out == displayed_mu(rep, mu2, quo)
        nonzero += bool(out)
        # mu . mu = 0
        assert not extend(mufun, out)
    assert nonzero


def test_harrison_example_and_errors():
    alg = commutative_square_zero()
    quo = ShuffleQuotient()
    s1, sx = (shifted(a) for a in alg.letters)
    one, x = alg.letters
    C = {(sx,): {one: Fraction(1)}}
    validate_harrison_cochain(C, quo)
    dC = d_harrison(C, 2, alg, quo)
    # d_Ha C(x (x) x) = x.C(x) - C(x^2) + C(x).x = 2x
    (rep,) = quo.representatives([sx, sx])
    assert dC(rep) == {x: Fraction(2)}
    zero = d_harrison({}, 2, alg, quo)
    assert zero(rep) == {}
    # non-representative support is rejected
    w_bad = (sx, s1) if not quo.is_representative((sx, s1)) else (s1, sx)
    with pytest.raises(ValueError):
        d_harrison({w_bad: {one: Fraction(1)}}, 3, alg, quo)


def test_quotient_representative_lists():
    """The lists of two small multisets, by hand and by the split-row
    oracle: B.A (Lyndon for the reversed order) and the odd square E.E."""
    quo = ShuffleQuotient()
    assert quo.representatives([A, B]) == [(B, A)] == split_row_table((A, B))[1]
    assert quo.representatives([E, E]) == [(E, E)] == split_row_table((E, E))[1]


def tables_digest(quo) -> str:
    """sha256 of the sorted tables and lists, each coefficient written as a
    ``Fraction`` so the digest does not depend on its int or Fraction type."""
    h = hashlib.sha256()
    for ms in sorted(quo.tables):
        content = sorted((w, sorted((u, Fraction(c)) for u, c in row.items()))
                         for w, row in quo.tables[ms].items())
        h.update(repr((ms, content, quo.reps[ms])).encode())
    return h.hexdigest()


def test_quotient_tables_golden_digest():
    """Representatives and every table coefficient of the polyvector letters
    at d = 2, k <= 2 (letter degrees -1, 0, 1) up to length 4, pinned as
    sorted content: the key order inside a table row is not part of the
    contract."""
    quo = eager_quotient(polyvec_basis(2, 2).letters, 4)
    assert len(quo.tables) == 494
    assert tables_digest(quo) == \
        "67f2f28bf64cc90e2e9dc4edf5c5c4085791f69d9f66c2ed111b48d1343572f5"


def test_quotient_tables_golden_digest_d3():
    """The same pin for the letters of polyvec_basis(3, 1) up to length 3:
    the tables the d = 3, k <= 1 cocycle and coboundary decisions read."""
    quo = eager_quotient(polyvec_basis(3, 1).letters, 3)
    assert len(quo.tables) == 285
    assert tables_digest(quo) == \
        "3227f066003466214c0118bd4bbb0cece11ec4fe86324494fc9544cc31ec1894"


def bat_koszul(a: Word, b: Word) -> Elem:
    """Signed sum of all (p,q)-shuffles of the words a and b."""
    p, q = len(a), len(b)
    if p < 1 or q < 1:
        raise ValueError("shuffle factors must be nonempty")
    letters = a + b
    degs = [x.degree for x in letters]
    out: Elem = {}
    for pos in combinations(range(p + q), p):
        perm = [0] * (p + q)
        bi = p
        posset = set(pos)
        ai = 0
        for k in range(p + q):
            if k in posset:
                perm[k] = ai
                ai += 1
            else:
                perm[k] = bi
                bi += 1
        sign = koszul_sign(degs, perm)
        add_term(out, tuple(letters[i] for i in perm), Fraction(sign))
    return out


# Three letters of each parity; short words over them repeat letters often.
PARITY_LETTERS = [Letter(("h", i), deg) for i, deg in enumerate((-1, 0, 1, 2, -1, 0))]
words = st.lists(st.sampled_from(PARITY_LETTERS), min_size=1, max_size=4).map(tuple)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(words, words)
def test_bat_matches_koszul_oracle(a, b):
    """The integer kernel gives the permutation-sign shuffle, coefficient
    for coefficient and in the same key order."""
    assert list(bat(a, b).items()) == list(bat_koszul(a, b).items())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(words)
def test_bat_of_odd_word_with_itself_vanishes(u):
    if word_deg(u) % 2:
        assert bat(u, u) == {} == bat_koszul(u, u)
    else:
        assert bat(u, u) == bat_koszul(u, u)


def test_suite_green():
    for name, ok, bad in suite_shuffle(7, 40, polyvec_basis(2)):
        assert ok, f"{name}: {bad}"


def graded_multiset_alphabets():
    """Polyvector letters at d=2, k<=2, d=3, k<=1 and d=4, k<=2 (weights in
    their grades) and one seeded sandbox (weight 0)."""
    rng = SplitMix64(81)
    return [polyvec_basis(2, 2).letters, polyvec_basis(3, 1).letters,
            polyvec_basis(4, 2).letters, sandbox_gerstenhaber(rng).letters]


def test_graded_multisets_match_filtered_combinations():
    """The pruned walk returns the ``combinations_with_replacement``
    multisets of the requested grades, order included: every single grade
    (200 drawn where there are more), unions, degrees out of range, grades
    with a large weight coordinate, and the empty set.  At length 0 the one
    multiset is the empty one, of grade 0."""
    rng = SplitMix64(82)
    cases = 0
    for letters in graded_multiset_alphabets():
        letters = sorted(letters)
        walk = GradedLetters(letters)
        for n in (0, 1, 2, 3):
            full = list(combinations_with_replacement(letters, n))
            at: dict = {}  # grade -> positions in ``full``
            for i, ms in enumerate(full):
                at.setdefault(word_grade(ms), []).append(i)
            grades = sorted(at)
            if len(grades) > 200:
                singles = [grades[rng.randrange(len(grades))] for _ in range(200)]
            else:
                singles = grades
            sets = [{g} for g in singles]
            sets += [set(grades[i::7]) for i in range(3)]
            lo, hi = min(a.degree for a in letters), max(a.degree for a in letters)
            sets += [{n * lo - 1}, {n * hi + 1}, {pack_grade(0, (n + 1,))},
                     {pack_grade(n * lo, (-n - 1, n + 1)), grades[0]}, set()]
            for gs in sets:
                want = [full[i] for i in sorted(i for g in gs for i in at.get(g, ()))]
                assert graded_multisets(walk, n, gs) == want
                cases += 1
    assert cases > 700


def test_tables_view_is_the_read_only_store():
    """``ShuffleQuotient.tables`` is a read-only ``Mapping`` that lists
    exactly the built multisets, and each of its rows is the object
    ``reduce_word`` returns."""
    letters = polyvec_basis(2, 1).letters
    quo = eager_quotient(letters, 3)
    built = sorted(quo.reps)
    assert isinstance(quo.tables, Mapping)
    with pytest.raises(TypeError):
        quo.tables[built[0]] = {}
    assert len(quo.tables) == len(built) and sorted(quo.tables) == built
    assert (letters[0],) * 4 not in quo.tables
    for ms in built:
        table = quo.tables[ms]
        assert sorted(table) == sorted(set(permutations(ms)))
        for w, row in table.items():
            assert row is quo.reduce_word(w)


def test_word_index_holds_the_table_rows():
    """The word -> row index behind ``reduce_word`` holds every word of every
    built table, once, with the table's own row object; a word of an unbuilt
    multiset builds exactly that multiset's table and indexes its words."""
    letters = polyvec_basis(2, 2).letters
    quo = eager_quotient(letters, 4)
    assert len(quo.tables) == 494
    for table in quo.tables.values():
        for w, row in table.items():
            assert quo.reduce_word(w) is row
    assert len(quo._rows) == sum(map(len, quo.tables.values()))
    lazy = ShuffleQuotient()
    ms = (letters[0], letters[1], letters[1], letters[2])
    word = (ms[1], ms[2], ms[3], ms[0])
    row = lazy.reduce_word(word)
    assert list(lazy.tables) == [ms]
    assert row is lazy.tables[ms][word] and row == quo.reduce_word(word)
    assert len(lazy._rows) == len(lazy.tables[ms]) == 12


def clear_coded_store():
    """Empty the process-wide coded store, so a count of coded builds does
    not depend on which tests ran before."""
    shuffleco._coded_lists.cache_clear()
    shuffleco._coded_rows.cache_clear()


def pattern(multiset: tuple) -> tuple:
    """The (multiplicity pattern, parities) key of a sorted multiset, coded
    here apart from ``shuffleco``."""
    alphabet = sorted(set(multiset))
    return (tuple(map(alphabet.index, multiset)),
            tuple(x.degree % 2 for x in alphabet))


def test_representatives_return_the_stored_list(monkeypatch):
    """``representatives`` returns the list stored for the multiset: the same
    object for every order of its letters, generated without a table (no
    ``echelonize`` or ``_shuffle`` call), kept when a later ``reduce_word``
    builds the table, and a sorted tuple is looked up without sorting.  The
    table costs one coded build of the multiset's pattern (one ``echelonize``
    call, one ``_shuffle`` per eliminated word), and the same table on a
    second quotient none."""
    clear_coded_store()
    letters = polyvec_basis(2, 1).letters
    ms = tuple(sorted([letters[3], letters[1], letters[0], letters[1]]))
    builds, shuffles = [], []
    echelonize, shuffle = shuffleco.echelonize, shuffleco._shuffle
    monkeypatch.setattr(shuffleco, "echelonize",
                        lambda *args: builds.append(args) or echelonize(*args))
    monkeypatch.setattr(shuffleco, "_shuffle",
                        lambda *args: shuffles.append(args) or shuffle(*args))
    quo = ShuffleQuotient()
    reps = quo.representatives(ms)
    assert reps and builds == [] and shuffles == []
    assert quo.representatives(ms) is reps
    shuffled = [ms[2], ms[0], ms[3], ms[1]]
    assert shuffled != sorted(shuffled)
    assert quo.representatives(shuffled) is reps
    assert quo.representatives(tuple(reversed(ms))) is reps
    assert quo.rep_words(set(ms), 4) and quo.representatives(ms) is reps
    assert builds == [] and shuffles == [] and not quo.tables
    quo.reduce_word(tuple(shuffled))
    quo.reduce_word(ms)
    assert len(builds) == 1 and len(shuffles) == len(quo.tables[ms]) - len(reps) > 0
    assert quo.representatives(ms) is reps
    other = ShuffleQuotient()
    assert other.reduce_word(ms) == quo.reduce_word(ms)
    assert other.tables[ms] == quo.tables[ms] and other.reps[ms] == reps
    assert len(builds) == 1 and len(shuffles) == len(quo.tables[ms]) - len(reps)

    def no_sort(*args, **kwargs):
        raise AssertionError("a sorted multiset was sorted again")

    monkeypatch.setattr(shuffleco, "sorted", no_sort, raising=False)
    assert quo.representatives(ms) is reps


def test_rep_words_and_the_split_walk_sort_no_multiset(monkeypatch):
    """``rep_words`` and ``chcoh``'s graded monomial walk hold each multiset
    as a sorted tuple already, and the quotient does not sort it again,
    even when its list is not stored yet: ``rep_words`` sorts its alphabet
    once, and the walk, once set up, sorts nothing in ``shuffleco``.  Their
    lists and monomials are those made before the sort was counted."""
    from gerstenhaber.chcoh import monomials_for_shape, real_polyvec_context

    letters = polyvec_basis(2, 2).letters
    want_words = [w for ms in combinations_with_replacement(letters, 3)
                  for w in ShuffleQuotient().representatives(ms[::-1])]
    shapes = [((2, 2), range(-1, 3)), ((3, 1), {0, 1}), ((2, 1, 1), {1})]
    want_monos = [monomials_for_shape(real_polyvec_context(2, 2), shape, grades)
                  for shape, grades in shapes]
    ctx = real_polyvec_context(2, 2)
    assert ctx.graded_letters.letters == letters  # the walk's set-up, built now
    sorts = []
    monkeypatch.setattr(shuffleco, "sorted",
                        lambda *a, **k: sorts.append(a) or sorted(*a, **k), raising=False)
    assert ShuffleQuotient().rep_words(letters[::-1], 3) == want_words
    assert len(sorts) == 1
    sorts.clear()
    assert [monomials_for_shape(ctx, shape, grades)
            for shape, grades in shapes] == want_monos
    assert sorts == [] and len(ctx.quotient.reps) > 20 and all(want_monos)


@pytest.mark.parametrize("d, kmax, length, count", [
    (2, 2, 4, 494),
    (3, 1, 3, 285),
    (3, 3, 3, 10659),
])
def test_generated_representatives_equal_the_table_lists(d, kmax, length, count):
    """On every multiset of the polyvector letters up to ``length``, the
    list ``representatives`` generates (super-Lyndon words for the reversed
    letter order) equals, word for word and in order, the split-row
    oracle's, and generating builds no table; the engine's reduction table,
    built before the list, equals the oracle's table."""
    multisets = multisets_upto(polyvec_basis(d, kmax).letters, length)
    assert len(multisets) == count
    generated, engine = ShuffleQuotient(), ShuffleQuotient()
    for ms in multisets:
        table, reps = split_row_table(ms)
        assert generated.representatives(ms) == reps
        engine.reduce_word(ms)
        assert engine.tables[ms] == table
        assert engine.reps[ms] == reps
    assert len(generated.reps) == count and not generated.tables


def test_a_table_built_first_lists_its_words_once(monkeypatch):
    """A table built before its multiset's list stores the list of its
    pattern's coded words: building every table of d = 2, k <= 2 up to
    length 4 on a fresh quotient and an empty coded store lists the
    distinct permutations once per (multiplicity pattern, parities) key
    (64 top-level ``_distinct_permutations`` calls for the 494 multisets),
    and every stored list equals the split-row oracle's."""
    clear_coded_store()
    permute = shuffleco._distinct_permutations
    calls = [0]
    depth = [0]

    def counted(pool):
        calls[0] += not depth[0]
        depth[0] += 1
        try:
            return permute(pool)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(shuffleco, "_distinct_permutations", counted)
    multisets = multisets_upto(polyvec_basis(2, 2).letters, 4)
    quo = ShuffleQuotient()
    for ms in multisets:
        quo.reduce_word(ms)
    assert len(multisets) == 494
    assert calls[0] == len(set(map(pattern, multisets))) == 64
    monkeypatch.undo()
    assert all(quo.reps[ms] == split_row_table(ms)[1] for ms in multisets)


@st.composite
def random_multisets(draw):
    """A multiset of 1..6 letters over an alphabet of 2..4 letters whose
    degrees are drawn from -3..2 (repeats and odd squares included)."""
    degs = draw(st.lists(st.integers(-3, 2), min_size=2, max_size=4))
    alphabet = [Letter(("r", i), deg) for i, deg in enumerate(degs)]
    picks = draw(st.lists(st.integers(0, len(degs) - 1), min_size=1, max_size=6))
    return tuple(sorted(alphabet[i] for i in picks))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(random_multisets())
def test_generated_representatives_equal_the_table_list_on_random_alphabets(ms):
    """The generated list and the engine's table (built first) equal the
    split-row oracle's."""
    table, reps = split_row_table(ms)
    table_first = ShuffleQuotient()
    table_first.reduce_word(ms)
    assert table_first.tables[ms] == table
    generated = ShuffleQuotient()
    assert generated.representatives(ms) == reps == table_first.representatives(ms)
    assert not generated.tables


def test_a_generated_list_that_disagrees_with_the_table_raises(monkeypatch):
    """A table is decoded only when the multiset's stored list is its
    pattern's list, and the coded rows only when their pivots are exactly
    the words off that list: a stored list missing one word, or a coded
    list missing one word, makes ``reduce_word`` raise and keeps the table
    out; the coded store then keeps nothing for the pattern."""
    clear_coded_store()
    letters = polyvec_basis(2, 1).letters
    ms = tuple(sorted([letters[3], letters[1], letters[0], letters[1]]))
    generate = shuffleco._super_lyndon
    assert len(generate(ms)) > 1
    monkeypatch.setattr(shuffleco, "_super_lyndon", lambda ms: generate(ms)[1:])
    quo = ShuffleQuotient()
    assert quo.representatives(ms) == generate(ms)[1:]
    with pytest.raises(ArithmeticError, match="stored list"):
        quo.reduce_word(ms)
    assert ms not in quo.tables
    monkeypatch.undo()
    clear_coded_store()
    lists = shuffleco._coded_lists
    monkeypatch.setattr(shuffleco, "_coded_lists",
                        lambda *key: (lists(*key)[0], lists(*key)[1][1:]))
    quo = ShuffleQuotient()
    with pytest.raises(ArithmeticError, match="do not eliminate"):
        quo.reduce_word(ms)
    assert ms not in quo.tables and ms not in quo.reps
    assert shuffleco._coded_rows.cache_info().currsize == 0
    monkeypatch.undo()
    assert quo.reduce_word(ms) == split_row_table(ms)[0][ms]


def coded_builds(monkeypatch) -> list:
    """Empty the coded store and record each ``echelonize`` call it makes."""
    clear_coded_store()
    builds = []
    monkeypatch.setattr(shuffleco, "echelonize",
                        lambda *args: builds.append(args) or echelonize(*args))
    return builds


def test_one_pattern_over_other_letters_shares_one_coded_build(monkeypatch):
    """Two multisets with one multiplicity pattern and the same parities,
    over letters of other names and degrees, read one coded build, and each
    decoded table and list equals the split-row oracle's."""
    first = [Letter(("s", i), deg) for i, deg in enumerate((0, 1, 2))]
    second = [Letter(("t", i), deg) for i, deg in enumerate((-2, 3, -4))]
    pair = [(x[0], x[1], x[1], x[2]) for x in (first, second)]
    assert pattern(pair[0]) == pattern(pair[1])
    builds = coded_builds(monkeypatch)
    quo = ShuffleQuotient()
    for ms in pair:
        quo.reduce_word(ms)
    assert len(builds) == 1
    for ms in pair:
        table, reps = split_row_table(ms)
        assert quo.tables[ms] == table and quo.reps[ms] == reps
    assert quo.tables[pair[0]].keys().isdisjoint(quo.tables[pair[1]])


def test_multisets_that_differ_in_one_parity_get_their_own_builds(monkeypatch):
    """Two multisets whose letters differ only in the parity of one letter
    have one multiplicity pattern but two coded builds, and their tables
    each equal the split-row oracle's: a.a.b.b lists the square of b.a when
    b.a is odd, and not when it is even."""
    odd = [Letter(("p", i), deg) for i, deg in enumerate((0, 1))]
    even = [Letter(("p", i), deg) for i, deg in enumerate((0, 2))]
    pair = [(x[0], x[0], x[1], x[1]) for x in (odd, even)]
    assert pattern(pair[0])[0] == pattern(pair[1])[0]
    builds = coded_builds(monkeypatch)
    quo = ShuffleQuotient()
    for ms in pair:
        quo.reduce_word(ms)
    assert len(builds) == 2
    for ms in pair:
        table, reps = split_row_table(ms)
        assert quo.tables[ms] == table and quo.reps[ms] == reps
    assert len(quo.reps[pair[0]]) == len(quo.reps[pair[1]]) + 1


def test_a_dropped_quotient_is_freed():
    """The coded store holds ints only: a quotient with built tables and
    lists is freed once dropped."""
    quo = eager_quotient(polyvec_basis(2, 1).letters, 3)
    assert quo.tables and quo.reps
    ref = weakref.ref(quo)
    del quo
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("parities", [p for k in (1, 2, 3)
                                      for p in product((0, 1), repeat=k)],
                         ids=lambda p: "".join(map(str, p)))
def test_each_eliminated_word_is_the_lowest_word_of_its_row(parities):
    """Over 1..3 coded letters of every parity pattern, every word of up to
    6 letters that is not a representative is the lowest word, with a
    nonzero coefficient, of the shuffle of its longest proper prefix that is
    a representative with the rest: so a table's rows, one per eliminated
    word, form a triangular system."""
    odd = list(parities)
    eliminated = 0
    for n in range(2, 7):
        for w in product(range(len(odd)), repeat=n):
            if shuffleco._is_rep(w, odd):
                continue
            p = max(p for p in range(1, n) if shuffleco._is_rep(w[:p], odd))
            row = shuffleco._shuffle(w[:p], w[p:], odd)
            assert row and min(row) == w, (odd, w, p)
            eliminated += 1
    assert eliminated
