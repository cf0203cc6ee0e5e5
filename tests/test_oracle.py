"""Definition-level orbit oracle: power orbits, membership, enumeration,
rigidity, numeric residuals, and the space scan."""

import json
import os
from itertools import permutations

import numpy as np
import pytest

from orbitref import (
    BudgetExceeded,
    FiniteField,
    Matrix,
    QQ,
    commutator_is_zero,
    enumerate_orbref0,
    matpow,
    orbref0_contains,
    power_orbit,
)
from orbitref.fields import to_digits
from orbitref.linalg import _berkowitz, to_ndarray
from orbitref.oracle import (
    DEFAULT_BUDGET,
    _clashing,
    _column_search,
    _scan_cols,
    _space,
    scan_space,
)
from orbitref.witness import _residual_minima


def _scan_matrix(field, d, idx):
    """The matrix of scan index idx: row-major digits, decoded by columns."""
    return _space(field, d).decode(_scan_cols(to_digits(idx, field.q, d * d), field.q, d))


def _table_dot(sp, r, c):
    """The sum of r_i * c_i over element indices, gathered one matrix at a
    time from the space's scalar arrays."""
    add, mul, _ = sp.gathers
    acc = 0
    for a, b in zip(r, c):
        acc = int(add[acc, mul[a, b]])
    return acc


def _char_poly_int(sp, digits):
    """Characteristic polynomial coefficients (leading first, monic) of the
    matrix with row-major element indices `digits`: `linalg._berkowitz` on
    the table ints of one matrix, the reference for the classify pass,
    which runs it on a whole block at once."""
    d = sp.d
    rows = [digits[i * d:(i + 1) * d] for i in range(d)]
    poly = _berkowitz(rows, lambda r, c: _table_dot(sp, r, c),
                      lambda a: int(sp.gathers[2][a]), 1, lambda x: x == 0)
    return tuple(poly)


def _reference_key(field, d, idx):
    """The classify key of scan matrix idx from the matrix-level lanes: the
    char poly, with rank(M - aI) by `power_ranks` at the repeated eigenvalue
    a of `eigenvalues`, or None when every eigenvalue is simple."""
    from orbitref import eigenvalues
    from orbitref.linalg import power_ranks

    M = _scan_matrix(field, d, idx)
    repeated = [lam for lam, mult in eigenvalues(M).roots if mult > 1]
    assert len(repeated) <= 1
    rank = next(power_ranks(M, repeated[0])) if repeated else None
    return _char_poly_int(_space(field, d), to_digits(idx, field.q, d * d)), rank


# -- power orbits ---------------------------------------------------------------

def test_power_orbit_identity():
    g2 = FiniteField(2)
    orb = power_orbit(Matrix.identity(g2, 2))
    assert len(orb.powers) == 1 and orb.tail == 0 and orb.cycle == 1


def test_power_orbit_nilpotent():
    g3 = FiniteField(3)
    orb = power_orbit(Matrix.jordan_block(g3, 0, 2))
    assert [P.to_strings() for P in orb.powers] == [
        [["1", "0"], ["0", "1"]],
        [["0", "0"], ["1", "0"]],
        [["0", "0"], ["0", "0"]],
    ]
    assert orb.tail == 2 and orb.cycle == 1


def test_power_orbit_unipotent_order_p():
    g5 = FiniteField(5)
    orb = power_orbit(Matrix.from_values(g5, [[1, 1], [0, 1]]))
    assert len(orb.powers) == 5 and orb.tail == 0 and orb.cycle == 5


def test_scaled_matrices_positive_powers_only():
    g3 = FiniteField(3)
    orb = power_orbit(Matrix.jordan_block(g3, 0, 2))
    scaled = orb.scaled_matrices()
    # {0} plus the two nonzero multiples of J; the identity is not a positive
    # power of a singular matrix
    assert len(scaled) == 3
    assert Matrix.identity(g3, 2) not in scaled


# -- membership -------------------------------------------------------------------

def test_contains_own_power():
    g5 = FiniteField(5)
    T = Matrix.from_values(g5, [[1, 2], [3, 4]])
    ok, failing = orbref0_contains(T, matpow(T, 3))
    assert ok and failing is None


def test_contains_prime_field_pair():
    g3 = FiniteField(3)
    T = Matrix.from_values(g3, [[1, 1], [0, 1]])
    S = Matrix.from_values(g3, [[0, 1], [0, 1]])
    ok, _ = orbref0_contains(T, S)
    assert ok


def test_contains_failing_vector():
    g2 = FiniteField(2)
    ok, failing = orbref0_contains(Matrix.identity(g2, 2),
                                   Matrix.from_values(g2, [[1, 0], [0, 0]]))
    assert not ok
    assert [str(v) for v in failing] == ["1", "1"]


def test_contains_budget():
    g2 = FiniteField(2)
    with pytest.raises(BudgetExceeded):
        orbref0_contains(Matrix.identity(g2, 2), Matrix.identity(g2, 2), budget=3)



def test_contains_budget_counts_walk_steps():
    # on the shear over GF(7) the candidate passes all 7^2 vector checks,
    # whose walks x -> Tx -> T^2 x take 7 (7^2 - 1) / 2 steps in all
    g7 = FiniteField(7)
    T = Matrix.from_values(g7, [[1, 1], [0, 1]])
    S = Matrix.from_values(g7, [[0, 1], [0, 1]])
    need = 7 ** 2 + 7 * (7 ** 2 - 1) // 2
    assert orbref0_contains(T, S, budget=need) == (True, None)
    with pytest.raises(BudgetExceeded, match="walk steps"):
        orbref0_contains(T, S, budget=need - 1)

def _first_miss_reference(T, S, orbit_sets):
    """The first vector in index order whose S x leaves its orbit set."""
    for x, orbit in orbit_sets:
        if S.apply(x) not in orbit:
            return x
    return None


@pytest.mark.parametrize("field", [FiniteField(3), FiniteField(2, 2)])
def test_contains_agrees_with_enumeration_per_class(field):
    from itertools import product

    els = field.elements()
    # index order: the first coordinate runs fastest
    vectors = [tuple(reversed(t)) for t in product(els, repeat=2)]
    candidates = [_scan_matrix(field, 2, i) for i in range(field.q ** 4)]
    for T in _class_inputs(field, 2):
        # {lam T^n x : n >= 1} by walking x -> Tx -> T^2 x to the first repeat
        orbit_sets = []
        for x in vectors:
            walk, z = [], T.apply(x)
            while z not in walk:
                walk.append(z)
                z = T.apply(z)
            orbit_sets.append((x, {tuple(lam * c for c in z)
                                   for z in walk for lam in els}))
        members = set(enumerate_orbref0(T).members)
        for S in candidates:
            ok, failing = orbref0_contains(T, S)
            assert ok == (S in members), (T.to_strings(), S.to_strings())
            assert failing == _first_miss_reference(T, S, orbit_sets)


def test_contains_large_field_builds_no_vector_tables(monkeypatch):
    # q^(2d) = 10^8 over GF(101)^2: the membership walk runs on the field's
    # ring and builds no space, not even the q^2-entry tables of GF(q)^1
    from orbitref import oracle

    def no_space(field, d):
        raise AssertionError(f"the tables of {field.name}^{d} were built")

    monkeypatch.setattr(oracle, "_Space", no_space)
    oracle._space.cache_clear()
    g101 = FiniteField(101)
    T = Matrix.from_values(g101, [[2, 0], [0, 3]])
    assert orbref0_contains(T, T @ T) == (True, None)
    ok, failing = orbref0_contains(Matrix.identity(g101, 2),
                                   Matrix.from_values(g101, [[1, 0], [0, 0]]))
    assert not ok
    assert [str(v) for v in failing] == ["1", "1"]
    # the GF(997) shear candidate passes every check only after about 4.7e8
    # walk steps; the 997^2 checks leave 5991 of the budget to walk
    g997 = FiniteField(997)
    with pytest.raises(BudgetExceeded, match="walk steps"):
        orbref0_contains(Matrix.from_values(g997, [[1, 1], [0, 1]]),
                         Matrix.from_values(g997, [[0, 1], [0, 1]]), budget=10 ** 6)


# -- enumeration ------------------------------------------------------------------

def test_enumerate_gf2_shear_strictly_larger():
    g2 = FiniteField(2)
    T = Matrix.from_values(g2, [[1, 1], [0, 1]])
    S = Matrix.from_values(g2, [[0, 1], [0, 1]])
    res = enumerate_orbref0(T)
    assert not res.equal
    assert any(D == S for D in res.difference)


def test_enumerate_gf4_shear_equal():
    g4 = FiniteField(2, 2)
    T = Matrix.from_values(g4, [[1, 1], [0, 1]])
    res = enumerate_orbref0(T)
    assert res.equal


def test_enumerate_nilpotent_j2_gf3_equal():
    g3 = FiniteField(3)
    res = enumerate_orbref0(Matrix.jordan_block(g3, 0, 2))
    assert res.equal
    assert res.orbref0_size == res.forb_size == 3


def test_enumerate_budget():
    g4 = FiniteField(2, 2)
    with pytest.raises(BudgetExceeded):
        enumerate_orbref0(Matrix.identity(g4, 2), budget=100)


def test_scaled_orbit_inside_orbref0_and_scalar_closure():
    g3 = FiniteField(3)
    T = Matrix.from_values(g3, [[1, 1], [0, 1]])
    res = enumerate_orbref0(T)
    members = set(res.members)
    scaled = power_orbit(T).scaled_matrices()
    assert scaled <= members
    assert len(scaled) == res.forb_size
    # members absorb scalars: lam * S stays a member for every lam
    for S in res.members:
        for lam in g3.elements():
            assert S.scale(lam) in members


def test_orbit_members_commute_noncommuting_member_certifies_inequality():
    g3 = FiniteField(3)
    T = Matrix.from_values(g3, [[1, 1], [0, 1]])
    res = enumerate_orbref0(T)
    for P in power_orbit(T).scaled_matrices():
        assert commutator_is_zero(P, T)[0]
    noncommuting = [S for S in res.members if not commutator_is_zero(S, T)[0]]
    assert bool(noncommuting) == (not res.equal)


def rigidity_violations(T):
    """The members S of OrbRef0(T) that violate scaled-power rigidity
    (S f = beta T^k f != 0 for some f, beta and k >= 1 must force
    S = beta T^k), each once and in enumeration order: every nonzero member
    outside the scaled orbit, and every scaled power that shares a nonzero
    value with another scaled power at some vector (the criterion is proved
    in the oracle's module docstring)."""
    search = _column_search(T, DEFAULT_BUDGET)
    clashing = _clashing(search.sp, search.forb)
    # the zero matrix lies in forb, so a member outside it is nonzero
    return [search.sp.decode(S) for S in search.members()
            if S not in search.forb or S in clashing]


def test_rigidity_clean_for_small_nilpotents():
    g3 = FiniteField(3)
    assert rigidity_violations(Matrix.jordan_block(g3, 0, 2)) == []
    g2 = FiniteField(2)
    J21 = Matrix.block_diag([Matrix.jordan_block(g2, 0, 2),
                             Matrix.jordan_block(g2, 0, 1)])
    assert rigidity_violations(J21) == []


def test_lone_3_chain_defeats_rigidity_and_equality():
    # The two-entry operator x -> (<x,e0> + <x,e1>) e2 lies in OrbRef0 of a
    # lone nilpotent 3-chain over every field but is no scaled power; the
    # exhaustive oracle must surface it.
    g2 = FiniteField(2)
    J3 = Matrix.jordan_block(g2, 0, 3)
    S = Matrix.from_values(g2, [[0, 0, 0], [0, 0, 0], [1, 1, 0]])
    ok, _ = orbref0_contains(J3, S)
    assert ok
    res = enumerate_orbref0(J3)
    assert not res.equal
    assert any(D == S for D in res.difference)
    bad = rigidity_violations(J3)
    assert S in bad  # S f = T f != 0 at f = e1 without S = T


class _TupleArith:
    """Reference GF(q) arithmetic on tuples of element indices, built from
    FiniteField scalars; a matrix is the tuple of its columns.  The
    references below share no code with the oracle's kernel."""

    def __init__(self, field):
        els = field.elements()
        self.field, self.scalars, self.q = field, els, len(els)
        self.add = [[(a + b).value for b in els] for a in els]
        self.mul = [[(a * b).value for b in els] for a in els]

    def vec_add(self, x, y):
        return tuple(self.add[a][b] for a, b in zip(x, y))

    def vec_scale(self, s, x):
        return tuple(self.mul[s][a] for a in x)

    def mat_vec(self, cols, x):
        acc = (0,) * len(cols[0])
        for xi, col in zip(x, cols):
            acc = self.vec_add(acc, self.vec_scale(xi, col))
        return acc

    def encode(self, M):
        return tuple(tuple(s.value for s in M.col(j)) for j in range(M.n))

    def decode(self, cols):
        d = len(cols)
        return Matrix(self.field, [[self.scalars[cols[j][i]] for j in range(d)]
                                   for i in range(d)])

    def vectors(self, d):
        """Every vector of GF(q)^d; x sits at position from_digits(x, q)."""
        from orbitref.fields import to_digits

        return [to_digits(idx, self.q, d) for idx in range(self.q ** d)]

    def positive_powers(self, Tcols, d):
        """The distinct T^n with n >= 1 (T^0 included when the power
        sequence is purely cyclic), plus the tail and cycle lengths."""
        seen = {}
        cur = tuple(tuple(int(i == j) for i in range(d)) for j in range(d))
        while cur not in seen:
            seen[cur] = len(seen)
            cur = tuple(self.mat_vec(Tcols, col) for col in cur)
        powers, tail = list(seen), seen[cur]
        return (powers if tail == 0 else powers[1:]), tail, len(powers) - tail

    def scaled_orbit(self, positive, d):
        zero = tuple((0,) * d for _ in range(d))
        return frozenset([zero] + [tuple(self.vec_scale(lam, col) for col in P)
                                   for P in positive for lam in range(1, self.q)])


def _rigidity_reference(tbl, Tcols, members, d):
    """The member x vector x power x beta search the rigidity kernel replaced:
    the distinct members S with S f = beta T^k f != 0 and S != beta T^k, in
    member order."""
    positive, _, _ = tbl.positive_powers(Tcols, d)
    q = tbl.q
    violations = []
    for cols in members:
        for f in tbl.vectors(d):
            y = tbl.mat_vec(cols, f)
            if all(c == 0 for c in y):
                continue
            for P in positive:
                z = tbl.mat_vec(P, f)
                if all(c == 0 for c in z):
                    continue
                for beta in range(1, q):
                    if tbl.vec_scale(beta, z) == y:
                        expected = tuple(tbl.vec_scale(beta, col) for col in P)
                        if cols != expected:
                            violations.append((cols, f, beta))
    return list(dict.fromkeys(cols for cols, *_ in violations))


def _orbit_masks_reference(tbl, positive, d):
    """Per-vector membership bitmasks: bit v of masks[x] says v is lam*(T^n x)
    for some lam and some n >= 1."""
    from orbitref.fields import from_digits

    q = tbl.q
    vectors = tbl.vectors(d)
    masks = []
    for x in vectors:
        m = 1  # zero vector always present (lam = 0)
        for P in positive:
            y = tbl.mat_vec(P, x)
            for lam in range(1, q):
                m |= 1 << from_digits(tbl.vec_scale(lam, y), q)
        masks.append(m)
    return vectors, masks


def _product_scan_reference(tbl, Tcols, d):
    """The product scan the column search replaced: every candidate of the
    column product, all checks per candidate, on tuple-coded vectors."""
    from itertools import product

    from orbitref.fields import from_digits

    q = tbl.q
    positive, tail, cycle = tbl.positive_powers(Tcols, d)
    vectors, masks = _orbit_masks_reference(tbl, positive, d)
    basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    allowed_cols = []
    for j, e in enumerate(basis):
        mask = masks[from_digits(e, q)]
        allowed_cols.append([v for v in vectors if (mask >> from_digits(v, q)) & 1])
    check_vecs = []
    for x in vectors:
        nonzero = [(i, c) for i, c in enumerate(x) if c]
        if len(nonzero) >= 2:  # scalar multiples of basis vectors pass by scaling
            check_vecs.append((nonzero, masks[from_digits(x, q)]))
    members = []
    vec_add = tbl.vec_add
    vec_scale = tbl.vec_scale
    for cols in product(*allowed_cols):
        ok = True
        for nonzero, mask in check_vecs:
            acc = None
            for i, c in nonzero:
                term = vec_scale(c, cols[i])
                acc = term if acc is None else vec_add(acc, term)
            if not (mask >> from_digits(acc, q)) & 1:
                ok = False
                break
        if ok:
            members.append(cols)
    forb = tbl.scaled_orbit(positive, d)
    member_set = set(members)
    assert forb <= member_set, "scaled power orbit must sit inside OrbRef0"
    return members, forb, tail, cycle


def _class_inputs(field, d):
    """One matrix per similarity class of M_d(GF(q)), by the classify key."""
    from orbitref.oracle import _classify_chunk

    reps = {}
    for idx, key, _, _ in _classify_chunk((field, d, 0, field.q ** (d * d), False)):
        reps.setdefault(key, idx)
    return [_scan_matrix(field, d, idx) for idx in reps.values()]


def _assert_search_matches_product_scan(T):
    from orbitref.fields import from_digits
    from orbitref.oracle import _ColumnSearch, _space

    sp = _space(T.field, T.n)
    tbl = _TupleArith(T.field)
    members, forb, tail, cycle = _product_scan_reference(tbl, tbl.encode(T), T.n)
    search = _ColumnSearch(sp, sp.encode(T))

    def coded(cols):
        return tuple(from_digits(col, tbl.q) for col in cols)

    assert list(search.members()) == [coded(cols) for cols in members], T.to_strings()
    assert search.count() == len(members)
    assert search.forb == {coded(R) for R in forb}
    assert (search.tail, search.cycle) == (tail, cycle)


@pytest.mark.parametrize("field,d", [(FiniteField(2), 2), (FiniteField(3), 2),
                                     (FiniteField(2, 2), 2), (FiniteField(5), 2),
                                     (FiniteField(7), 2), (FiniteField(2), 3)])
def test_column_search_matches_product_scan_per_class(field, d):
    for T in _class_inputs(field, d):
        _assert_search_matches_product_scan(T)


def test_column_search_matches_product_scan_on_companions_and_chains():
    g2, g3 = FiniteField(2), FiniteField(3)
    J = Matrix.jordan_block
    # x^3+2x+1 is primitive, so T is transitive on lines and no check is
    # left; x^4+x^3+x^2+x+1 is irreducible of order 5, so T moves lines in
    # orbits of 5 and checks remain
    for T in (Matrix.from_values(g3, [[0, 0, 2], [1, 0, 1], [0, 1, 0]]),
              J(g2, 0, 4),
              Matrix.block_diag([J(g2, 0, 2), J(g2, 0, 2)]),
              Matrix.from_values(g2, [[0, 0, 0, 1], [1, 0, 0, 1],
                                      [0, 1, 0, 1], [0, 0, 1, 1]])):
        _assert_search_matches_product_scan(T)


@pytest.mark.parametrize("field,d", [(FiniteField(2, 3), 2), (FiniteField(3, 2), 2),
                                     (FiniteField(3), 3)], ids=["gf8-d2", "gf9-d2", "gf3-d3"])
def test_count_matches_the_member_walk_per_class(field, d):
    from orbitref.oracle import _ColumnSearch

    sp = _space(field, d)
    for T in _class_inputs(field, d):
        search = _ColumnSearch(sp, sp.encode(T))
        assert search.count() == len(list(search.members())), T.to_strings()


def test_count_pinned_sizes():
    from orbitref.oracle import _ColumnSearch

    J = Matrix.jordan_block
    g8, g9, g5, g7 = FiniteField(2, 3), FiniteField(3, 2), FiniteField(5), FiniteField(7)
    for T, size in ((J(g8, 0, 3), 71),
                    (Matrix.block_diag([J(g9, 1, 2), J(g9, 0, 1)]), 25),
                    (Matrix.block_diag([J(g5, 1, 2), J(g5, 2, 1)]), 321),
                    (J(g7, 3, 2), 295)):
        sp = _space(T.field, T.n)
        assert _ColumnSearch(sp, sp.encode(T)).count() == size, T.to_strings()


def test_count_tries_one_nonzero_column_per_line_below_a_zero_prefix(monkeypatch):
    # members are closed under scaling, so column 0 is tried at zero and at
    # the least vector of each line, and that subtree counts q - 1 times
    from orbitref.oracle import _ColumnSearch

    g7 = FiniteField(7)
    sp = _space(g7, 2)
    search = _ColumnSearch(sp, sp.encode(Matrix.jordan_block(g7, 3, 2)))
    tried = []
    fits = _ColumnSearch._fits

    def spy(self, j, col, img):
        tried.append((j, col))
        return fits(self, j, col, img)

    monkeypatch.setattr(_ColumnSearch, "_fits", spy)
    assert search.count() == 295
    first = sorted(col for j, col in tried if j == 0)
    assert first == [0] + [v for v in search.allowed[0] if sp.least[v]]


def _orbit_masks_walk(sp, timg):
    """The per-vector walk that `_orbit_masks` replaced: for each x, the OR
    of the lines met along x -> Tx -> T^2 x -> ... up to the first repeat."""
    masks = []
    for x in range(sp.n):
        seen, m, y = set(), 0, timg[x]
        while y not in seen:
            seen.add(y)
            m |= sp.line[y]
            y = timg[y]
        masks.append(m)
    return masks


class _CountedReads(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("field,d", [(FiniteField(7), 2), (FiniteField(3), 3)])
def test_orbit_masks_match_the_per_vector_walk(field, d):
    from orbitref.oracle import _orbit_masks

    sp = _space(field, d)
    for T in _class_inputs(field, d):
        timg = _CountedReads(sp.vector_map(sp.encode(T)))
        masks = _orbit_masks(sp, timg)
        # one pass: each image is read once on the walk that meets it and
        # once more to fill a vector off the cycles
        assert timg.reads <= 2 * sp.n, T.to_strings()
        assert masks == _orbit_masks_walk(sp, timg), T.to_strings()


def test_member_slices_walk_only_the_members_they_return(monkeypatch):
    from orbitref.oracle import _ColumnSearch

    walks = []
    walk = _ColumnSearch._walk

    def spy(self, j, prefix, img):
        walks.append(j)
        return walk(self, j, prefix, img)

    monkeypatch.setattr(_ColumnSearch, "_walk", spy)
    g4, g2 = FiniteField(2, 2), FiniteField(2)
    equal = enumerate_orbref0(Matrix.from_values(g4, [[1, 1], [0, 1]]))
    assert equal.equal and equal.difference[:5] == ()
    assert walks == []
    shear = enumerate_orbref0(Matrix.from_values(g2, [[1, 1], [0, 1]]))
    assert shear.members[:0] == () and shear.difference[3:1] == ()
    assert walks == []
    assert [S.to_strings() for S in shear.difference[:3]] == [
        [["0", "0"], ["0", "1"]], [["0", "1"], ["0", "1"]]]
    assert walks
    assert shear.members[2::-1] == tuple(reversed(shear.members[:3]))


@pytest.mark.parametrize("field,d", [(FiniteField(3), 2), (FiniteField(2, 2), 2),
                                     (FiniteField(2), 3)])
def test_rigidity_violations_match_reference_search(field, d):
    tbl = _TupleArith(field)
    for T in _class_inputs(field, d):
        Tcols = tbl.encode(T)
        members, _, _, _ = _product_scan_reference(tbl, Tcols, d)
        expected = [tbl.decode(cols)
                    for cols in _rigidity_reference(tbl, Tcols, members, d)]
        assert rigidity_violations(T) == expected, T.to_strings()


def test_scaled_power_failing_the_checks_is_an_internal_error(monkeypatch):
    # the scaled orbit must pass the column checks in the listing and the
    # counting path alike, and under python -O too, where asserts vanish
    from orbitref import oracle
    from orbitref.errors import OrbitrefError

    monkeypatch.setattr(oracle, "_orbit_masks", lambda sp, timg: [1] * sp.n)
    g3 = FiniteField(3)
    with pytest.raises(OrbitrefError, match="scaled power"):
        enumerate_orbref0(Matrix.identity(g3, 2))
    with pytest.raises(OrbitrefError, match="scaled power"):
        scan_space(g3, 2, limit=2, cache_path=None)


# -- numeric residuals --------------------------------------------------------------

def _running_minima(T, S, x, N):
    """min over k <= n of dist(Sx, C * T^k x), for n = 0..N, by the witness
    report's kernel on the single column x."""
    X = np.asarray(x, dtype=complex)[:, None]
    return _residual_minima(to_ndarray(T), to_ndarray(S) @ X, X, range(N + 1))[:, 0]


def test_residual_scaled_power_hits_zero():
    T = Matrix.from_values(QQ, [[1, 1], [0, 2]])
    S = matpow(T, 5).scale(QQ.parse("3/7"))
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    minima = _running_minima(T, S, x, N=10)
    assert minima[4] > 1e-9
    assert minima[5] < 1e-9


def test_residual_zero_operator():
    T = Matrix.from_values(QQ, [[2, 0], [0, 3]])
    S = Matrix.zeros(QQ, 2)
    assert _running_minima(T, S, [1.0, 2.0], N=5)[0] == 0.0


def test_residual_witness_closed_form():
    T = Matrix.block_diag([Matrix.jordan_block(QQ, 1, 3),
                           Matrix.jordan_block(QQ, 1, 1)])
    S = Matrix.from_values(QQ, [[0] * 4, [0] * 4, [1, 1, 0, 0], [0] * 4])
    minima = _running_minima(T, S, [1.0, 0.0, 0.0, 0.0], N=1000)
    assert minima[-1] < 0.01
    # running minima are nonincreasing
    assert list(minima) == sorted(minima, reverse=True)


def test_residual_monotone_in_horizon():
    T = Matrix.jordan_block(QQ, 1, 2)
    S = Matrix.from_values(QQ, [[0, 0], [1, 1]])
    minima = _running_minima(T, S, [1.0, 1.0], N=500)
    assert minima[500] <= minima[100] <= minima[20]


# -- space scan ----------------------------------------------------------------------

def test_scan_counts_gf2_d2():
    g2 = FiniteField(2)
    res = scan_space(g2, 2, cache_path=None)
    assert res.total == 16
    assert res.counts["split"] + res.counts["nonsplit"] == 16
    # the shear is the only similarity class violating equality over GF(2)
    assert res.counts["split_not_equal"] > 0


def test_scan_dedup_matches_flat_scan():
    # one enumeration per scaling class gives every row the verdict of its
    # own enumeration
    for field, d in ((FiniteField(3), 2), (FiniteField(2, 2), 2),
                     (FiniteField(5), 2), (FiniteField(2), 3)):
        fast = scan_space(field, d, rigidity=True, cache_path=None, dedup=True)
        slow = scan_space(field, d, rigidity=True, cache_path=None, dedup=False)
        assert fast.as_dict() == slow.as_dict(), (field.q, d)


@pytest.mark.parametrize("field,d,enumerations", [
    (FiniteField(7), 2, 12), (FiniteField(3), 3, 22),
    pytest.param(FiniteField(2, 2), 3, 32, marks=pytest.mark.slow)],
    ids=["gf7-d2", "gf3-d3", "gf4-d3"])
def test_scan_enumerates_once_per_scaling_class(monkeypatch, field, d, enumerations):
    from orbitref import oracle

    calls = []
    enumerate_one = oracle._enumerate_one
    monkeypatch.setattr(oracle, "_enumerate_one",
                        lambda payload: calls.append(payload) or enumerate_one(payload))
    scan_space(field, d, workers=1, cache_path=None)
    assert len(calls) == enumerations


def test_scan_workers_deterministic():
    g3 = FiniteField(3)
    results = [scan_space(g3, 2, cache_path=None, workers=w).as_dict()
               for w in (1, 2, 8)]
    assert results[0] == results[1] == results[2]


def _spy_pools(monkeypatch):
    """The pools the scans start, as True for a fork pool and False for
    none."""
    from contextlib import nullcontext

    from orbitref import oracle

    started = []
    pool = oracle._pool

    def spy(*args):
        chosen = pool(*args)
        started.append(not isinstance(chosen, nullcontext))
        return chosen

    monkeypatch.setattr(oracle, "_pool", spy)
    return started


def test_scan_fork_path_deterministic(monkeypatch):
    # a lowered threshold makes a small space fork; every worker count
    # gives the report of one process
    from orbitref import oracle

    monkeypatch.setattr(oracle, "_FORK_MIN_WORK", 1)
    started = _spy_pools(monkeypatch)
    results = [scan_space(FiniteField(3), 2, rigidity=True, cache_path=None,
                          workers=w).as_dict() for w in (1, 2, 8)]
    assert started == [False, True, True]
    assert results[0] == results[1] == results[2]


def test_scan_pool_is_capped_at_usable_cpus(monkeypatch):
    # a fake context records the pool a scan asks for and maps in-process,
    # so a huge worker count starts no real pool; the scan may ask for no
    # more processes than it has CPUs, nor cut more than 4 blocks per CPU
    import multiprocessing
    from types import SimpleNamespace

    from orbitref import oracle

    sizes = []

    class Pool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return list(map(fn, payloads))

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    monkeypatch.setattr(oracle, "_FORK_MIN_WORK", 1)
    blocks = []
    classify_chunk = oracle._classify_chunk
    monkeypatch.setattr(oracle, "_classify_chunk",
                        lambda payload: blocks.append(payload) or classify_chunk(payload))
    g3 = FiniteField(3)
    wide = scan_space(g3, 2, rigidity=True, cache_path=None, workers=10 ** 6)
    cpus = len(os.sched_getaffinity(0))
    assert all(size <= cpus for size in sizes)
    assert len(blocks) <= 4 * cpus
    assert wide.as_dict() == scan_space(g3, 2, rigidity=True, cache_path=None).as_dict()


def test_scan_small_space_starts_no_pool(monkeypatch):
    # M2(GF(7)) has 2401 matrices: the pool would cost more than it saves
    started = _spy_pools(monkeypatch)
    scan_space(FiniteField(7), 2, cache_path=None, workers=2)
    assert started == [False]


def test_scan_cache_resume(tmp_path):
    g2 = FiniteField(2)
    cache = str(tmp_path / "scan.jsonl")
    first = scan_space(g2, 2, cache_path=cache)
    assert first.from_cache == 0
    second = scan_space(g2, 2, cache_path=cache)
    assert second.from_cache == second.scanned == first.scanned
    assert second.counts == first.counts


def test_scan_cache_rows_carry_their_field(tmp_path):
    # GF(9) under the stock modulus and under x^2+1 number the same indices
    # as different matrices, so neither may serve the other's rows
    cache = str(tmp_path / "scan.jsonl")
    stock = scan_space(FiniteField(3, 2), 2, limit=20, cache_path=cache)
    assert stock.from_cache == 0
    other = FiniteField(3, 2, (1, 0, 1))
    rescan = scan_space(other, 2, limit=20, cache_path=cache)
    fresh = scan_space(other, 2, limit=20, cache_path=None)
    assert rescan.from_cache == 0
    assert rescan.counts == fresh.counts
    assert scan_space(other, 2, limit=20, cache_path=cache).from_cache == 20


def _parent_layout(text: str) -> str:
    """Cache lines rewritten in the earlier layout, which also stored q,
    the hash of each row's matrix and whether orbref0 equals forb."""
    from orbitref.oracle import matrix_hash

    out = []
    for line in text.splitlines():
        scan = json.loads(line)
        q, d = scan["p"] ** scan["k"], scan["d"]
        out.append(json.dumps({
            **scan, "q": q,
            "hash": [matrix_hash(q, d, to_digits(i, q, d * d)) for i in scan["i"]],
            "equal": [o == f for o, f in zip(scan["orbref0"], scan["forb"])]}))
    return "\n".join(out) + "\n"


def test_load_cache_serves_only_valid_rows(tmp_path):
    # a cache may hold partial writes, foreign lines, old layouts and hand
    # edits; the loader serves exactly the valid rows of its field and
    # dimension
    from orbitref.oracle import _COLUMNS, _load_cache

    g3 = FiniteField(3)
    cache = tmp_path / "scan.jsonl"
    scan_space(g3, 2, limit=4, rigidity=True, cache_path=str(cache))
    [good] = cache.read_text().splitlines()
    scan = json.loads(good)
    assert scan["i"] == [0, 1, 2, 3]

    def part(positions, drop=(), **changes):
        """The line of the rows at these positions, edited."""
        line = {f: [v[n] for n in positions] if f in ("i",) + _COLUMNS else v
                for f, v in scan.items() if f not in drop}
        return json.dumps({**line, **changes})

    def row(n, rigidity_ok):
        return tuple(scan[f][n] for f in _COLUMNS[:-1]) + (rigidity_ok,)

    one = part([1])
    lines = [
        part([0]),
        "",
        "not json",
        "[1]",                                          # JSON, but no object
        one + " 42",                                    # trailing garbage
        part([1], d=3),                                 # another dimension
        part([1], p=5),                                 # another field
        part([1], drop=("p", "k", "modulus")),          # no field named
        part([2], rigidity_ok=[None]),                  # unrated
        part([3], drop=("rigidity_ok",)),               # no rigidity_ok column
        part([1], drop=("i",)),                         # no index column
        part([1], drop=("forb",)),                      # no scaled-orbit column
        part([1], orbref0=scan["orbref0"][1:3]),        # columns of unequal length
        part([1], split=True),                          # a column that is no list
        part([1], i=[[1]]),                             # an index that is no integer
        part([1], i=[True]),
        part([1], split=["no"], nilpotent=[1], orbref0=["x"],  # values of no
             forb=[[1]], rigidity_ok=[None]),                   # column's type
        part([1], split=[1]),                           # a flag that is no bool
        part([1], nilpotent=[None]),
        part([1], orbref0=["9"]),                       # a count that is no int
        part([1], forb=[True]),
        part([1], forb=[1.0]),
        part([1], orbref0=[1], forb=[2]),               # forb larger than OrbRef0
        part([1], orbref0=[0], forb=[0]),               # forb without the zero matrix
        part([1], rigidity_ok=[0]),                     # a verdict that is no bool
        json.dumps({**json.loads(one), "i": 1,          # the old per-matrix layout
                    **{f: scan[f][1] for f in _COLUMNS}}),
        one[:len(one) // 2],                            # a partial last write
    ]
    cache.write_text("\n".join(lines))
    assert _load_cache(str(cache), g3, 2, False) == {
        0: row(0, scan["rigidity_ok"][0]), 2: row(2, None), 3: row(3, None)}
    assert _load_cache(str(cache), g3, 2, True) == {0: row(0, scan["rigidity_ok"][0])}
    # the earlier layout also stored q, each row's hash and equal; the
    # loader ignores them and serves the same rows
    cache.write_text(_parent_layout(good))
    assert _load_cache(str(cache), g3, 2, True) == {n: row(n, scan["rigidity_ok"][n])
                                                    for n in range(4)}


def test_cache_line_holds_only_underived_fields_and_scan_hashes_printed_rows(
        tmp_path, monkeypatch):
    # a row's hash, its equal flag and the line's q follow from other
    # fields, so the line leaves them out, and only the rows the report
    # prints are hashed: on a cold scan with or without a cache line, and
    # on a re-query
    import sys

    from orbitref import oracle

    callers = []
    matrix_hash = oracle.matrix_hash

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return matrix_hash(*args)

    monkeypatch.setattr(oracle, "matrix_hash", spy)
    cache = tmp_path / "scan.jsonl"
    g7 = FiniteField(7)
    for path, from_cache in ((None, 0), (str(cache), 0), (str(cache), 2401)):
        callers.clear()
        res = scan_space(g7, 2, cache_path=path)
        assert res.from_cache == from_cache
        assert len(res.violations) + len(res.rigidity_violations) == len(callers) == 288
        assert "_classify_chunk" not in callers
    [line] = cache.read_text().splitlines()
    assert set(json.loads(line)) == {"p", "k", "modulus", "d", "i", "split", "nilpotent",
                                     "orbref0", "forb", "rigidity_ok"}


@pytest.mark.parametrize("rigidity", [False, True])
def test_scan_serves_a_cache_of_the_earlier_layout(tmp_path, rigidity):
    # a re-query served in full from lines that still carry q, hash and
    # equal gives the report of a scan without cache
    g5 = FiniteField(5)
    cache = tmp_path / "scan.jsonl"
    scan_space(g5, 2, rigidity=rigidity, cache_path=str(cache))
    cache.write_text(_parent_layout(cache.read_text()))
    again = scan_space(g5, 2, rigidity=rigidity, cache_path=str(cache))
    assert again.from_cache == again.scanned == 625
    fresh = scan_space(g5, 2, rigidity=rigidity, cache_path=None)
    assert again.as_dict() | {"cache": None, "from_cache": 0} == fresh.as_dict()
    assert fresh.violations and (fresh.rigidity_violations or not rigidity)


def test_scan_rescans_rows_of_the_per_matrix_layout(tmp_path):
    # a cache written one line per matrix is a miss: the index is scanned
    # again once, and the scan's own line serves the next re-query
    g3 = FiniteField(3)
    cache = tmp_path / "scan.jsonl"
    # the zero matrix, with a verdict the scan never gives: served, it
    # would change the counts
    cache.write_text(json.dumps({
        "d": 2, "equal": False, "forb": 1, "hash": "0c1b0a8e0a3a3a43", "i": 0,
        "k": 1, "modulus": None, "nilpotent": True, "orbref0": 2, "p": 3, "q": 3,
        "rigidity_ok": None, "split": True}) + "\n")
    first = scan_space(g3, 2, cache_path=str(cache))
    assert first.from_cache == 0
    assert first.as_dict() | {"cache": None} == scan_space(g3, 2, cache_path=None).as_dict()
    again = scan_space(g3, 2, cache_path=str(cache))
    assert again.from_cache == again.scanned == 81
    assert again.counts == first.counts


def test_scan_cache_survives_a_torn_last_write(tmp_path):
    # a write cut short leaves a line with no newline; the next scan's line
    # starts on a line of its own, so only the torn line is lost
    g3 = FiniteField(3)
    cache = tmp_path / "scan.jsonl"
    scan_space(g3, 2, limit=20, cache_path=str(cache))
    whole = cache.read_text()
    cache.write_text(whole + whole[:len(whole) // 2])
    assert scan_space(g3, 2, cache_path=str(cache)).from_cache == 20
    again = scan_space(g3, 2, cache_path=str(cache))
    assert again.from_cache == again.scanned == 81


def test_scan_nilpotent_filter_and_rigidity():
    g3 = FiniteField(3)
    res = scan_space(g3, 2, nilpotent_only=True, rigidity=True, cache_path=None)
    assert res.scanned == 9  # q^(d^2-d) nilpotent matrices
    assert res.counts["nilpotent"] == 9
    assert res.counts["split_not_equal"] == 0
    assert res.counts["rigidity_violating"] == 0


@pytest.mark.parametrize("field,checked,violating", [(FiniteField(3), 81, 46),
                                                      (FiniteField(2, 2), 256, 177)])
def test_scan_full_space_rigidity_counts(field, checked, violating):
    # the counts the member x vector x power x beta search gave
    res = scan_space(field, 2, rigidity=True, cache_path=None)
    assert res.counts["rigidity_checked"] == checked
    assert res.counts["rigidity_violating"] == violating


M3_GF3_COUNTS = {
    "split": 9909, "split_equal": 4293, "split_not_equal": 5616,
    "nonsplit": 9774, "nonsplit_equal": 0, "nonsplit_not_equal": 9774,
    "nilpotent": 729, "nilpotent_equal": 105,
}


@pytest.mark.parametrize("rigidity,checked,violating", [(False, 0, 0),
                                                        (True, 19683, 19108)])
def test_scan_m3_gf3_full_space_counts(rigidity, checked, violating):
    # the counts the product scan gave on the full space
    res = scan_space(FiniteField(3), 3, rigidity=rigidity, workers=2, cache_path=None)
    assert res.scanned == 19683
    assert res.counts == {**M3_GF3_COUNTS, "rigidity_checked": checked,
                          "rigidity_violating": violating}
    assert len(res.violations) == 5616


@pytest.mark.slow
def test_scan_m3_gf4_full_space_counts():
    # the counts the product scan gave on the full space (some 510 s there)
    res = scan_space(FiniteField(2, 2), 3, workers=2, cache_path=None)
    assert res.scanned == 262144
    assert res.counts == {
        "split": 107776, "split_equal": 103996, "split_not_equal": 3780,
        "nonsplit": 154368, "nonsplit_equal": 5760, "nonsplit_not_equal": 148608,
        "nilpotent": 4096, "nilpotent_equal": 316,
        "rigidity_checked": 0, "rigidity_violating": 0,
    }


def test_matrix_from_scan_index_round_trip():
    # scan index -> matrix: its row-major element indices are the index's
    # digits, so every index gives a different matrix
    for field, d in ((FiniteField(2), 2), (FiniteField(2, 2), 2), (FiniteField(2), 3)):
        for i in range(field.q ** (d * d)):
            M = _scan_matrix(field, d, i)
            digits = [s.value for row in M.rows for s in row]
            assert digits == list(to_digits(i, field.q, d * d))


def test_scan_d1_all_equal():
    # every 1x1 matrix is trivially settled by the enumeration itself
    g3 = FiniteField(3)
    res = scan_space(g3, 1, cache_path=None)
    assert res.total == 3
    assert res.counts["split_not_equal"] == 0
    assert res.counts["nonsplit"] == 0


def _poly_at(coeffs, M):
    """sum_i c_i M^i for coefficients from the constant term up."""
    acc = Matrix.zeros(M.field, M.n)
    for i, c in enumerate(coeffs):
        acc = acc + matpow(M, i).scale(c)
    return acc


@pytest.mark.parametrize("field,d", [(FiniteField(p, k), 2) for p, k in
                                     ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
                         + [(FiniteField(2), 3),
                            pytest.param(FiniteField(3), 3, marks=pytest.mark.slow)],
                         ids=["gf2-d2", "gf3-d2", "gf4-d2", "gf5-d2", "gf7-d2", "gf8-d2",
                              "gf9-d2", "gf2-d3", "gf3-d3"])
def test_gf_ring_kernels_match_brute_force(field, d):
    # on every matrix of the space, char_poly on the GF(q) ring equals the
    # scan's table Berkowitz, and each power_ranks value rank(A^k) of
    # A = M - lam I, for lam = 0 and each eigenvalue, is d - log_q |ker A^k|
    # with the kernel counted over all q^d vectors
    from orbitref import char_poly, eigenvalues
    from orbitref.linalg import power_ranks

    sp, q, eye = _space(field, d), field.q, Matrix.identity(field, d)
    for idx in range(q ** (d * d)):
        digits = to_digits(idx, q, d * d)
        M = _scan_matrix(field, d, idx)
        cp = tuple(c.value for c in reversed(char_poly(M).coeffs))
        assert cp == _char_poly_int(sp, digits)
        roots = [lam for lam, _ in eigenvalues(M).roots]
        for lam in [field.zero()] + roots:
            img = sp.vector_map(sp.encode(M - eye.scale(lam)))
            ranks = power_ranks(M, lam)
            vec = range(sp.n)  # A^k x for every x, from k = 0
            for _ in range(d):
                vec = [img[v] for v in vec]
                kernel = vec.count(0)
                assert q ** (d - next(ranks)) == kernel
            assert lam not in roots or kernel > 1  # an eigenvalue has eigenvectors


def test_int_kernel_polynomials_match_matrix_level():
    # the scan's table-encoded char poly agrees with char_poly and
    # annihilates M
    import random

    from orbitref import char_poly
    rng = random.Random(9)
    for field in (FiniteField(2), FiniteField(3), FiniteField(2, 2)):
        els = field.elements()
        for d in (1, 2, 3, 4):
            sp = _space(field, d)
            for _ in range(20):
                M = Matrix(field, [[els[rng.randrange(len(els))]
                                    for _ in range(d)] for _ in range(d)])
                digits = [s.value for row in M.rows for s in row]
                cp_int = _char_poly_int(sp, digits)
                cp = char_poly(M)
                assert [els[c] for c in reversed(cp_int)] == list(cp.coeffs)
                assert _poly_at(cp.coeffs, M).is_zero  # Cayley-Hamilton


@pytest.mark.parametrize("field,d", [(FiniteField(2, 2), 2), (FiniteField(2), 3)],
                         ids=["gf4-d2", "gf2-d3"])
def test_classify_split_matches_eigenvalues(field, d):
    # the scan's split flag, from its table Berkowitz, and eigenvalues()
    # run one root kernel; they agree on every matrix of the space
    from orbitref import eigenvalues
    from orbitref.oracle import _classify_chunk

    total = field.q ** (d * d)
    rows = _classify_chunk((field, d, 0, total, False))
    assert [row[0] for row in rows] == list(range(total))
    flags = [row[2] for row in rows]
    assert flags == [eigenvalues(_scan_matrix(field, d, idx)).split
                     for idx in range(total)]
    assert True in flags and False in flags


@pytest.mark.parametrize("field,d", [(FiniteField(p, k), 2) for p, k in
                                     ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
                         + [(FiniteField(2), 3), (FiniteField(3), 3)],
                         ids=["gf2-d2", "gf3-d2", "gf4-d2", "gf5-d2", "gf7-d2", "gf8-d2",
                              "gf9-d2", "gf2-d3", "gf3-d3"])
def test_classify_square_free_shortcut_keeps_every_key(field, d):
    # the classify pass runs no elimination for a char poly without a
    # repeated root; every key must still be the pair of the char poly and
    # the rank at its repeated root, or None, as the matrix-level lanes
    # give them
    from orbitref.oracle import _classify_chunk

    total = field.q ** (d * d)
    rows = _classify_chunk((field, d, 0, total, False))
    assert [row[0] for row in rows] == list(range(total))
    for idx, key, _, _ in rows:
        assert key == _reference_key(field, d, idx), idx


def _gl_generators(field, d):
    """A generating set of GL_d(q) as (P, P^-1) pairs of element-index rows:
    the transvections I + c E_ij for i != j and c over the GF(p)-basis
    1, x, ..., x^(k-1) of GF(q), and diag(g, 1, ..., 1) for a primitive g.
    Index 0 is the field's zero, index 1 its one, and x^e has index p^e."""

    def order(g):
        n, y = 1, g
        while y != 1:
            n, y = n + 1, field._mul(y, g)
        return n

    def identity():
        return [[int(r == s) for s in range(d)] for r in range(d)]

    pairs = []
    for c in (field.p ** e for e in range(field.k)):
        for i, j in permutations(range(d), 2):
            P, Pinv = identity(), identity()
            P[i][j], Pinv[i][j] = c, field._neg(c)
            pairs.append((P, Pinv))
    g = next(g for g in range(1, field.q) if order(g) == field.q - 1)
    P, Pinv = identity(), identity()
    P[0][0], Pinv[0][0] = g, field._div(1, g)
    return pairs + [(P, Pinv)]


@pytest.mark.parametrize("field,d", [(FiniteField(p, k), 2) for p, k in
                                     ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
                         + [(FiniteField(2), 3), (FiniteField(3), 3),
                            pytest.param(FiniteField(2, 2), 3, marks=pytest.mark.slow)],
                         ids=["gf2-d2", "gf3-d2", "gf4-d2", "gf5-d2", "gf7-d2", "gf8-d2",
                              "gf9-d2", "gf2-d3", "gf3-d3", "gf4-d3"])
def test_classify_key_fixes_similarity_class(field, d):
    # the key (char poly, rank at its repeated root) is unchanged by
    # conjugation with each generator of GL_d(q), so it is constant on
    # similarity classes; and it takes q^d + ... + q values, the number of
    # classes of M_d(GF(q)), so no two classes share a key
    from orbitref.oracle import _classify_chunk

    q = field.q
    total = q ** (d * d)
    ids: dict = {}
    key_id = np.array([ids.setdefault(key, len(ids))
                       for _, key, _, _ in _classify_chunk((field, d, 0, total, False))])
    assert len(ids) == sum(q ** e for e in range(1, d + 1))
    add, mul, _ = _space(field, d).gathers

    def matmul(A, B):
        out = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                for t in range(d):
                    out[i][j] = add[out[i][j], mul[A[i][t], B[t][j]]]
        return out

    idx = np.arange(total)
    T = [[idx // q ** (i * d + j) % q for j in range(d)] for i in range(d)]
    for P, Pinv in _gl_generators(field, d):
        conj = matmul(matmul(P, T), Pinv)
        code = sum(conj[i][j] * q ** (i * d + j) for i in range(d) for j in range(d))
        assert (key_id[code] == key_id).all(), (P, Pinv)


@pytest.mark.parametrize("field,d,start,stop,nilpotent_only", [
    (FiniteField(3), 2, 17, 60, False),
    (FiniteField(2, 2), 2, 100, 101, False),    # one index
    (FiniteField(5), 1, 0, 5, False),
    (FiniteField(3, 2), 1, 0, 9, True),
    (FiniteField(2, 3), 2, 3000, 4096, True),
    (FiniteField(2), 3, 200, 512, True),
    (FiniteField(3), 3, 19000, 19683, False),
    (FiniteField(3, 2), 3, 9 ** 9 - 40, 9 ** 9, False),   # the highest digits
], ids=["gf3-d2", "gf4-d2-one", "gf5-d1", "gf9-d1-nil", "gf8-d2-nil", "gf2-d3-nil",
        "gf3-d3", "gf9-d3-top"])
def test_classify_block_matches_per_matrix_reference(field, d, start, stop, nilpotent_only):
    # the block Berkowitz gives each matrix the row of the per-matrix path
    from orbitref.linalg import _finite_ring
    from orbitref.oracle import _classify_chunk, _cp_facts

    sp, q, ring = _space(field, d), field.q, _finite_ring(field)
    expect = []
    for idx in range(start, stop):
        digits = to_digits(idx, q, d * d)
        cp = _char_poly_int(sp, digits)
        split, nil, _ = _cp_facts(ring, cp)
        if nil or not nilpotent_only:
            expect.append((idx, _reference_key(field, d, idx), split, nil))
    assert expect
    assert _classify_chunk((field, d, start, stop, nilpotent_only)) == expect


@pytest.mark.parametrize("field,d", [(FiniteField(p, k), 2) for p, k in
                                     ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
                         + [(FiniteField(2), 3), (FiniteField(3), 3)],
                         ids=["gf2-d2", "gf3-d2", "gf4-d2", "gf5-d2", "gf7-d2", "gf8-d2",
                              "gf9-d2", "gf2-d3", "gf3-d3"])
def test_enumeration_is_constant_on_scaling_classes(field, d):
    # lam T has the OrbRef0, scaled orbit and rigidity verdict of T, so
    # every similarity class of one scaling class enumerates alike
    from orbitref.linalg import _finite_ring
    from orbitref.oracle import _classify_chunk, _enumerate_one, _scaling_class

    mul = _finite_ring(field).mul
    reps = {}
    for idx, key, _, _ in _classify_chunk((field, d, 0, field.q ** (d * d), False)):
        reps.setdefault(key, idx)
    verdicts = {}
    for key, idx in reps.items():
        verdicts.setdefault(_scaling_class(mul, field.q, key), set()).add(
            _enumerate_one((field, d, idx, True)))
    assert all(len(found) == 1 for found in verdicts.values())
    if field.q > 2:
        assert len(verdicts) < len(reps)


@pytest.mark.slow
def test_scan_gf9_full_space():
    # the extension-field equality over GF(9): every 2x2 matrix with split
    # minimal polynomial has OrbRef0 equal to its scaled power orbit
    g9 = FiniteField(3, 2)
    res = scan_space(g9, 2, workers=4, cache_path=None)
    assert res.total == 6561
    assert res.counts["split_not_equal"] == 0
