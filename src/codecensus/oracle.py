"""Brute-force ground truth at small n.

Subspaces of GF(2)^n are held as tuples of int bitmasks in reduced row
echelon form (bit i = coordinate i), so equality of subspaces is tuple
equality.  Everything here is deliberately naive: explicit enumeration,
explicit permutation action, explicit linear algebra.  The module imports
nothing from the rest of the package, so the fast path is checked against
code it shares nothing with.

rref is the one GF(2) bitmask elimination: it gives every rank, the
canonical basis of every subspace and the linear relation that is the
minimal polynomial of a permutation operator.  _reduce and _k_rank are the
GF(Q) elimination of the nilpotent census.  A permutation acts through its
image tuple, and its operator's powers are the powers of the permutation;
general matrices appear only in _gl_cycle_lengths, which walks GL(d,2).
Nothing is random: factor_cyclic splits t^u - 1 by gcds with the sums of
t^i over the 2-cyclotomic cosets mod u, in one deterministic pass.

The one shortcut is in the nilpotent submodule census: it fills each
echelon basis row by row, from the last pivot to the first, and drops a
partial basis as soon as the image of one of its rows lies outside the
span.  The rows already filled decide that, since the nilpotent operator
moves each coordinate down by one, so no invariant subspace is dropped.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

ENUM_CEILING = 7      # 29212 subspaces at n=7
CLASSIFY_CEILING = 5  # 374 subspaces x 120 permutations at n=5
MINPOLY_CEILING = 16
SLEPIAN_MAX_DIM = 4    # |GL(4,2)| = 20160 matrices; |GL(5,2)| = 9999360 is too many
NILPOTENT_CEILING = 565723  # G(6, 4), the subspaces of GF(4)^6


def rref(rows, n):
    """Canonical reduced-row-echelon basis of the span of `rows`."""
    work = [r for r in rows if r]
    basis = []
    for col in range(n):
        pivot = None
        for i, r in enumerate(work):
            if (r >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        p = work.pop(pivot)
        work = [r ^ p if (r >> col) & 1 else r for r in work]
        basis = [b ^ p if (b >> col) & 1 else b for b in basis]
        basis.append(p)
    return tuple(basis)


@lru_cache(maxsize=None)
def enum_subspaces(n: int):
    """All subspaces of GF(2)^n, each once, as canonical RREF tuples.

    Generated directly in echelon form: choose pivot columns, then all
    assignments of the free entries.
    """
    if not 1 <= n <= ENUM_CEILING:
        raise ValueError(f"n must be in [1, {ENUM_CEILING}], got {n}")
    subspaces = [()]
    for d in range(1, n + 1):
        for pivots in combinations(range(n), d):
            pivot_set = set(pivots)
            free = [
                [c for c in range(n) if c > pivots[j] and c not in pivot_set]
                for j in range(d)
            ]
            cells = [(j, c) for j in range(d) for c in free[j]]
            for bits in product((0, 1), repeat=len(cells)):
                rows = [1 << p for p in pivots]
                for (j, c), bit in zip(cells, bits):
                    if bit:
                        rows[j] |= 1 << c
                subspaces.append(tuple(rows))
    return tuple(subspaces)


def apply_perm(subspace, perm, n):
    """Image of a subspace under the permutation operator (re-canonicalized).

    perm is 0-indexed: perm[i] is the image of coordinate i, so the operator
    perm_operator(perm) sends e_i to e_{perm[i]}, and bit perm[i] of a moved
    vector is bit i of the original.
    """
    T = perm_operator(perm)
    return rref([map_apply(T, v) for v in subspace], n)


def perm_from_cycle_type(parts):
    """A concrete permutation (0-indexed image tuple) with the given cycle
    lengths."""
    images = []
    start = 0
    for length in parts:
        images.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return tuple(images)


def invariant_count(perm) -> int:
    """Number of subspaces fixed by the permutation."""
    n = len(perm)
    count = 0
    for s in enum_subspaces(n):
        if apply_perm(s, perm, n) == s:
            count += 1
    return count


class Orbit(namedtuple("Orbit", "dim size stabilizer_order representative")):
    __slots__ = ()


class OrbitReport(namedtuple("OrbitReport", "n b by_dim orbits beta nonrigid_by_dim")):
    """beta is the fraction of non-rigid subspaces, nonrigid_by_dim the
    fractions alpha(n, d), each a (num, den) pair."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "b": self.b,
            "by_dim": list(self.by_dim),
            "beta": {"num": self.beta[0], "den": self.beta[1]},
            "nonrigid_by_dim": [
                {"d": d, "num": f[0], "den": f[1]}
                for d, f in enumerate(self.nonrigid_by_dim)
            ],
            "orbits": [
                {
                    "id": i,
                    "dim": o.dim,
                    "size": o.size,
                    "stabilizer_order": o.stabilizer_order,
                }
                for i, o in enumerate(self.orbits)
            ],
        }


def classify(n: int) -> OrbitReport:
    """Partition all subspaces of GF(2)^n into coordinate-permutation
    orbits by applying every one of the n! permutations."""
    if not 1 <= n <= CLASSIFY_CEILING:
        raise ValueError(f"n must be in [1, {CLASSIFY_CEILING}], got {n}")
    perms = list(permutations(range(n)))
    nfact = factorial(n)
    seen = set()
    orbits = []
    for s in enum_subspaces(n):
        if s in seen:
            continue
        orbit = {apply_perm(s, p, n) for p in perms}
        seen |= orbit
        rep = min(orbit)
        orbits.append(Orbit(
            dim=len(s),
            size=len(orbit),
            stabilizer_order=nfact // len(orbit),
            representative=rep,
        ))
    orbits.sort(key=lambda o: (o.dim, o.representative))
    by_dim = [0] * (n + 1)
    nonrigid_count = [0] * (n + 1)
    total_by_dim = [0] * (n + 1)
    nonrigid_total = 0
    for o in orbits:
        by_dim[o.dim] += 1
        total_by_dim[o.dim] += o.size
        if o.stabilizer_order >= 2:
            nonrigid_count[o.dim] += o.size
            nonrigid_total += o.size
    total = len(enum_subspaces(n))
    return OrbitReport(
        n=n,
        b=len(orbits),
        by_dim=tuple(by_dim),
        orbits=tuple(orbits),
        beta=(nonrigid_total, total),
        nonrigid_by_dim=tuple(
            (nonrigid_count[d], total_by_dim[d]) for d in range(n + 1)
        ),
    )


# ---------------------------------------------------------------------------
# GF(2)[t] arithmetic (product, division, gcd) and the factoring of t^u - 1
# by gcds with the cyclotomic coset sums: the reference that the cyclotomic
# split of the fast path (cyclestruct.cyclotomic_split) is tested against.
# A polynomial is an int whose bit i is the coefficient of t^i, so t+1 is
# 0b11 and the zero polynomial is 0.


def degree(p: int) -> int:
    """Degree of p; -1 for the zero polynomial."""
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product."""
    result = 0
    while b:
        low = b & -b
        result ^= a << (low.bit_length() - 1)
        b ^= low
    return result


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = degree(b)
    quo = 0
    while degree(a) >= db:
        shift = degree(a) - db
        quo ^= 1 << shift
        a ^= b << shift
    return quo, a


def poly_mod(a: int, b: int) -> int:
    return poly_divmod(a, b)[1]


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def cyclotomic_cosets(u: int) -> list[frozenset[int]]:
    """The 2-cyclotomic cosets mod u (u odd), sorted by smallest member."""
    if u < 1 or u % 2 == 0:
        raise ValueError(f"u must be odd and >= 1, got {u}")
    seen = [False] * u
    cosets = []
    for a in range(u):
        if seen[a]:
            continue
        coset = set()
        x = a
        while x not in coset:
            coset.add(x)
            seen[x] = True
            x = (2 * x) % u
        cosets.append(frozenset(coset))
    return cosets


@lru_cache(maxsize=None)
def factor_cyclic(u: int) -> tuple[int, ...]:
    """Distinct irreducible factors of t^u - 1 over GF(2), u odd, by gcds
    with the 2-cyclotomic coset sums (E. R. Berlekamp, "Factoring
    polynomials over finite fields", Bell Syst. Tech. J. 46, 1967).

    For u odd, t^u - 1 is squarefree, so GF(2)[t] / (t^u - 1) is the
    product of the fields GF(2)[t] / (f) over its irreducible factors f, and
    v is idempotent (v^2 = v) exactly when v mod f is 0 or 1 for every f.
    Squaring sends v = sum a_i t^i to sum a_i t^(2i mod u), so v^2 = v
    exactly when a_i = a_(2i mod u): the idempotents are the sums of the
    coset sums v_C = sum_{i in C} t^i.  For two distinct factors f and g,
    some idempotent is 0 mod f and 1 mod g; if every v_C took one value
    mod both, so would every sum of them, so some v_C separates f from g.
    Every factor h found so far is split into gcd(h, v_C), the product of
    the f | h with v_C = 0 mod f, and h / gcd(h, v_C); after one pass over
    the cosets no factor holds two irreducibles, so each is irreducible.

    Returned sorted by (degree, bit pattern); t+1 is always present.  The
    result is verified by re-multiplication and against the degree multiset
    of the cosets, and memoized.
    """
    cosets = cyclotomic_cosets(u)  # raises ValueError unless u is odd
    target = (1 << u) | 1  # t^u + 1 = t^u - 1 in characteristic 2
    factors = [target]
    for coset in cosets:
        v = sum(1 << i for i in coset)
        split = []
        for h in factors:
            g = poly_gcd(h, v)
            split.extend(p for p in (g, poly_divmod(h, g)[0]) if degree(p) > 0)
        factors = split

    factors.sort(key=lambda p: (degree(p), p))
    prod = 1
    for p in factors:
        prod = poly_mul(prod, p)
    if prod != target:
        raise ArithmeticError(f"factorization of t^{u} - 1 failed verification")
    if sorted(degree(p) for p in factors) != sorted(len(c) for c in cosets):
        raise ArithmeticError(f"factor degrees disagree with cosets for u={u}")
    return tuple(factors)


def irreducibles_of_order(e: int) -> tuple[int, ...]:
    """Irreducible factors of t^e - 1 of order exactly e (e odd): those that
    divide no t^f - 1 with f | e, f < e.  They are the factors of the e-th
    cyclotomic polynomial; sorted as factor_cyclic sorts them."""
    lower = set()
    for f in range(1, e, 2):
        if e % f == 0:
            lower.update(factor_cyclic(f))
    return tuple(p for p in factor_cyclic(e) if p not in lower)


# ---------------------------------------------------------------------------
# a permutation's operator T(e_i) = e_{perm[i]}: its power T^k is the
# permutation perm^k, and its minimal polynomial is found by rref


def perm_operator(perm):
    """The linear map T(e_i) = e_{perm[i]} as a tuple of column bitmasks."""
    n = len(perm)
    cols = [0] * n
    for i in range(n):
        cols[i] = 1 << perm[i]
    return tuple(cols)


def map_apply(cols, v):
    w = 0
    i = 0
    while v:
        if v & 1:
            w ^= cols[i]
        v >>= 1
        i += 1
    return w


def minimal_polynomial(perm):
    """Factored minimal polynomial of the permutation operator T over GF(2).

    Returns a list of (irreducible, exponent, kernel dimension) triples,
    the last being the dimension of ker(p(T)^exponent).  T^k is the
    permutation perm^k, written as the n*n-bit row with bit i*n + perm^k(i)
    set and tagged with bit n*n + k.  The minimal polynomial is the first
    linear relation among I, T, T^2, ...: once the rows of I .. T^k are
    dependent, rref (the module's one GF(2) elimination) leaves one basis
    row with no low n*n bits, and its tag bits are the coefficients.  A
    polynomial q(T) sends e_i to the sum of e_{perm^j(i)} over the terms
    t^j of q, and its kernel dimension is n minus the rank of those
    columns.  Factorization is by trial division in increasing bit order,
    independent of the cyclotomic machinery.
    """
    n = len(perm)
    if n > MINPOLY_CEILING:
        raise ValueError(f"n must be <= {MINPOLY_CEILING}, got {n}")
    low = (1 << n * n) - 1
    powers = [tuple(range(n))]  # powers[k] is perm^k
    rows = []
    while True:
        k = len(rows)
        rows.append(sum(1 << i * n + j for i, j in enumerate(powers[k])) | 1 << n * n + k)
        minpoly = next((r >> n * n for r in rref(rows, n * n + k + 1) if not r & low), 0)
        if minpoly:
            break
        powers.append(tuple(perm[j] for j in powers[k]))

    factors = []
    rest = minpoly
    p = 2  # start at the polynomial t
    while degree(rest) > 0:
        quo, rem = poly_divmod(rest, p)
        if rem == 0:
            exp, q = 0, 1  # q = p^exp
            while rem == 0:
                rest = quo
                exp, q = exp + 1, poly_mul(q, p)
                quo, rem = poly_divmod(rest, p)
            cols = [map_apply([1 << pw[i] for pw in powers], q) for i in range(n)]
            factors.append((p, exp, n - len(rref(cols, n))))
        else:
            p += 1
    return factors


# ---------------------------------------------------------------------------
# brute-force submodule census for a nilpotent Jordan operator over GF(2)
# or GF(4) (elements 0..3 with 2 = w, 3 = w+1; addition is XOR)

_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def _field_tables(Q):
    if Q == 2:
        return ((0, 0), (0, 1))
    if Q == 4:
        return _GF4_MUL
    raise ValueError(f"Q must be 2 or 4, got {Q}")


def _reduce(v, rows, pivots, mul):
    """What is left of v after clearing, row by row in the order given, its
    entry at each row's pivot.  Each row has a 1 at its pivot and a 0 at
    the pivots of the rows before it, so the result is zero exactly when v
    lies in their span."""
    for r, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = [x ^ mul[c][y] for x, y in zip(v, r)]
    return v


def _k_rank(vectors, mul):
    rows, pivots = [], []
    for v in vectors:
        w = _reduce(v, rows, pivots, mul)
        lead = next((i for i, x in enumerate(w) if x), None)
        if lead is not None:
            inv = mul[w[lead]].index(1)
            rows.append([mul[inv][x] for x in w])
            pivots.append(lead)
    return len(rows)


def _jordan_shift(lam):
    """Index map of the nilpotent Jordan operator of type lam: coordinate i
    feeds coordinate shift[i] (or -1 at the start of a block)."""
    shift = []
    pos = 0
    for block in lam:
        shift.append(-1)
        shift.extend(range(pos, pos + block - 1))
        pos += block
    return shift


def _apply_jordan(v, shift, m):
    w = [0] * m
    for i in range(m):
        if v[i] and shift[i] >= 0:
            w[shift[i]] = v[i]
    return w


def nilpotent_submodule_census(lam, Q):
    """Brute-force census of the invariant subspaces of the nilpotent Jordan
    operator of type lam over the field with Q elements (Q in {2, 4}).

    Enumerates the subspaces in echelon form, pruned row by row as the
    module docstring says, keeps the invariant ones, and bins them by
    module type (read off the kernel filtration: the conjugate type part i
    is dim J^(i-1)M - dim J^i M).  Returns a fresh dict mapping type
    partitions to counts; the enumeration itself is memoized per (type,
    Q).  Raises ValueError when GF(Q)^|lam| has more than
    NILPOTENT_CEILING subspaces.
    """
    return dict(_nilpotent_census(tuple(sorted(lam, reverse=True)), Q))


@lru_cache(maxsize=None)
def _nilpotent_census(lam, Q):
    mul = _field_tables(Q)
    m = sum(lam)
    visits = sum(_gaussian_binomial(m, d, Q) for d in range(m + 1))
    if visits > NILPOTENT_CEILING:
        raise ValueError(f"GF({Q})^{m} has {visits} subspaces, more than the "
                         f"{NILPOTENT_CEILING} the census may visit")
    shift = _jordan_shift(lam)

    def in_span(v, rows, pivots):
        return not any(_reduce(_apply_jordan(v, shift, m), rows, pivots, mul))

    # The rows are filled from the last pivot to the first.  J moves a
    # coordinate down by one, so J(row k) is zero before p_k - 1 and
    # reduces only against rows of pivot >= p_k - 1: row k is checked as
    # soon as row k - 1 is filled, row 0 last.  The rows not yet filled
    # would clear nothing in that reduction, so each check gives what the
    # whole basis gives, and a partial basis is dropped only when no
    # filling of its first rows makes the subspace invariant.
    def bases(pivots, free, rows):
        k = len(pivots) - len(rows)
        if k == 0:
            if not rows or in_span(rows[0], rows, pivots):
                yield rows
            return
        for values in product(range(Q), repeat=len(free[k - 1])):
            row = [0] * m
            row[pivots[k - 1]] = 1
            for c, val in zip(free[k - 1], values):
                row[c] = val
            filled = [row] + rows
            if not rows or in_span(rows[0], filled, pivots[k - 1:]):
                yield from bases(pivots, free, filled)

    census = {}
    for d in range(m + 1):
        for pivots in combinations(range(m), d):
            pivot_set = set(pivots)
            free = [[c for c in range(p + 1, m) if c not in pivot_set]
                    for p in pivots]
            for rows in bases(pivots, free, []):
                # module type via the kernel filtration
                dims = [d]
                images = rows
                while dims[-1] > 0:
                    images = [_apply_jordan(v, shift, m) for v in images]
                    dims.append(_k_rank(images, mul))
                # J is nilpotent, so dims strictly decreases to 0 and every
                # difference is a part
                mu = _conjugate(tuple(a - b for a, b in zip(dims, dims[1:])))
                census[mu] = census.get(mu, 0) + 1
    return tuple(census.items())


# ---------------------------------------------------------------------------
# the type-counting formula for the submodules of a primary block, and the
# slow reference for the graded block lattice that sums it over every
# submodule type, with its own partition loop and Gaussian binomials
# (nothing shared with submodcount or qarith).  The formula's one copy is
# _count_by_conjugates, in the column coordinates it is written in; the
# references conjugate each block once and hand it conjugates only.


def _conjugate(parts):
    """Column lengths of the Young diagram of parts, which must be listed
    nonincreasing: parts[0] is read as the largest part."""
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"type {parts} is not in nonincreasing order")
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1))


def _gaussian_binomial(n, k, q):
    # [n choose k]_q = prod_{i<k} (q^(n-i) - 1) / (q^(i+1) - 1)
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _sub_conjugates(lc):
    """Every nonincreasing mc with mc[i] <= lc[i], trailing zeros dropped."""
    out = []

    def rec(i, cap, prefix):
        out.append(prefix)
        if i == len(lc):
            return
        for v in range(1, min(cap, lc[i]) + 1):
            rec(i + 1, v, prefix + (v,))

    rec(0, lc[0] if lc else 0, ())
    return out


def _count_by_conjugates(lc, mc, Q):
    """count_submodules_by_type in conjugate coordinates: the number of
    submodules with conjugate type mc of a module with conjugate type lc,

        prod_i Q^(mu'_{i+1} (lam'_i - mu'_i))
               * [lam'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_Q,

    and 0 when mc does not fit under lc (some mu'_i > lam'_i)."""
    if len(mc) > len(lc) or any(t > l for t, l in zip(mc, lc)):
        return 0
    mc += (0,) * (len(lc) + 1 - len(mc))
    count = 1
    for l, t, m in zip(lc, mc, mc[1:]):
        count *= Q ** (m * (l - t)) * _gaussian_binomial(l - m, t - m, Q)
    return count


def count_submodules_by_type(lam, mu, Q):
    """Number of type-mu submodules of a type-lam module over a local ring
    with residue field of size Q.  Conjugates lam and mu once and evaluates
    the formula's one copy, _count_by_conjugates, which returns 0 when mu'
    does not fit under lam'.  The validation gate checks it against
    nilpotent_submodule_census."""
    return _count_by_conjugates(_conjugate(tuple(lam)), _conjugate(tuple(mu)), Q)


def graded_submodule_counts(lam, Q, d):
    """Submodule counts of a type-lam block over a residue field of size
    Q = 2^d, graded by GF(2)-dimension d * |mu|.  Conjugates lam once,
    lists every submodule type by its conjugate mu' <= lam' and adds
    _count_by_conjugates(lam', mu', Q), the formula that
    count_submodules_by_type evaluates, for each one."""
    if not lam:
        raise ValueError("lam must be nonempty")
    if Q != 2 ** d:
        raise ValueError(f"Q={Q} does not match residue degree d={d}")
    lc = _conjugate(tuple(lam))
    coeffs = [0] * (d * sum(lam) + 1)
    for mc in _sub_conjugates(lc):
        coeffs[d * sum(mc)] += _count_by_conjugates(lc, mc, Q)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _gl_cycle_lengths(d):
    """For every invertible d x d matrix over GF(2), listed as a tuple of
    column bitmasks, the cycle lengths of its action on the 2^d vectors of
    GF(2)^d; returns {sorted cycle lengths: number of matrices}."""
    found = {}
    for cols in product(range(1 << d), repeat=d):
        if len(rref(cols, d)) < d:
            continue
        seen = set()
        lengths = []
        for v in range(1 << d):
            length = 0
            while v not in seen:
                seen.add(v)
                v = map_apply(cols, v)
                length += 1
            if length:
                lengths.append(length)
        key = tuple(sorted(lengths))
        found[key] = found.get(key, 0) + 1
    return found


def slepian_code_count(n, d):
    """Number of inequivalent binary n-codes of dimension at most d, by
    Slepian's method.

    The columns of a d x n generator matrix form an n-multiset of vectors
    of GF(2)^d, and two matrices span equivalent codes exactly when row
    operations (GL(d,2)) and column permutations take one to the other.
    So the count is the number of GL(d,2)-orbits on n-multisets of GF(2)^d,
    which Burnside's lemma gives as the average over g in GL(d,2) of the
    multisets fixed by g: a fixed multiset is constant on each cycle of g,
    so there are [x^n] prod over the cycles of 1 / (1 - x^len) of them.
    Nothing here uses the cycle-type census."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= d <= SLEPIAN_MAX_DIM:
        raise ValueError(f"d must be in [0, {SLEPIAN_MAX_DIM}], got {d}")
    classes = _gl_cycle_lengths(d)
    total = 0
    for lengths, matrices in classes.items():
        ways = [1] + [0] * n
        for length in lengths:
            for k in range(length, n + 1):
                ways[k] += ways[k - length]
        total += matrices * ways[n]
    orbits, rem = divmod(total, sum(classes.values()))
    if rem:
        raise ArithmeticError(f"GL({d},2) fixed-multiset sum at n={n} is not "
                              f"divisible by the group order")
    return orbits
