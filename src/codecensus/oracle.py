"""Brute-force ground truth at small n.

Subspaces of GF(2)^n are held as tuples of int bitmasks in reduced row
echelon form (bit i = coordinate i), so equality of subspaces is tuple
equality.  Everything here is deliberately naive: explicit enumeration,
explicit permutation action, explicit linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

ENUM_CEILING = 7      # 29212 subspaces at n=7
CLASSIFY_CEILING = 5  # 374 subspaces x 120 permutations at n=5
MINPOLY_CEILING = 16


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


def gf2_rank(rows):
    rank = 0
    work = list(rows)
    while work:
        r = work.pop()
        if r == 0:
            continue
        low = r & -r
        work = [x ^ r if x & low else x for x in work]
        rank += 1
    return rank


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
    """Image of a subspace under coordinate permutation (re-canonicalized).

    perm is 0-indexed: perm[i] is the image of coordinate i, and the moved
    vector has bit i equal to bit perm[i] of the original.
    """
    moved = []
    for v in subspace:
        w = 0
        for i in range(n):
            if (v >> perm[i]) & 1:
                w |= 1 << i
        moved.append(w)
    return rref(moved, n)


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


@dataclass(frozen=True)
class Orbit:
    dim: int
    size: int
    stabilizer_order: int
    representative: tuple


@dataclass(frozen=True)
class OrbitReport:
    n: int
    b: int
    by_dim: tuple[int, ...]
    orbits: tuple[Orbit, ...]
    beta: tuple[int, int]                  # fraction of non-rigid subspaces
    nonrigid_by_dim: tuple[tuple[int, int], ...]  # alpha(n, d) fractions

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
# permutation operators as explicit GF(2) matrices


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


def map_compose(a, b):
    """a o b on column representations."""
    return tuple(map_apply(a, col) for col in b)


def map_add(a, b):
    return tuple(x ^ y for x, y in zip(a, b))


def _identity(n):
    return tuple(1 << i for i in range(n))


def poly_of_map(poly, cols, n):
    """Evaluate a GF(2)[t] polynomial (bit-vector int) at a linear map."""
    result = (0,) * n
    power = _identity(n)
    while poly:
        if poly & 1:
            result = map_add(result, power)
        power = map_compose(cols, power)
        poly >>= 1
    return result


def kernel_dim(cols, n):
    return n - gf2_rank(cols)


def minimal_polynomial(perm):
    """Factored minimal polynomial of the permutation operator over GF(2).

    Returns a list of (irreducible, exponent, kernel_dim) triples where
    kernel_dim is the dimension of ker(p(T)^exponent).  Factorization is by
    trial division in increasing bit order, independent of the cyclotomic
    machinery.
    """
    from .gf2poly import degree, poly_divmod

    n = len(perm)
    if n > MINPOLY_CEILING:
        raise ValueError(f"n must be <= {MINPOLY_CEILING}, got {n}")
    T = perm_operator(perm)

    def vec(cols):
        out = 0
        for i, c in enumerate(cols):
            out |= c << (i * n)
        return out

    # incremental elimination over vectorized powers I, T, T^2, ...
    echelon = {}  # leading bit -> (reduced vector, combination polynomial)
    power = _identity(n)
    k = 0
    while True:
        v, combo = vec(power), 1 << k
        while v:
            lead = v.bit_length()
            if lead not in echelon:
                break
            bv, bc = echelon[lead]
            v ^= bv
            combo ^= bc
        if v == 0:
            minpoly = combo
            break
        echelon[v.bit_length()] = (v, combo)
        power = map_compose(T, power)
        k += 1

    factors = []
    rest = minpoly
    p = 2  # start at the polynomial t
    while degree(rest) > 0:
        quo, rem = poly_divmod(rest, p)
        if rem == 0:
            exp = 0
            while rem == 0:
                rest = quo
                exp += 1
                quo, rem = poly_divmod(rest, p)
            pm = poly_of_map(_pow_poly(p, exp), T, n)
            factors.append((p, exp, kernel_dim(pm, n)))
        else:
            p += 1
    return factors


def _pow_poly(p, e):
    from .gf2poly import poly_mul

    result = 1
    for _ in range(e):
        result = poly_mul(result, p)
    return result


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
        return ((0, 0), (0, 1)),
    if Q == 4:
        return (_GF4_MUL,)
    raise ValueError(f"Q must be 2 or 4, got {Q}")


def _k_rank(vectors, m, mul):
    work = [list(v) for v in vectors]
    rank = 0
    row = 0
    for col in range(m):
        pivot = None
        for i in range(row, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        p = work[row]
        pc = p[col]
        pinv = next(b for b in range(1, len(mul)) if mul[pc][b] == 1)
        work[row] = p = [mul[pinv][x] for x in p]
        for i in range(len(work)):
            if i != row and work[i][col]:
                c = work[i][col]
                work[i] = [x ^ mul[c][y] for x, y in zip(work[i], p)]
        rank += 1
        row += 1
        if row == len(work):
            break
    return rank


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

    Enumerates every subspace in echelon form, keeps the invariant ones,
    and bins them by module type (read off the kernel filtration: the
    conjugate type part i is dim J^(i-1)M - dim J^i M).  Returns a fresh
    dict mapping type partitions to counts; the enumeration itself is
    memoized per (type, Q).
    """
    return dict(_nilpotent_census(tuple(sorted(lam, reverse=True)), Q))


@lru_cache(maxsize=None)
def _nilpotent_census(lam, Q):
    (mul,) = _field_tables(Q)
    m = sum(lam)
    if m > 6:
        raise ValueError(f"|lam| must be <= 6, got {m}")
    shift = _jordan_shift(lam)
    census = {(): 1}  # the zero submodule

    for d in range(1, m + 1):
        for pivots in combinations(range(m), d):
            pivot_set = set(pivots)
            free = [
                [c for c in range(m) if c > pivots[j] and c not in pivot_set]
                for j in range(d)
            ]
            cells = [(j, c) for j in range(d) for c in free[j]]
            for values in product(range(Q), repeat=len(cells)):
                rows = [[0] * m for _ in range(d)]
                for j, p in enumerate(pivots):
                    rows[j][p] = 1
                for (j, c), val in zip(cells, values):
                    rows[j][c] = val
                # invariance: J(row) must reduce to zero against the basis
                ok = True
                for v in rows:
                    w = _apply_jordan(v, shift, m)
                    for j, p in enumerate(pivots):
                        c = w[p]
                        if c:
                            rj = rows[j]
                            w = [x ^ mul[c][y] for x, y in zip(w, rj)]
                    if any(w):
                        ok = False
                        break
                if not ok:
                    continue
                # module type via the kernel filtration
                dims = [d]
                images = rows
                while dims[-1] > 0:
                    images = [_apply_jordan(v, shift, m) for v in images]
                    dims.append(_k_rank(images, m, mul))
                conj = tuple(a - b for a, b in zip(dims, dims[1:]) if a - b > 0)
                mu = tuple(sum(1 for c in conj if c >= i)
                           for i in range(1, conj[0] + 1)) if conj else ()
                census[mu] = census.get(mu, 0) + 1
    return tuple(census.items())


# ---------------------------------------------------------------------------
# slow reference for the graded block lattice: one term of the type-counting
# formula per submodule type, with its own partition loop and Gaussian
# binomials (nothing shared with submodcount or qarith)


def _conjugate(parts):
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


def graded_submodule_counts(lam, Q, d):
    """Submodule counts of a type-lam block over a residue field of size
    Q = 2^d, graded by GF(2)-dimension d * |mu|, by listing every
    submodule type mu' <= lam' and evaluating

        prod_i Q^(mu'_{i+1} (lam'_i - mu'_i))
               * [lam'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_Q

    for each one."""
    if not lam:
        raise ValueError("lam must be nonempty")
    if Q != 2 ** d:
        raise ValueError(f"Q={Q} does not match residue degree d={d}")
    lc = _conjugate(tuple(lam))
    coeffs = [0] * (d * sum(lam) + 1)
    for mc in _sub_conjugates(lc):
        count = 1
        for i, l_i in enumerate(lc):
            m_i = mc[i] if i < len(mc) else 0
            m_next = mc[i + 1] if i + 1 < len(mc) else 0
            count *= Q ** (m_next * (l_i - m_i))
            count *= _gaussian_binomial(l_i - m_next, m_i - m_next, Q)
        coeffs[d * sum(mc)] += count
    return tuple(coeffs)
