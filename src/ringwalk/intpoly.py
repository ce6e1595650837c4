"""Dense integer polynomials and exact characteristic polynomials.

Polynomials are tuples of Python ints, constant term first.  Everything here
is exact integer arithmetic.  A characteristic polynomial is computed
modulo a batch of word-size primes and recombined by CRT under a rigorous
coefficient bound, so no floating point and no rational blow-up.  Two
routes fill in the residues: Hessenberg reduction of any square matrix
(`charpoly`), and the additive characters of an abelian Cayley graph
(`cayley_factors`), which lifts one factor per Galois orbit of characters
and never forms the degree-n product.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, gcd, isqrt, lcm

from .errors import InconsistencyError

IntPoly = tuple  # tuple of ints, constant first


# -- basic ops -------------------------------------------------------------

def trim(p) -> IntPoly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def degree(p) -> int:
    # degree of the zero polynomial is -1
    return len(trim(p)) - 1


def add(p, q) -> IntPoly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def neg(p) -> IntPoly:
    return tuple(-c for c in p)


def sub(p, q) -> IntPoly:
    return add(p, neg(q))


def mul(p, q) -> IntPoly:
    p, q = trim(p), trim(q)
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def expand(factors) -> IntPoly:
    """The product of p^m over the (p, m) pairs in `factors`."""
    out = (1,)
    for p, m in factors:
        for _ in range(m):
            out = mul(out, p)
    return out


def scale(p, c: int) -> IntPoly:
    return trim([c * a for a in p])


def evaluate(p, x):
    out = 0
    for c in reversed(p):
        out = out * x + c
    return out


def divmod_monic(p, g) -> tuple[IntPoly, IntPoly]:
    """Divide by a monic g; quotient and remainder are integer polynomials."""
    g = trim(g)
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    r = list(p)
    dq = len(r) - len(g)
    if dq < 0:
        return (), trim(r)
    q = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        c = r[i + len(g) - 1]
        if c:
            q[i] = c
            for j, b in enumerate(g):
                r[i + j] -= c * b
    return trim(q), trim(r)


def try_divide(p, g):
    """Quotient p/g if g (monic) divides p exactly, else None."""
    q, r = divmod_monic(p, g)
    return q if not r else None


def divide_out(p, g):
    """(p / g^m, m) for the largest m with g^m | p (g monic)."""
    mult = 0
    while (q := try_divide(p, g)) is not None:
        p, mult = q, mult + 1
    return p, mult


def poly_str(p, var: str = "x") -> str:
    p = trim(p)
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xp = var if i == 1 else f"{var}^{i}"
            body = xp if mag == 1 else f"{mag}*{xp}"
        parts.append(sign + body)
    return "".join(parts)


# -- cyclotomic and cosine minimal polynomials -----------------------------

@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    p = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = divmod_monic(p, cyclotomic(d))
            if r:
                raise InconsistencyError(f"Phi_{d} does not divide x^{n} - 1")
            p = q
    return p


@lru_cache(maxsize=None)
def two_cos_minimal_poly(n: int) -> IntPoly:
    """Minimal polynomial of 2*cos(2*pi/n) over Q (monic, integer).

    Degree phi(n)/2 for n >= 3; the n = 1, 2 cases are x - 2 and x + 2.
    Derived from the palindromic cyclotomic polynomial by rewriting in
    y = z + 1/z via the Dickson-style basis p_k(y) = z^k + z^(-k).
    """
    if n == 1:
        return (-2, 1)
    if n == 2:
        return (2, 1)
    c = cyclotomic(n)
    d = len(c) - 1
    if d % 2 or c != tuple(reversed(c)):
        raise InconsistencyError(f"Phi_{n} = {c} is not palindromic of even degree")
    half = d // 2
    # z^-half * Phi_n(z) = a_half + sum_{k>=1} a_{half+k} (z^k + z^-k)
    pk_prev, pk = (2,), (0, 1)
    out = add(scale((1,), c[half]), scale(pk, c[half + 1]) if half >= 1 else ())
    for k in range(2, half + 1):
        pk_prev, pk = pk, sub(mul((0, 1), pk), pk_prev)
        out = add(out, scale(pk, c[half + k]))
    return out


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorisation of n >= 1 as (p, e) pairs, p ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


# -- characteristic polynomial ---------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3e24
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_prime_pools: dict[int, list[int]] = {}


def _primes_with_product_above(bound: int, e: int = 1) -> list[int]:
    """Primes q = 1 (mod 2e) below 2^62, largest first, with product > bound."""
    pool = _prime_pools.setdefault(e, [])
    step = 2 * e
    out = []
    prod = 1
    i = 0
    while prod <= bound:
        if i == len(pool):
            top = (1 << 62) - 1
            candidate = (pool[-1] - step) if pool else top - (top - 1) % step
            while not _is_prime(candidate):
                candidate -= step
            pool.append(candidate)
        p = pool[i]
        out.append(p)
        prod *= p
        i += 1
    return out


def _coefficient_bound(frobenius_sq: int, n: int) -> int:
    """Twice a bound on every |c_i| of an n x n matrix's charpoly.

    With F = ||M||_F:
     - Schur: sum |lambda_i|^2 <= F^2, so by the power mean inequality
       the mean |lambda_i| is at most F/sqrt(n);
     - Maclaurin on the |lambda_i|: |c_(n-m)| <= C(n, m) (F/sqrt(n))^m;
     - summing over m: |c_i| <= (1 + F/sqrt(n))^n <= (1 + r)^n with
       r = ceil(sqrt(ceil(F^2/n))), never more than the largest row sum.
    The factor 2 leaves room for the sign in the symmetric lift.
    """
    mean_sq = -(-frobenius_sq // n)
    r = isqrt(mean_sq)
    if r * r < mean_sq:
        r += 1
    return 2 * (1 + r) ** n


def _crt_lift(primes, residues) -> IntPoly:
    """Fold coefficient lists mod each prime by CRT; lift symmetrically."""
    mod = 1
    combined = []
    for p, res in zip(primes, residues):
        if mod == 1:
            combined = list(res)
            mod = p
            continue
        inv = pow(mod % p, -1, p)
        for i, r in enumerate(res):
            t = (r - combined[i]) % p * inv % p
            combined[i] = combined[i] + mod * t
        mod *= p
    half = mod // 2
    return tuple(c - mod if c > half else c for c in combined)


def _charpoly_mod(mat, p: int) -> list[int]:
    """det(xI - M) mod p, coefficients constant-first."""
    n = len(mat)
    a = [[x % p for x in row] for row in mat]
    # similarity reduction to upper Hessenberg form
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if a[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            a[j + 1], a[piv] = a[piv], a[j + 1]
            for row in a:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        inv = pow(a[j + 1][j], -1, p)
        for i in range(j + 2, n):
            f = a[i][j] * inv % p
            if not f:
                continue
            ai, aj = a[i], a[j + 1]
            for cidx in range(j, n):
                ai[cidx] = (ai[cidx] - f * aj[cidx]) % p
            for row in a:
                row[j + 1] = (row[j + 1] + f * row[i]) % p
    # charpoly of a Hessenberg matrix by expanding leading principal minors:
    # D_m = (x - a[m-1][m-1]) D_{m-1}
    #       - sum_i a[i-1][m-1] (prod_{k=i..m-1} a[k][k-1]) D_{i-1}
    minors = [[1]]
    for m in range(1, n + 1):
        prev = minors[m - 1]
        cur = [0] + prev  # x * D_{m-1}
        d = a[m - 1][m - 1]
        for idx in range(len(prev)):
            cur[idx] = (cur[idx] - d * prev[idx]) % p
        prodsub = 1
        for i in range(m - 1, 0, -1):
            prodsub = prodsub * a[i][i - 1] % p
            if not prodsub:
                break
            coeff = a[i - 1][m - 1] * prodsub % p
            if coeff:
                before = minors[i - 1]
                for idx in range(len(before)):
                    cur[idx] = (cur[idx] - coeff * before[idx]) % p
        minors.append(cur)
    return [c % p for c in minors[n]]


def charpoly(mat) -> IntPoly:
    """Characteristic polynomial det(xI - M) of an integer matrix, exact."""
    n = len(mat)
    if n == 0:
        return (1,)
    rows = [[int(x) for x in row] for row in mat]
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    bound = _coefficient_bound(sum(x * x for row in rows for x in row), n)
    primes = _primes_with_product_above(bound)
    return _crt_lift(primes, [_charpoly_mod(rows, p) for p in primes])


def cayley_factors(moduli, connection, n: int) -> tuple:
    """char(A) of an n-vertex graph made of copies of Cay(<S>, S), factored
    by Galois orbits of characters: ((P_O, multiplicity), ...).

    The group is Z_(m_1) x ... x Z_(m_r) for the given moduli, and S (the
    `connection`) is a symmetric, zero-free list of distinct coordinate
    tuples.
    With e = lcm(m_j), a prime q = 1 (mod e) and w a primitive e-th root
    of unity mod q, the characters x: a -> w^(sum_j (e/m_j) a_j x_j)
    diagonalise A over F_q with eigenvalues chi(S) = sum_(s in S) chi(s).
    Characters that agree on S agree on <S>, so the distinct exponent
    tuples on S are the |<S>| characters of <S>, each an eigenvalue of
    every one of the n/|<S>| components.  Characters with the same
    multiset of exponents share chi(S).

    The Galois automorphism z -> z^j (gcd(j, e) = 1) maps the multiset M
    to j M mod e and permutes the characters, so the multisets fall into
    orbits O whose members have one character count.  P_O = prod_(M in O)
    (x - chi_M(S)) is fixed by every automorphism, so it has integer
    coefficients, degree |O| <= phi(e) and is f^r for the minimal
    polynomial f of any of its roots.  Each P_O is folded by CRT under
    2 max_i C(|O|, i) k^i (its roots have |chi_M(S)| <= k = |S|) and
    carries multiplicity count * copies.  Every image of a class must be
    a class of the same count in no other orbit, or InconsistencyError is
    raised, so the degrees times the multiplicities sum to n.  No
    polynomial of degree above phi(e) is formed.
    """
    e = lcm(*moduli)
    exps = [(0,) * len(connection)]
    for j, m in enumerate(moduli):
        step = [e // m * s[j] for s in connection]
        # tuple([...]) rather than tuple(genexpr): no resizing, less heap
        exps = [tuple([(a + t * b) % e for a, b in zip(row, step)])
                for row in exps for t in range(m)]
    distinct = set(exps)
    if n % len(distinct):
        raise InconsistencyError(
            f"{n} vertices are not copies of a group of order {len(distinct)}")
    groups = Counter(tuple(sorted(x)) for x in distinct)
    copies = n // len(distinct)
    orbits = []  # (multisets, multiplicity)
    placed = {}  # multiset -> index of its orbit
    for multiset, count in groups.items():
        if multiset in placed:
            continue
        placed[multiset] = len(orbits)
        orbit = [multiset]
        for member in orbit:  # grows while it is walked
            for j in _unit_generators(e):
                image = tuple(sorted([j * a % e for a in member]))
                if image not in placed and groups.get(image) == count:
                    placed[image] = len(orbits)
                    orbit.append(image)
                elif placed.get(image) != len(orbits):
                    # then the orbits would not partition the classes, and
                    # the degrees times multiplicities would not sum to n
                    raise InconsistencyError(
                        f"x -> {j} x mod {e} maps the character class "
                        f"{member} outside its orbit of {count}-fold classes")
        orbits.append((orbit, count * copies))
    k = len(connection)
    powers = {}  # q -> [w^0, ..., w^(e-1)] mod q, shared by the orbits
    factors = []
    for orbit, mult in orbits:
        d = len(orbit)
        primes = _primes_with_product_above(
            2 * max(comb(d, i) * k ** i for i in range(d + 1)), e)
        residues = []
        for q in primes:
            if q not in powers:
                w = _root_of_unity(e, q)
                powers[q] = table = [1]
                for _ in range(e - 1):
                    table.append(table[-1] * w % q)
            table = powers[q]
            poly = [1]
            for member in orbit:
                root = sum(table[a] for a in member) % q
                out = [0] + poly  # times x, minus root times poly
                for i, c in enumerate(poly):
                    out[i] = (out[i] - root * c) % q
                poly = out
            residues.append(poly)
        factors.append((_crt_lift(primes, residues), mult))
    return tuple(factors)


@lru_cache(maxsize=None)
def _unit_generators(e: int) -> tuple:
    """Generators of the unit group (Z/e)^*, greedily from the least."""
    gens = []
    reached = {1 % e}
    for j in range(2, e):
        if gcd(j, e) == 1 and j not in reached:
            gens.append(j)
            coset, power = set(reached), j
            while power not in reached:
                coset |= {power * h % e for h in reached}
                power = power * j % e
            reached = coset
    return tuple(gens)


def _root_of_unity(e: int, q: int) -> int:
    """A primitive e-th root of unity modulo a prime q = 1 (mod e)."""
    prime_divisors = [r for r, _ in factorize(e)]
    a = 2
    while True:
        w = pow(a, (q - 1) // e, q)
        if all(pow(w, e // r, q) != 1 for r in prime_divisors):
            return w
        a += 1
