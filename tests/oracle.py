"""A Grover walk oracle defined from first principles, for the tests.

It shares no code with the walk engine: it uses only the standard library,
imports nothing from ringwalk, and reads only `n`, `edges`, `degrees`,
`neighbors` and `adjacent` of a graph.  Vectors on the arc space are dicts
{(origin, head): amplitude} of Fractions, and U = S(2 N*N - I) acts on them
by its definition,

    (U x)[(o, t)] = 2/deg(o) * sum of x[b] over the arcs b into o  -  x[(t, o)].

For a k-regular graph N* e_v = k^-1/2 * (sum of the arcs into v), so
N U^tau N* is 1/k times the arc sums of U^tau applied to those sums, and it
must equal T_tau(P) for P = A/k.
"""

from fractions import Fraction


def grover(g):
    """U of the loopless graph g, as a function on sparse arc vectors."""
    if any(g.adjacent(v, v) for v in range(g.n)):
        raise ValueError("the Grover walk needs a loopless graph")

    def apply(x):
        into = {}
        for (_, o), a in x.items():
            into[o] = into.get(o, 0) + a
        y = {}
        for o, total in into.items():
            share = Fraction(2 * total, g.degrees[o])
            for t in g.neighbors[o]:
                y[(o, t)] = share
        for (s, o), a in x.items():
            y[(o, s)] -= a
        return {arc: a for arc, a in y.items() if a}

    return apply


def least_period(g, horizon):
    """The least tau in 1..horizon with U^tau = I, or None."""
    step = grover(g)
    columns = {arc: {arc: 1} for u, v in g.edges for arc in ((u, v), (v, u))}
    for tau in range(1, horizon + 1):
        columns = {arc: step(x) for arc, x in columns.items()}
        if all(x == {arc: 1} for arc, x in columns.items()):
            return tau
    return None


def _regularity(g):
    k = g.degrees[0] if g.n else 0
    if not k or any(d != k for d in g.degrees):
        raise ValueError("the vertex operators need a regular graph of degree >= 1")
    return k


def vertex_transfers(g, horizon):
    """Yield N U^tau N* of a k-regular graph for tau = 0..horizon, as rows
    of Fractions: column v is N U^tau N* e_v."""
    k = _regularity(g)
    step = grover(g)
    vectors = [{(w, v): 1 for w in g.neighbors[v]} for v in range(g.n)]
    for tau in range(horizon + 1):
        if tau:
            vectors = [step(x) for x in vectors]
        columns = []
        for x in vectors:
            col = [0] * g.n
            for (_, t), a in x.items():
                col[t] += a
            columns.append([Fraction(c, k) for c in col])
        yield tuple(zip(*columns))


def chebyshevs(g, horizon):
    """Yield T_tau(P), P = A/k, for tau = 0..horizon, by T_0 = I, T_1 = P
    and T_(tau+1) = 2 P T_tau - T_(tau-1), rows of Fractions."""
    k = _regularity(g)

    def times_p(m):
        return tuple(tuple(Fraction(sum(m[w][j] for w in g.neighbors[i]), k)
                           for j in range(g.n)) for i in range(g.n))

    cur = tuple(tuple(Fraction(int(i == j)) for j in range(g.n))
                for i in range(g.n))
    nxt = times_p(cur)
    for _ in range(horizon + 1):
        yield cur
        cur, nxt = nxt, tuple(tuple(2 * a - b for a, b in zip(row, old))
                              for row, old in zip(times_p(nxt), cur))


def charpoly(mat):
    """det(x I - mat) of an integer matrix by Faddeev-LeVerrier, as
    coefficients from the constant term up."""
    n = len(mat)
    rows = [[int(x) for x in row] for row in mat]
    coeffs = [0] * n + [1]
    work = [row[:] for row in rows]
    for k in range(1, n + 1):
        if k > 1:
            # work = rows (work + c I)
            for i in range(n):
                work[i][i] += c
            work = [[sum(rows[i][t] * work[t][j] for t in range(n))
                     for j in range(n)] for i in range(n)]
        c, rem = divmod(-sum(work[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError(f"the trace at step {k} is not divisible by {k}")
        coeffs[n - k] = c
    return tuple(coeffs)
