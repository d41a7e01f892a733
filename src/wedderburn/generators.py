"""Test-corpus constructors with planted ground truth.

Group algebras from Cayley tables (the six built-in ones are the tables of
permutation lists), matrix algebras over F_p and its extensions, direct
sums, and invertible basis scrambles.  A planted construction records the
block multiset the decomposition must recover.

Each hands out a validated presentation with associativity pending, as
every constructor does: a checked Cayley table, a matrix ring over a field
and a change of basis are associative by construction, so nothing here
re-proves them.  Nor does direct_sum prove its parts or the sum, which is
associative when they are: a part read from a document is proved by its
reader (cli's `gen sum`), so that a bad part names its own failing triple.
"""

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from . import linalg, poly
from .algebra import Algebra, doc_array, is_doc_int, matrix_ring
from .errors import (
    InternalSamplingFailure,
    InvalidCayley,
    ModulusMismatch,
    ReduciblePolynomial,
)

SCRAMBLE_DRAW_CAP = 64


@dataclass
class Planted:
    """A presentation together with the block multiset it was built from."""

    spec: list  # sorted list of (n_i, d_i)
    algebra: Algebra


# -- Cayley tables ---------------------------------------------------------------


def validate_cayley(doc):
    """Check a Cayley document; returns (order, identity, table) or raises.

    The table is read by doc_array, so it comes back as an int64 array.
    Row g is tested before column g, and associativity by one gather per g:
    T[T[g]] against T[g][T], so the first failing triple (g, h, k) in
    row-major order is the one named.
    """
    if not isinstance(doc, dict):
        raise InvalidCayley("Cayley document must be an object")
    for key in ("order", "identity", "table"):
        if key not in doc:
            raise InvalidCayley(f"Cayley document missing {key!r}")
    m = doc["order"]
    ident = doc["identity"]
    if not is_doc_int(m) or m < 1:
        raise InvalidCayley("order must be a positive integer")
    if not is_doc_int(ident) or not 0 <= ident < m:
        raise InvalidCayley("identity index out of range")
    T = doc_array(doc["table"], (m, m), "table", InvalidCayley)
    if ((T < 0) | (T >= m)).any():
        raise InvalidCayley("table entries must be indices in range")
    full = np.arange(m)
    rows = (np.sort(T, axis=1) != full).any(axis=1)
    cols = (np.sort(T, axis=0) != full[:, None]).any(axis=0)
    if rows.any() or cols.any():
        g = int(np.argmax(rows | cols))
        raise InvalidCayley(f"{'row' if rows[g] else 'column'} {g} "
                            "is not a permutation")
    if (T[ident] != full).any() or (T[:, ident] != full).any():
        raise InvalidCayley("declared identity is not an identity")
    for g in range(m):
        # bad[h, k]: (g h) k != g (h k)
        bad = T[T[g]] != T[g][T]
        if bad.any():
            h, k = divmod(int(np.argmax(bad)), m)
            raise InvalidCayley(f"associativity fails at triple ({g},{h},{k})")
    return m, ident, T


def _compose(a, b):
    """The permutation a∘b, b applied first."""
    return tuple(a[x] for x in b)


def _table(perms):
    """Cayley document of a list of distinct permutations closed under
    composition, a group by Cayley's theorem, in list order: entry (a, b)
    is the index of a∘b, and the identity the index of the identity."""
    perms = [tuple(s) for s in perms]
    index = {s: i for i, s in enumerate(perms)}
    return {
        "order": len(perms),
        "identity": index[tuple(range(len(perms[0])))],
        "table": [[index[_compose(a, b)] for b in perms] for a in perms],
    }


def _cyclic(m):
    # x -> x + k on Z/m
    return [[(x + k) % m for x in range(m)] for k in range(m)]


def _quaternions():
    # left multiplications on (1, -1, i, -i, j, -j, k, -k), listed
    # 1, i^2, i, i^3, j, j^3, ij, ji: index 2*axis + sign, axes (1, i, j, k)
    i, j = (2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)
    words = [(), (i, i), (i,), (i, i, i), (j,), (j, j, j), (i, j), (j, i)]
    return [functools.reduce(_compose, w, tuple(range(8))) for w in words]


# each group as its left-regular permutations, in the order of its table
_FIXTURES = {
    "C2": _cyclic(2),
    "C3": _cyclic(3),
    "C4": _cyclic(4),
    "S3": sorted(itertools.permutations(range(3))),
    # r^a s^b at index a + 4b: x -> a + (-1)^b x on Z/4
    "D4": [[(a + (-1) ** b * x) % 4 for x in range(4)]
           for b in range(2) for a in range(4)],
    "Q8": _quaternions(),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def cayley_fixture(name):
    """Built-in Cayley document for C2, C3, C4, S3, D4 or Q8."""
    if name not in _FIXTURES:
        raise InvalidCayley(
            f"unknown fixture {name!r}; choices: {sorted(_FIXTURES)}"
        )
    return _table(_FIXTURES[name])


def group_algebra(table_doc, p):
    """Group algebra F_p[G] from a Cayley document."""
    m, ident, table = validate_cayley(table_doc)
    sc = np.zeros((m, m, m), dtype=np.int64)
    sc[np.arange(m)[:, None], np.arange(m), table] = 1
    one = np.zeros(m, dtype=np.int64)
    one[ident] = 1
    labels = [f"g{i}" for i in range(m)]
    return Algebra(p, sc, identity=one, labels=labels)


# -- matrix algebras and sums ------------------------------------------------------


def matrix_algebra(p, n, ext_poly=None):
    """M_n over F_p[T]/(ext_poly); default extension degree 1.

    Basis E[a,b]*T^t ordered (a, b, t); returns a Planted with spec [(n, d)].
    """
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    if ext_poly is None:
        f = [0, 1]  # T, giving the prime field
    else:
        f = poly.monic(poly.normalize(ext_poly, p), p)
    d = poly.degree(f)
    if d is poly.NEG_INF or d < 1:
        raise ReduciblePolynomial("extension polynomial must have degree >= 1")
    if not poly.is_irreducible(f, p):
        raise ReduciblePolynomial(f"extension polynomial {f} factors over F_{p}")
    # F_p[T]/(f) on the basis T^t: T^s * T^t = T^(s+t) mod f
    prod_tbl = np.zeros((d, d, d), dtype=np.int64)
    for s in range(d):
        for t in range(d):
            r = poly.divmod_poly([0] * (s + t) + [1], f, p)[1]
            prod_tbl[s, t, : len(r)] = r
    field = Algebra(p, prod_tbl, identity=np.eye(d, dtype=np.int64)[0],
                    validate=False)
    ring = matrix_ring(field, n)
    labels = [
        f"E[{a},{b}]T^{t}" if d > 1 else f"E[{a},{b}]"
        for a in range(n) for b in range(n) for t in range(d)
    ]
    algebra = Algebra(p, ring.sc, identity=ring.one, labels=labels)
    return Planted(spec=[(n, d)], algebra=algebra)


def direct_sum(parts):
    """Block-diagonal sum of presentations over the same prime field."""
    if not parts:
        raise ValueError("direct_sum needs at least one part")
    p = parts[0].p
    for part in parts[1:]:
        if part.p != p:
            raise ModulusMismatch(
                f"cannot sum presentations over F_{p} and F_{part.p}"
            )
    dim = sum(part.dim for part in parts)
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    one = np.zeros(dim, dtype=np.int64)
    labels = []
    off = 0
    for idx, part in enumerate(parts):
        k = part.dim
        sc[off : off + k, off : off + k, off : off + k] = part.sc
        one[off : off + k] = part.one
        part_labels = part.labels or [f"b{i}" for i in range(k)]
        labels.extend(f"s{idx}:{lab}" for lab in part_labels)
        off += k
    return Algebra(p, sc, identity=one, labels=labels)


def build_planted(spec, p):
    """Planted direct sum for a list of (n_i, d_i) pairs."""
    parts = []
    for n_i, d_i in spec:
        f = poly.find_irreducible(d_i, p) if d_i > 1 else None
        parts.append(matrix_algebra(p, n_i, f).algebra)
    algebra = direct_sum(parts) if len(parts) > 1 else parts[0]
    return Planted(spec=sorted(spec), algebra=algebra)


# -- scrambling ---------------------------------------------------------------------


def scramble(A, seed):
    """Random invertible change of basis; new basis b'_j = sum_i S[i,j] b_i.

    Returns (scrambled presentation, S).  Rejection-samples S until it is
    invertible, capped at SCRAMBLE_DRAW_CAP draws.
    """
    rng = random.Random(seed)
    n, p = A.dim, A.p
    S = Sinv = None
    for _ in range(SCRAMBLE_DRAW_CAP):
        cand = np.array(
            [[rng.randrange(p) for _ in range(n)] for _ in range(n)],
            dtype=np.int64,
        )
        inv = linalg.inverse(cand, p)
        if inv is not None:
            S, Sinv = cand, inv
            break
    if S is None:
        raise InternalSamplingFailure(
            f"no invertible matrix found in {SCRAMBLE_DRAW_CAP} draws"
        )
    # X[a, j, k] = sum_i S[i, a] c[i, j, k], then Y[a, b, k] = sum_j
    # S[j, b] X[a, j, k] as a stacked product, then Z = Y in the new basis
    X = A.left(S.T)
    Y = linalg.matmul_mod(S.T, X, p)
    Z = linalg.matmul_mod(Y.reshape(n * n, n), Sinv.T, p).reshape(n, n, n)
    one = linalg.matmul_mod(Sinv, A.one[:, None], p)[:, 0]
    return Algebra(p, Z, identity=one), S
