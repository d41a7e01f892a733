"""Jacobson radical over F_p, certified in every odd characteristic.

The radical is the last stage of a descending chain of ideals (Cohen,
Ivanyos & Wales, "Finding the radical of an algebra of linear
transformations", JPAA 1997).  With L~_z the matrix of left multiplication
by z lifted to the integers, g_i(z) = (Tr(L~_z^(p^i)) mod p^(i+1)) / p^i.
R_0 is the kernel of the trace form (g_0), and while p^i <= dim, R_i is
{x in R_{i-1} : g_i(xy) = 0 for all y in A}.  By CIW's theorem g_i is
well defined and F_p-linear on R_{i-1}, and the last stage is the radical.
Well defined rests on their lemma: X = Y (mod p) gives Tr(X^(p^i)) =
Tr(Y^(p^i)) (mod p^(i+1)), though the powers themselves differ when X and
Y do not commute.  On R_{i-1} each trace is divisible by p^i, since
Tr(X^(p^i)) = Tr(X^(p^(i-1))) (mod p^i) for an integer matrix X (the
Gauss congruence) and g_{i-1} vanishes there.  One inclusion rests on the
theorem:

  * I inside rad is checked: a nonzero final stage I is accepted only
    after an explicit check that it is a two-sided ideal with vanishing
    power, which forces it inside the radical;
  * rad inside I rests on the theorem, which puts rad inside every
    {x in R_{i-1} : g_i(xy) = 0 for all y}, while linearity makes the
    computed R_i that set.  So a zero final stage proves semisimplicity.

A failed check, or a trace not divisible by p^i, refuses the input rather
than guess.  For p > dim the chain is the single trace-form stage.

Stage 0 costs O(dim^3).  A stage past it, on the m RREF rows u_r of
R_{i-1}, costs O(m dim^3 log p^i): the stack of the L_{u_r}, lifted to
[0, p), goes to the power p^i modulo p^(i+1) in about 2 log2(p^i) stacked
products on linalg's exact kernel (BLAS), which gives g_i(u_r).  The
products u_s b_j must lie in R_{i-1} (else the input is refused), where
g_i is read off their entries on its pivot columns, so every g_i(u_s b_j)
comes from one pair_products and one product.  blocks.full_isomorphism
runs the chain only when its checked decomposition fails: to certify the
radical it rejects with, or that it is zero.  Each call computes the chain
afresh, and the ideal and nilpotency checks multiply a chunk of rows at a
time.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NotSemisimple, UnsupportedCharacteristic


@dataclass
class RadicalReport:
    """Certified radical of a presentation.

    rows: canonical (reduced echelon) basis of the radical, one row each.
    stage_dims: dimension after each chain stage, for diagnostics.
    nilpotency_index: least m with rad^m = 0; 0 when the radical is zero.
    """

    rows: np.ndarray
    stage_dims: list = field(default_factory=list)
    nilpotency_index: int = 0

    @property
    def is_semisimple(self):
        return self.rows.shape[0] == 0


# int64 entries of one stack of left multiplication matrices (8 MB), or of
# a chunk of products; the power traces' temporaries are a few times that
_CHUNK_ENTRIES = 2**20


def _stage_form(A, rows, k):
    """B[s, j] = g_i(u_s b_j) for the RREF rows u of a stage R, k = p^i.

    A chunk of rows through A.left, of at most _CHUNK_ENTRIES entries, is
    one stack of the matrices L_{u_s}^T, lifted to [0, p), and of the
    products u_s b_j.  k must divide each Tr(L^k) mod pk, the quotient
    being g_i(u_s), and each product must lie in R (as it does when R = A),
    or the input is refused.  The coordinates of a v in R are its entries
    on R's pivot columns, so g_i(v) = v . gamma with gamma = g_i(u_r) at
    pivots[r] and 0 elsewhere, and B = rows M for M[l, j] = (b_l b_j) .
    gamma: one pair_products, as for the trace form's gram matrix.
    """
    m, n, p = rows.shape[0], A.dim, A.p
    pivots = np.argmax(rows != 0, axis=1)
    gamma = np.zeros(n, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // (n * n))
    for lo in range(0, m, step):
        L = A.left(rows[lo : lo + step])
        if m < n and linalg.reduce_rows(rows, pivots, L.reshape(-1, n),
                                        p).any():
            raise UnsupportedCharacteristic(
                f"radical chain stage is not a right ideal at p={p}, "
                f"dim={n}; refusing to decide semisimplicity"
            )
        traces = linalg.power_traces(L, k, p * k)
        if (traces % k).any():
            raise UnsupportedCharacteristic(
                f"a lifted power's trace is not divisible by {k} at p={p}, "
                f"dim={n}; refusing to decide semisimplicity"
            )
        gamma[pivots[lo : lo + step]] = traces // k
    M = A.pair_products(gamma[:, None]).reshape(n, n)
    return linalg.matmul_mod(rows, M, p)


def trace_kernel(A):
    """Stage 0 of the chain: canonical basis (rows) of the kernel of the
    trace form, in O(dim^3)."""
    return linalg.row_space_basis(linalg.kernel(A.gram_matrix(), A.p), A.p)


def _chain(A):
    p, n = A.p, A.dim
    rows = trace_kernel(A)
    stage_dims = [rows.shape[0]]
    k = p
    while k <= n and rows.shape[0] > 0:
        null = linalg.kernel(_stage_form(A, rows, k).T, p)
        rows = linalg.row_space_basis(linalg.matmul_mod(null, rows, p), p)
        stage_dims.append(rows.shape[0])
        k *= p
    return rows, stage_dims


def _verify_two_sided_ideal(A, rows):
    """Whether every b_i r and r b_i lies in the span of the rows r, a
    chunk of rows (_CHUNK_ENTRIES) at a time: False at the first outside."""
    R, pivots = linalg.row_echelon(rows, A.p)
    n = A.dim
    step = max(1, _CHUNK_ENTRIES // (n * n))
    for lo in range(0, rows.shape[0], step):
        for side in (A.right, A.left):  # b_i * r, then r * b_i
            prods = side(rows[lo : lo + step]).reshape(-1, n)
            if linalg.reduce_rows(R, pivots, prods, A.p).any():
                return False
    return True


def _verify_nilpotent(A, rows):
    """Least m with span^m = 0, or None if the chain fails to shrink.

    span^m is folded into one RREF a chunk (_CHUNK_ENTRIES) of the rows of
    span^(m-1) at a time; None as soon as it reaches their dimension."""
    n, p = A.dim, A.p
    step = max(1, _CHUNK_ENTRIES // (n * n))
    cur = rows
    for m in range(2, n + 2):
        nxt = np.zeros((0, n), dtype=np.int64)
        for lo in range(0, cur.shape[0], step):
            prods = A.products(cur[lo : lo + step], rows).reshape(-1, n)
            nxt = linalg.row_space_basis(np.concatenate([nxt, prods]), p)
            if nxt.shape[0] >= cur.shape[0]:
                return None
        if nxt.shape[0] == 0:
            return m
        cur = nxt
    return None


def radical_report(A):
    """Compute and certify the radical."""
    A.require_associative()
    rows, stage_dims = _chain(A)
    if rows.shape[0] == 0:
        return RadicalReport(rows.reshape(0, A.dim), stage_dims, 0)
    if not _verify_two_sided_ideal(A, rows):
        raise UnsupportedCharacteristic(
            f"radical candidate is not an ideal at p={A.p}, dim={A.dim}; "
            "refusing to decide semisimplicity"
        )
    index = _verify_nilpotent(A, rows)
    if index is None:
        raise UnsupportedCharacteristic(
            f"radical candidate is not nilpotent at p={A.p}, dim={A.dim}; "
            "refusing to decide semisimplicity"
        )
    return RadicalReport(rows, stage_dims, index)


def require_semisimple(A):
    """Return the report for a semisimple A, else raise with the radical."""
    report = radical_report(A)
    if not report.is_semisimple:
        raise NotSemisimple(report.rows)
    return report
