"""Jacobson radical over F_p, certified in every odd characteristic.

The radical is computed as a descending chain of ideals: R_0 is the kernel
of the trace form, and while p^i does not exceed the dimension, R_i is
{x in R_{i-1} : g_i(xy) = 0 for all y in A}, where g_i(z) = c_{p^i}(z) and
c_k(z) is the coefficient of T^(n-k) in the characteristic polynomial of
left multiplication by z.  On the ideal R_{i-1}, g_i is additive, and so
F_p-linear (Ronyai, "Computing the structure of finite algebras", JSC
1990; Cohen, Ivanyos & Wales, "Finding the radical of an algebra of linear
transformations", JPAA 1997).  That lemma is what makes a stage cheap, and
one inclusion rests on it:

  * I inside rad is checked: a nonzero final stage I is accepted only
    after an explicit check that it is a two-sided ideal with vanishing
    power, which forces it inside the radical;
  * rad inside I rests on the lemma.  rad lies in every
    {x in R_{i-1} : g_i(xy) = 0 for all y} (left multiplication by a
    radical multiple is nilpotent, so all its lower characteristic
    coefficients vanish), and the lemma makes the computed R_i that set.
    So a zero final stage proves semisimplicity given the lemma.

If the explicit check ever failed the input would be refused rather than
guessed at.  For p > dim the chain is the single trace-form stage.

Stage 0 costs O(dim^3).  A stage past it, which runs only while p <= dim,
takes the m RREF rows u_r of R_{i-1} and costs O(m dim^3): one
characteristic polynomial per row gives g_i(u_r), and the products u_s b_j,
which must lie in R_{i-1} (else the input is refused, as a failed ideal
check is), have their coordinates in R_{i-1} on its pivot columns, so by
linearity g_i(u_s b_j) is one matrix-vector product away.  At every p
blocks.full_isomorphism first tries the decomposition, whose checked
certificate proves semisimplicity on its own, and runs the chain only when
that fails: to certify the radical it rejects with, or to certify that it
is zero.  Nothing is kept on the presentation: each call computes the
chain afresh.  The explicit ideal and nilpotency checks use
Algebra.products.
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


# int64 entries of one stack of left multiplication matrices (8 MB);
# char_poly's temporaries are a few times that, whatever the stage's size
_CHUNK_ENTRIES = 2**20


def _char_coeff_form(A, rows, k):
    """B[s, j] = c_k(u_s b_j) for the RREF rows u of a stage R, from one
    characteristic polynomial per row.

    The rows go through A.left in chunks of at most _CHUNK_ENTRIES entries:
    a chunk is one stack of the matrices L_{u_s}^T for char_poly, which
    gives c_k(u_s), and its products u_s b_j.  Each product must lie in R,
    or the input is refused; then its coordinates in the u_r are its
    entries on R's pivot columns, and since c_k is linear on R,
    B[s, j] = sum_r (u_s b_j)[pivots[r]] c_k(u_r).
    """
    m, n, p = rows.shape[0], A.dim, A.p
    pivots = np.argmax(rows != 0, axis=1)
    g = np.empty(m, dtype=np.int64)
    coords = np.empty((m, n, m), dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // (n * n))
    for lo in range(0, m, step):
        L = A.left(rows[lo : lo + step])
        if linalg.reduce_rows(rows, pivots, L.reshape(-1, n), p).any():
            raise UnsupportedCharacteristic(
                f"radical chain stage is not a right ideal at p={p}, "
                f"dim={n}; refusing to decide semisimplicity"
            )
        g[lo : lo + step] = linalg.char_poly(L, p)[:, n - k]
        coords[lo : lo + step] = L[:, :, pivots]
    return linalg.matmul_mod(
        coords.reshape(m * n, m), g[:, None], p
    ).reshape(m, n)


def trace_kernel(A):
    """Stage 0 of the chain: canonical basis (rows) of the kernel of the
    trace form (c_1 is minus the trace), in O(dim^3)."""
    return linalg.row_space_basis(linalg.kernel(A.gram_matrix(), A.p), A.p)


def _chain(A):
    p, n = A.p, A.dim
    rows = trace_kernel(A)
    stage_dims = [rows.shape[0]]
    k = p
    while k <= n and rows.shape[0] > 0:
        null = linalg.kernel(_char_coeff_form(A, rows, k).T, p)
        rows = linalg.row_space_basis(linalg.matmul_mod(null, rows, p), p)
        stage_dims.append(rows.shape[0])
        k *= p
    return rows, stage_dims


def _verify_two_sided_ideal(A, rows):
    R, pivots = linalg.row_echelon(rows, A.p)
    prods = np.concatenate([
        A.right(rows).reshape(-1, A.dim),  # b_i * r
        A.left(rows).reshape(-1, A.dim),  # r * b_i
    ])
    return not linalg.reduce_rows(R, pivots, prods, A.p).any()


def _verify_nilpotent(A, rows):
    """Least m with span^m = 0, or None if the chain fails to shrink."""
    cur = rows
    for m in range(2, A.dim + 2):
        nxt = linalg.row_space_basis(
            A.products(cur, rows).reshape(-1, A.dim), A.p
        )
        if nxt.shape[0] == 0:
            return m
        if nxt.shape[0] >= cur.shape[0]:
            return None
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
