"""Oracles the tests share, built only from the public multiplication maps."""

from wedderburn import linalg


def hom_rows(A, f, e):
    """Canonical basis (rows) of f*A*e for idempotents f and e: the
    reduced-echelon basis of the image of x -> f x e, whose projector is
    rmat(e) @ lmat(f)."""
    proj = linalg.matmul_mod(A.rmat(e), A.lmat(f), A.p)
    return linalg.row_space_basis(proj.T, A.p)
