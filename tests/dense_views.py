"""Dense views of the package's sparse matrices, shared by the tests."""

from mcdescent.linalg import Mat
from mcdescent.ratio import Q


def dense_rows(m) -> list:
    """The rows of the Mat m as dense tuples."""
    return [tuple(r.get(j, Q(0)) for j in range(m.cols)) for r in m._rows]


def from_dense_cols(cols, rows: int) -> Mat:
    """The rows x len(cols) Mat whose columns are the dense vectors cols."""
    return Mat.from_rows(cols, cols=rows).transpose()
