"""Shared SPD and rank helpers."""

import numpy as np
import pytest

from treesched._linalg import covariance_update, matrix_rank, spd_inverse
from treesched.errors import SingularMatrix


def test_spd_inverse_rejects_indefinite_matrix():
    with pytest.raises(SingularMatrix):
        spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_rank_of_zero_matrix_is_zero():
    assert matrix_rank(np.zeros((3, 2))) == 0
    assert matrix_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def test_covariance_update_rejects_indefinite_innovation():
    """C M C^T + r = -1 here; the failed Cholesky is a SingularMatrix, alone
    or inside a stack, never a bare LinAlgError."""
    M = np.array([[1.0, 2.0], [2.0, 1.0]])
    C, r = np.array([[1.0, -1.0]]), np.array([1.0])
    with pytest.raises(SingularMatrix):
        covariance_update(M, C, r)
    with pytest.raises(SingularMatrix):
        covariance_update(np.stack([np.eye(2), M]), C, r)
