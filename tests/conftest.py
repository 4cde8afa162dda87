"""Fixtures shared by the test modules."""

import pytest

from mapthermo.operators import DensityMatrix, HermitianOperator
from reference import Superoperator


@pytest.fixture
def wrapper_builds(monkeypatch):
    """The class names of the boundary wrappers (`HermitianOperator`,
    `DensityMatrix`, `Superoperator`) built while the test runs, in order."""
    built = []
    for cls in (HermitianOperator, DensityMatrix, Superoperator):
        def counting(self, post_init=cls.__post_init__):
            built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return built
