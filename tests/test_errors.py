"""Tests for the exception hierarchy (repro.errors)."""

import pytest

from repro.errors import (
    ConvergenceError,
    DimensionError,
    InvalidInputError,
    ReproError,
)


def test_all_derive_from_repro_error():
    for exc in (InvalidInputError, DimensionError, ConvergenceError):
        assert issubclass(exc, ReproError)


def test_invalid_input_is_value_error():
    assert issubclass(InvalidInputError, ValueError)


def test_dimension_is_invalid_input():
    assert issubclass(DimensionError, InvalidInputError)


def test_runtime_family():
    assert issubclass(ConvergenceError, RuntimeError)


def test_catchable_as_base():
    with pytest.raises(ReproError):
        raise DimensionError("d=7")
