import numpy as np
import pytest

from mixedwalk.errors import DomainError, InvalidGraphError, whole


def test_whole_reads_integers_only():
    for value in (7, np.int64(7), np.uint8(7)):
        assert whole(value, "x") == 7 and type(whole(value, "x")) is int
    for bad in (7.0, np.float64(7), "7", None, True, np.bool_(False)):
        with pytest.raises(DomainError):
            whole(bad, "x")


def test_whole_checks_the_bound_and_raises_the_callers_class():
    assert whole(3, "x", 3) == 3
    assert whole(-5, "x") == -5  # no bound unless one is given
    with pytest.raises(InvalidGraphError):
        whole(2, "x", 3, InvalidGraphError)
    with pytest.raises(InvalidGraphError):
        whole(2.5, "x", 1, InvalidGraphError)
