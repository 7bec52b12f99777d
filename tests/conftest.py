import pytest

from thetadim.verlinde import clear_memo


@pytest.fixture(autouse=True)
def empty_dimension_memo():
    """Each test starts and ends with an empty `dimension` memo, so a value
    computed under a patched closed sum cannot outlive its test."""
    clear_memo()
    yield
    clear_memo()
