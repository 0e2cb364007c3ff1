import pytest

from eorec import build_stores


@pytest.fixture(scope="session")
def stores():
    """Calibrated stores for the three probe framings, shared per session."""
    return build_stores([1, 2, 3])


@pytest.fixture(scope="session")
def store_f1(stores):
    return stores[0]


@pytest.fixture(scope="session")
def audit_stores():
    """Stores that contract every entry, with no string and dilaton fill."""
    return build_stores([1, 2, 3], audit=True)
