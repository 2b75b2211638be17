"""Session-wide test set-up."""

import pytest

from wtalab import cli


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run every test with BLAS on one thread, as the CLI runs its commands.

    The thread count changes the bits of a product, so in-process training
    here then gives the bytes that `wtalab train` gives, on any host.
    """
    with cli.one_blas_thread():
        yield
