import pytest

from poplab import _compiled


@pytest.fixture
def compiled():
    if _compiled.library() is None:
        pytest.skip("no C compiler: the compiled loop is not built")
