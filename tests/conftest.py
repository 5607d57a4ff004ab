import pytest

from edgebetti.atlas import compute_atlas


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run the gated exhaustive n = 7 suites",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow exhaustive run; pass --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


_ATLAS_CACHE = {}


@pytest.fixture(scope="session")
def atlas_for():
    """Session-wide atlas cache: every n = 6 run takes seconds, so tests share one."""

    def get(n, field_tag="q"):
        key = (n, field_tag)
        if key not in _ATLAS_CACHE:
            _ATLAS_CACHE[key] = compute_atlas(n, field_tag)
        return _ATLAS_CACHE[key]

    return get
