import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--heavy", action="store_true", default=False,
        help="run the flag-gated heavy checks (big closures, duality searches)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "heavy: flag-gated checks that need --heavy"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--heavy"):
        return
    skip = pytest.mark.skip(reason="needs --heavy")
    for item in items:
        if "heavy" in item.keywords:
            item.add_marker(skip)
