"""Wall-clock gates: each compares two timings taken on the same host.

``pytest benchmarks -q`` applies the full thresholds; ``--smoke`` applies
the looser ones (and the smaller populations) meant for shared CI runners.
The gates record nothing: they pass or fail.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        help="apply the smoke thresholds and sizes instead of the full ones",
    )


@pytest.fixture
def smoke(request):
    return request.config.getoption("smoke")
