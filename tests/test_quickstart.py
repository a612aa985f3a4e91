"""The quick start in the package docstring runs as written."""

import doctest

import objlog


def test_the_package_quick_start_runs():
    result = doctest.testmod(objlog)
    assert result.attempted > 0
    assert result.failed == 0
