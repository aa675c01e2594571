"""Shared benchmark fixtures."""

import pytest


@pytest.fixture(scope="module")
def fresh_result_file(request, tmp_path_factory):
    """This module's report file, new in a directory of the session's
    temp tree: a pytest run leaves the committed ``results/*.txt`` as
    they are (only a gated script's own plain run writes those)."""
    return str(tmp_path_factory.mktemp("results") / request.module.REPORT_FILE)
