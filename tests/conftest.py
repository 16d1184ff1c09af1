"""Fixtures shared by the test modules."""

import pytest

from etaforge import indexing


@pytest.fixture(autouse=True)
def _cold_sections(request):
    """A test that patches (it requests monkeypatch) starts and ends with
    an empty section memo (indexing._SECTIONS): a patched kernel, recorder
    or counter runs cold, and no integer it computed is left behind."""
    patches = "monkeypatch" in request.fixturenames
    if patches:
        indexing._SECTIONS.clear()
    yield
    if patches:
        indexing._SECTIONS.clear()
