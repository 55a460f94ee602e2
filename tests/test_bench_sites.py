"""The traced benchmark wraps functions by the name their callers look
them up under. A simplification that deletes or renames such a name
breaks the traced run; this test finds it without running the bench."""

import importlib.util
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "spans", os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                          "spans.py"))
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _, _ in spans.SITES],
    ids=[f"{m.__name__}.{a}" for m, a, _, _ in spans.SITES])
def test_every_traced_site_resolves(module, attr):
    assert callable(getattr(module, attr, None))
