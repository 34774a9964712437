"""Every layer that the benchmark's tracer wraps names a callable that exists.

``perfbench/tracer.py`` wraps each row of its ``LAYERS`` table by module and
attribute name, so a renamed or moved layer function would otherwise show
only in a traced benchmark run.  This test reads the table; it changes
nothing under ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


def test_the_table_is_not_empty():
    assert len(LAYERS) >= 3


@pytest.mark.parametrize(
    "layer, module_name, attribute, class_name, counts",
    LAYERS,
    ids=[f"{row[0]}:{row[2]}" for row in LAYERS],
)
def test_layer_resolves_to_a_callable(layer, module_name, attribute, class_name, counts):
    holder = importlib.import_module(module_name)
    if class_name is not None:
        holder = getattr(holder, class_name)
    assert callable(getattr(holder, attribute))
    assert counts is None or callable(counts)
