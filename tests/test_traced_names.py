"""Every span that `perfbench/tracing.py` reads names a traced function of the package.

A span `layer.function` is a public function defined in `gesturegen.layer`, and
`layer.Class.method` a function defined on that class, as `Tracer.install` wraps
them. A renamed or deleted function would otherwise only zero a per-layer metric.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    tracing = _tracing()
    names = {span for _, _, span in tracing.SPAN_METRICS}
    names |= {".".join(method) for method in tracing.METHODS}
    names.add("denoiser.training_step")  # read for the step-time percentiles
    return sorted(names)


@pytest.mark.parametrize("span", _spans())
def test_traced_span_resolves(span):
    layer, *path = span.removesuffix(".bwd").split(".")  # a backward span names its forward
    module = importlib.import_module(f"gesturegen.{layer}")
    if len(path) == 1:
        fn = getattr(module, path[0], None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, span
        assert not path[0].startswith("_"), span
    else:
        cls_name, method = path
        assert inspect.isfunction(vars(getattr(module, cls_name)).get(method)), span
