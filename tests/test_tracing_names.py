"""The benchmark tracer wraps tanglekit functions by name; keep them alive."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for modname, names in tracing.LAYERS.values():
        module = importlib.import_module(f"tanglekit.{modname}")
        for qual in names:
            if "." in qual:
                cls_name, meth = qual.split(".")
                assert meth in vars(getattr(module, cls_name)), f"{modname}.{qual}"
            else:
                assert callable(getattr(module, qual, None)), f"{modname}.{qual}"
