"""Every entry point the perfbench tracer wraps must exist in the program.

`perfbench/spans.py` patches the names listed in its LAYERS table; a
rename or deletion there breaks `perfbench/run.py --trace 1` without
failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_name_resolves():
    missing = []
    for module_name, names in _layers().values():
        module = importlib.import_module(module_name)
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                # the tracer wraps the method found in the class's own __dict__
                cls = getattr(module, cls_name, None)
                ok = cls is not None and callable(vars(cls).get(meth))
            else:
                ok = callable(getattr(module, name, None))
            if not ok:
                missing.append(f"{module_name}.{name}")
    assert not missing, missing
