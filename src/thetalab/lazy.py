"""Modules imported on first use.

numpy takes about 0.15 s to import.  A run that only reads cached
coefficients never calls it, so the modules that use it import it through
`lazy_module` and pay for it on the first attribute access.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_module(name: str) -> ModuleType:
    """The module `name`, registered in sys.modules and executed on first use."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module
