"""Import lindosc afresh from one source tree; shared by the tools that
compare trees in one process.

    from fresh_import import import_lindosc
    cli, observables = import_lindosc("base/src", "cli", "observables")

Every tool runs as ``python tools/<name>.py``, which puts this directory
first on ``sys.path``. Needs only the standard library.
"""

from __future__ import annotations

import importlib
import os
import sys


def import_lindosc(src: str, *names: str) -> tuple:
    """The named submodules of lindosc from the tree at src, imported
    afresh: every lindosc module imported before is dropped first, so a
    second tree shares no module with the first, and src leaves
    ``sys.path`` again once they are imported. Exits if any of them came
    from elsewhere."""
    src = os.path.abspath(src)
    for k in [k for k in sys.modules
              if k == "lindosc" or k.startswith("lindosc.")]:
        del sys.modules[k]
    sys.path.insert(0, src)
    try:
        mods = tuple(importlib.import_module(f"lindosc.{name}")
                     for name in names)
    finally:
        sys.path.remove(src)
    for mod in mods:
        path = os.path.abspath(mod.__file__)
        if not path.startswith(src + os.sep):
            raise SystemExit(f"lindosc imported from {path}, not {src}")
    return mods
