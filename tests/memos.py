"""Every memo of the library, found by one walk when this module is imported.

A memo is a module-level object of a `unicoh.*` module that has
`cache_parameters`.  The walk runs at import, before any test patches a
module, so `MEMOS` holds the memoised functions themselves and not a wrapper
a test put in their place.
"""

import importlib
import pkgutil

import unicoh


def _walk() -> tuple:
    found = {}
    for info in pkgutil.iter_modules(unicoh.__path__):
        module = importlib.import_module(f"unicoh.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_parameters"):
                found[id(obj)] = obj
    return tuple(found.values())


MEMOS = _walk()


def clear_memos() -> None:
    for memo in MEMOS:
        memo.cache_clear()
