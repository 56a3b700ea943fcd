"""The README names real code.

Every backticked dotted reference `module.name` in README.md whose module
is a spectop module must resolve with getattr, so a change that deletes or
renames a function the README still names fails here.  File names such as
`rings.py` are not references, and fenced code blocks are skipped.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import spectop

README = Path(__file__).resolve().parents[1] / "README.md"


def _references() -> set[str]:
    modules = {m.name for m in pkgutil.iter_modules(spectop.__path__)}
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    refs = set()
    for span in re.findall(r"`([^`]+)`", text):
        for ref in re.finditer(r"\b(\w+)((?:\.\w+)+)", span):
            if ref.group(1) in modules and not ref.group(0).endswith(".py"):
                refs.add(ref.group(0))
    return refs


def test_every_readme_reference_resolves():
    refs = _references()
    assert len(refs) >= 20
    missing = []
    for ref in sorted(refs):
        mod_name, *attrs = ref.split(".")
        obj = importlib.import_module(f"spectop.{mod_name}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(ref)
    assert missing == []
