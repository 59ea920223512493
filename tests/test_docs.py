"""README "Limits" names constants with their values; keep them in step."""

import importlib
import pkgutil
import re
from pathlib import Path

import concdim

README = Path(__file__).resolve().parents[1] / "README.md"

# `NAME` = value, the value an integer with optional thousands separators
_CLAIM = re.compile(r"`([A-Z][A-Z0-9_]*)` = (\d{1,3}(?:[ ,  ]\d{3})+|\d+)(?![\d.^])")


def limits_claims(text: str) -> list[tuple[str, int]]:
    """The ``(NAME, value)`` pairs of the README's "Limits" section."""
    section = text.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    return [(name, int(re.sub(r"\D", "", value)))
            for name, value in _CLAIM.findall(section)]


def package_values(name: str) -> set:
    """Every value `name` has in a module of the package."""
    modules = [importlib.import_module(f"concdim.{m.name}")
               for m in pkgutil.iter_modules(concdim.__path__)]
    return {getattr(mod, name) for mod in modules if hasattr(mod, name)}


def test_limits_section_names_real_constants():
    claims = limits_claims(README.read_text())
    assert len(claims) >= 5
    for name, value in claims:
        assert package_values(name) == {value}, (name, value)
