"""The public surface: the README's Library section lists exactly the names
`phasecoord` exports, each under the module that defines it."""

import importlib
from pathlib import Path
from types import ModuleType

import phasecoord

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_exports() -> dict[str, list[str]]:
    """{module: names} from the README's list of exported names."""
    text = README.read_text("utf-8").split("The package exports these names", 1)[1]
    block = text.split("```text\n", 1)[1].split("```", 1)[0]
    out: dict[str, list[str]] = {}
    module = None
    for line in block.splitlines():
        if not line.startswith(" "):  # "module: names ...", continued indented
            module, _, line = line.partition(":")
        out.setdefault(module, []).extend(line.split())
    return out


def test_readme_names_the_exported_api():
    listed = readme_exports()
    names = [name for names in listed.values() for name in names]
    exported = [name for name, value in vars(phasecoord).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)]
    assert sorted(names) == sorted(exported)
    for module, names in listed.items():
        defining = importlib.import_module(f"phasecoord.{module}")
        for name in names:
            assert getattr(defining, name) is getattr(phasecoord, name), (module, name)
