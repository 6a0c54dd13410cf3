"""The public surface: the README's Library section lists exactly the names
`phasecoord` exports, each under the module that defines it; and a package
imported again leaves no earlier copy alive."""

import importlib
import os
import subprocess
import sys
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


def test_a_package_imported_again_frees_its_earlier_copy():
    """Nothing outside the package, such as typing's cache of `Union`s, keeps
    the classes of an earlier copy, and through their methods the whole of
    its modules.  Run in a fresh interpreter, since it drops `phasecoord`
    from `sys.modules`."""
    root = Path(__file__).resolve().parent.parent
    script = (
        "import gc, importlib, sys, weakref\n"
        "import phasecoord.cli\n"
        "from phasecoord import engine, properties\n"
        "kept = [weakref.ref(cls) for cls in (engine.RuleStep, engine.DetailedStep,\n"
        "        properties.Or, properties.InState, properties.EventuallyAll)]\n"
        "del engine, properties\n"
        "for name in [n for n in sys.modules if n.split('.')[0] == 'phasecoord']:\n"
        "    del sys.modules[name]\n"
        "del phasecoord\n"
        "importlib.import_module('phasecoord.cli')\n"
        "gc.collect()\n"
        "print(sum(ref() is not None for ref in kept))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0\n"
