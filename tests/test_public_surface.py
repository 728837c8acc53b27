"""The public surface holds only what something calls.

Each function or constant in omniprefill.__all__ must be named in cli.py, in
a demo, under bench/, or in a package module other than the one that
defines it. The package's __init__ only re-exports, so it does not count.
Classes (result, error and oracle types) are not checked.
"""

import pathlib
import re

import omniprefill

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "omniprefill"


def test_every_public_function_and_constant_has_a_caller():
    texts = {path: path.read_text(encoding="utf-8") for path in
             (*SRC.glob("*.py"), *ROOT.glob("demos/*.py"),
              *ROOT.glob("bench/**/*.py"))
             if path.name != "__init__.py"}
    unused = []
    for name in omniprefill.__all__:
        if isinstance(getattr(omniprefill, name), type):
            continue
        defines = re.compile(rf"^(def {name}\b|{name} = )", re.MULTILINE)
        own = [path for path, text in texts.items()
               if path.parent == SRC and defines.search(text)]
        assert len(own) == 1, f"{name} is defined in {own}"
        named = re.compile(rf"\b{name}\b")
        if not any(named.search(text) for path, text in texts.items()
                   if path != own[0]):
            unused.append(f"{name} ({own[0].name})")
    assert not unused, ("public names that no CLI command, demo, bench "
                        "file or other module names: " + ", ".join(unused))
