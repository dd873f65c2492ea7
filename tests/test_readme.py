"""The library example in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_module_names_resolve():
    # every backticked `module.NAME` of a cellpp module is an attribute
    # of that module, so a constant deleted from the code cannot stay
    # cited in the README
    import importlib
    import pkgutil

    import cellpp

    modules = {m.name for m in pkgutil.iter_modules(cellpp.__path__)}
    cited = {(m, name) for m, name in re.findall(r"`(\w+)\.(\w+)",
                                                 README.read_text())
             if m in modules}
    assert len(cited) >= 5
    missing = sorted(f"{m}.{name}" for m, name in cited
                     if not hasattr(importlib.import_module(f"cellpp.{m}"),
                                    name))
    assert missing == []
