"""The library example in README.md runs as written, and what it cites
of the code exists."""

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


def test_readme_command_lines_parse():
    # every cellpp command of the shell blocks parses with the real
    # parser (nothing runs), so a renamed or deleted flag cannot stay
    # in the README
    import shlex

    from cellpp.cli import _build_parser

    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines
                if line.startswith("cellpp ")]
    assert len(commands) == 7
    for argv in commands:
        _build_parser().parse_args(argv[1:])


def test_readme_flags_are_options():
    # every --flag in a backticked span of the prose is an option of
    # some subcommand, so prose cannot keep a flag the parser dropped
    # (test_readme_command_lines_parse checks the shell blocks)
    import argparse

    from cellpp.cli import _build_parser

    subcommands = next(a for a in _build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    options = {o for p in subcommands.choices.values()
               for o in p._option_string_actions}
    prose = re.sub(r"^```.*?^```", "", README.read_text(),
                   flags=re.M | re.S)
    cited = {flag for span in re.findall(r"`([^`]*)`", prose)
             for flag in re.findall(r"--[a-z][\w-]*", span)}
    assert len(cited) >= 10
    assert sorted(cited - options) == []


def test_readme_pipeline_config_names_every_key():
    # the Pipeline config section names every config key, contrast
    # field, projection kind and projection key, and no snake_case name
    # besides them, so a new key cannot go undocumented and a deleted
    # one cannot stay documented
    from dataclasses import fields

    from cellpp.fitting import ContrastSpec
    from cellpp.pipeline import _PROJECTION_KEYS, PipelineConfig

    section = README.read_text().split("\n## Pipeline config\n")[1]
    section = section.split("\n## ")[0]
    names = ({f.name for f in fields(PipelineConfig)}
             | {f.name for f in fields(ContrastSpec)}
             | set(_PROJECTION_KEYS) | set().union(*_PROJECTION_KEYS.values()))
    assert sorted(n for n in names if f"`{n}`" not in section) == []
    snake = set(re.findall(r"`([a-z]\w*_\w+)`", section))
    assert sorted(snake - names) == []
