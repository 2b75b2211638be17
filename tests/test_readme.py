"""The README's library example must name only what the package exports."""

import re
from pathlib import Path

import wtalab

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_section() -> str:
    text = README.read_text()
    start = text.index("## Library use")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_library_use_import_runs():
    code = re.search(r"```python\n(.*?)```", library_use_section(), re.S).group(1)
    imports = re.findall(r"^from wtalab import \(.*?\)$", code, re.S | re.M)
    assert imports
    for statement in imports:
        exec(statement, {})


def test_library_use_names_exist():
    prose = re.sub(r"```.*?```", "", library_use_section(), flags=re.S)
    named = re.findall(r"`(?:(\w+)\.)?([A-Za-z_]\w*)[`(]", prose)
    assert named
    for module, name in named:
        owner = getattr(wtalab, module) if module else wtalab
        shown = f"{module}.{name}" if module else name
        assert hasattr(owner, name), f"README names {shown}, which wtalab lacks"
