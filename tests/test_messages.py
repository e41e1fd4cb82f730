"""Each rule a ValueError reports is stated at one raise site in src/."""
import ast
from collections import defaultdict
from pathlib import Path

import groversim

SOURCE = Path(groversim.__file__).parent


def _template(node: ast.expr) -> str | None:
    """The message of a string or f-string literal, with {} for each replacement field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return None


def value_error_templates() -> dict[str, list[str]]:
    """Message template -> the file:line of every `raise ValueError(<literal>)` under src/."""
    sites = defaultdict(list)
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "ValueError" and call.args):
                template = _template(call.args[0])
                if template is not None:
                    sites[template].append(f"{path.name}:{node.lineno}")
    return sites


def test_no_two_value_errors_share_a_message():
    sites = value_error_templates()
    assert len(sites) > 40  # the walk found the package's checks
    assert {t: where for t, where in sites.items() if len(where) > 1} == {}
