"""The package's settable surface: its parameters with a default, counted with ast."""

import ast
from pathlib import Path

import fluidpricing

# Each parameter with a default is a knob that tests and benchmarks must cover.  A
# change that adds one raises this bound in the same diff and says why it is needed.
MAX_DEFAULTED_PARAMETERS = 9


def _defaulted_parameters() -> list[str]:
    """'module.function(name=)' for every parameter with a default in the package."""
    found = []
    for path in sorted(Path(fluidpricing.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found += [f"{path.stem}.{getattr(node, 'name', 'lambda')}({a.arg}=)"
                          for a in named]
    return found


def test_parameters_with_a_default_do_not_grow():
    found = _defaulted_parameters()
    assert len(found) <= MAX_DEFAULTED_PARAMETERS, found
