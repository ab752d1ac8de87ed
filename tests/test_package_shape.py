import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import qcontain

# parameters with a default across the package; a new knob has to be argued for.
# The one left is cli.main(argv=None), which the console script calls.
MAX_DEFAULTED_PARAMETERS = 1


def package_functions():
    """(name, function) for every module-level function and class method in
    qcontain, dataclass ``__init__``s excluded."""
    for info in pkgutil.iter_modules(qcontain.__path__):
        module = importlib.import_module(f"qcontain.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for method_name, method in vars(obj).items():
                    method = getattr(method, "__func__", method)  # staticmethod, classmethod
                    if not inspect.isfunction(method):
                        continue
                    if method_name == "__init__" and dataclasses.is_dataclass(obj):
                        continue
                    yield f"{module.__name__}.{name}.{method_name}", method


def test_parameters_with_a_default_do_not_grow():
    defaulted = [
        f"{name}({p.name})"
        for name, function in package_functions()
        for p in inspect.signature(function).parameters.values()
        if p.default is not p.empty
    ]
    assert len(defaulted) <= MAX_DEFAULTED_PARAMETERS, defaulted


def test_the_count_sees_functions_and_methods():
    names = {name for name, _ in package_functions()}
    assert "qcontain.qae.qae_influence" in names
    assert "qcontain.graph.ProblemInstance.without_edges" in names
    assert not any(name.endswith("AmplitudeEstimate.__init__") for name in names)


def test_only_graph_calls_without_edges():
    # an estimator leaves a removal's arcs dead on the instance's own arcs;
    # the subgraph is the tests' reference, never an estimator's path
    modules = sorted(Path(qcontain.__file__).parent.glob("*.py"))
    assert "graph.py" in {path.name for path in modules}
    callers = {
        path.name
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "without_edges"
    }
    assert callers <= {"graph.py"}, sorted(callers)
