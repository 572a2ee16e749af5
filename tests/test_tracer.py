"""The benchmark's tracer still finds the functions it reads counts from.

benchmark/tracer.py wraps the public functions of the package's layer
modules and takes per-layer counts from the arguments and results of a
few of them (its PROBES).  Moving code between modules could leave a
probe on a function that no longer runs, and its metrics would read 0
with no error; these tests catch that.
"""

import ast
import importlib.util
import inspect
import sys

from test_cli import REPO, SHIPPED_CSV

from ghzforge.cli import main

TRACER_PATH = REPO / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_count_full_model_and_ladder_steps(tmp_path, capsys):
    tracer = load_tracer()
    recorder = tracer.Tracer()
    with recorder.installed():
        assert main([
            "validate-full", "--schedule", str(SHIPPED_CSV), "--factor", "3",
            "--compare-factor", "0", "--min-factor", "3", "--steps-per-cycle", "2",
        ]) == 0
        assert main(["propagate", "--schedule", str(SHIPPED_CSV), "--out", str(tmp_path / "r.json")]) == 0
    metrics = tracer.layer_metrics(recorder.spans, passes=1)
    assert metrics["fullmodel.steps"] > 0
    assert metrics["propagate.steps_final"] > 0


def test_probes_name_public_functions_that_take_the_arguments_they_read():
    tracer = load_tracer()
    tree = ast.parse(TRACER_PATH.read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    probes = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "PROBES"
    )
    targets = [ast.literal_eval(key) for key in probes.keys]
    assert set(targets) == set(tracer.PROBES)
    for (layer, name), probe in zip(targets, probes.values):
        body = functions[probe.id] if isinstance(probe, ast.Name) else probe
        # the keys the probe looks up in bound.arguments
        reads = {
            node.slice.value for node in ast.walk(body)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "arguments"
        }
        module = sys.modules[f"ghzforge.{layer}"]
        fn = vars(module).get(name)
        assert not name.startswith("_"), (layer, name)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, (layer, name)
        assert reads <= set(inspect.signature(fn).parameters), (layer, name, reads)
