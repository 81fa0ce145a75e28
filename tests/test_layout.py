"""Source-layout guards for the kdia package."""

import ast
import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

import numpy as np

from kdia import nn
from kdia.config import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kdia"
PERFBENCH_RUN = ROOT / "perfbench" / "run.py"
# span-name tables of the benchmark that must name kdia functions
SPAN_TABLES = ("STAGES", "PER_ROUND_S", "PER_ROUND_CALLS", "SUFFIX")
MODULES = {path.stem for path in SRC.glob("*.py")}


def private_cross_module_uses(source: str) -> list[str]:
    """``module._name`` accesses and ``from .module import _name`` imports
    that reach into another kdia module's private helpers."""
    tree = ast.parse(source)
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("kdia")
        ):
            for alias in node.names:
                if alias.name in MODULES:
                    aliases.add(alias.asname or alias.name)
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"line {node.lineno}: imports {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_guard_catches_private_access():
    assert private_cross_module_uses("from . import nn\nnn._helper(1)\n")
    assert private_cross_module_uses("from .nn import _helper\n")
    assert not private_cross_module_uses("from . import nn\nnn.forward(1)\n")


def test_no_module_uses_another_modules_private_helpers():
    offenders = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := private_cross_module_uses(path.read_text(encoding="utf-8")))
    }
    assert not offenders, offenders


def attribute_reads(source: str) -> set[str]:
    """Names read as ``<expr>.name`` anywhere in ``source``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_attribute_reads_sees_loads_only():
    assert attribute_reads("x = cfg.a.b\ncfg.c = 1\n") == {"a", "b"}


def test_every_config_key_is_read_outside_config():
    # a key that only config.py reads would be parsed, checked and ignored
    read = set().union(
        *(attribute_reads(path.read_text(encoding="utf-8"))
          for path in SRC.glob("*.py") if path.name != "config.py")
    )
    unread = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in read]
    assert not unread, unread


def perfbench_tables() -> dict:
    """The span-name tables of ``perfbench/run.py``, read without importing
    it: the tuples as tuples, ``SUFFIX`` as ``{span name: lambda node}``."""
    tables = {}
    for node in ast.parse(PERFBENCH_RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name == "SUFFIX":
                tables[name] = {
                    ast.literal_eval(k): v for k, v in zip(node.value.keys, node.value.values)
                }
            elif name in SPAN_TABLES:
                tables[name] = ast.literal_eval(node.value)
    return tables


def kdia_function(span: str):
    """The public function or method ``module.name`` or
    ``module.Class.method`` of kdia that a span name stands for, or None."""
    module, *path = span.split(".")
    if module not in MODULES or not 1 <= len(path) <= 2 or any(p.startswith("_") for p in path):
        return None
    owner = importlib.import_module(f"kdia.{module}")
    if len(path) == 2:
        owner = vars(owner).get(path[0])
        if not inspect.isclass(owner) or owner.__module__ != f"kdia.{module}":
            return None
    fn = vars(owner).get(path[-1])
    if not inspect.isfunction(fn) or fn.__module__ != f"kdia.{module}":
        return None
    return fn


def test_span_resolver_accepts_only_public_kdia_functions():
    assert kdia_function("aggregate.ModelRegistry.update") is not None
    assert kdia_function("nn.optimizer_step") is nn.optimizer_step
    for span in ("nn._target_rows", "nn.np", "nn.ModelParams", "nn.nothing", "numpy.sum",
                 "aggregate.ModelRegistry.update.x"):
        assert kdia_function(span) is None, span


def test_benchmark_span_names_resolve_to_public_kdia_functions():
    tables = perfbench_tables()
    assert set(tables) == set(SPAN_TABLES)
    suffixed = tables["SUFFIX"]
    unresolved = []
    for table in SPAN_TABLES:
        for span in tables[table]:
            base = next((k for k in suffixed if span.startswith(k + ".")), span)
            if kdia_function(base) is None:
                unresolved.append(f"{table}: {span}")
    assert not unresolved, unresolved


def test_benchmark_optimizer_suffix_reads_the_state_kind():
    lam = perfbench_tables()["SUFFIX"]["nn.optimizer_step"]
    # ``lambda args: "." + args[<index>].<attr>``
    read = lam.body.right
    assert isinstance(read, ast.Attribute) and isinstance(read.value, ast.Subscript)
    index, attr = ast.literal_eval(read.value.slice), read.attr
    param = list(inspect.signature(nn.optimizer_step).parameters)[index]
    assert typing.get_type_hints(nn.optimizer_step)[param] is nn.OptimizerState
    model = nn.ModelParams([(np.ones((2, 2)), np.zeros(2))], 1)
    states = (nn.sgd_state(model, 0.1), nn.adam_state(model, 0.1))
    kinds = {getattr(state, attr) for state in states}
    spans = {s for t in ("PER_ROUND_S", "PER_ROUND_CALLS") for s in perfbench_tables()[t]}
    assert {s.rsplit(".", 1)[1] for s in spans if s.startswith("nn.optimizer_step.")} == kinds


# the Dirichlet-concentration presets of gen_weight, which only config.py resolves
GEN_WEIGHT_PRESETS = ("GEN_WEIGHT_BY_BETA", "GEN_WEIGHT_FALLBACK")


def gen_weight_writes(source: str) -> list[str]:
    """Places that store a value under ``gen_weight`` (a dict key, a
    subscript, a keyword or an attribute) or name a gen_weight preset."""
    found = []
    for node in ast.walk(ast.parse(source)):
        stored, named = [], None
        if isinstance(node, ast.Dict):
            stored = [k.value for k in node.keys if isinstance(k, ast.Constant)]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            stored = [getattr(node.slice, "value", None)]
        elif isinstance(node, ast.keyword):
            stored = [node.arg]
        elif isinstance(node, ast.Attribute):
            stored = [node.attr] if isinstance(node.ctx, ast.Store) else []
            named = node.attr
        elif isinstance(node, ast.Name):
            named = node.id
        elif isinstance(node, ast.alias):
            named = node.name
        if "gen_weight" in stored or named in GEN_WEIGHT_PRESETS:
            found.append(f"line {getattr(node, 'lineno', '?')}: {ast.unparse(node)}")
    return found


def test_gen_weight_guard_catches_every_write():
    for source in (
        'changes = {"beta": b}\nchanges["gen_weight"] = -1.0\n',
        'changes = {"gen_weight": -1.0}\n',
        "cfg = dataclasses.replace(cfg, gen_weight=-1.0)\n",
        "cfg.gen_weight = 0.01\n",
        "from .config import GEN_WEIGHT_BY_BETA\n",
        "w = config.GEN_WEIGHT_FALLBACK\n",
    ):
        assert gen_weight_writes(source), source
    assert not gen_weight_writes("if cfg.gen_weight > 0.0:\n    w = cfg.gen_weight * ce\n")


def test_only_config_resolves_gen_weight():
    offenders = {
        path.name: writes
        for path in sorted(SRC.glob("*.py"))
        if path.name != "config.py"
        and (writes := gen_weight_writes(path.read_text(encoding="utf-8")))
    }
    assert not offenders, offenders
