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
PERFBENCH = ROOT / "perfbench"
PERFBENCH_RUN = PERFBENCH / "run.py"
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


# the calls that open, create or replace a path; only files.py makes them
FILE_CALLS = ("open", "io.open", "os.open", "os.makedirs", "os.mkdir", "os.replace", "os.rename")


def file_calls(source: str) -> list[str]:
    """Calls in ``source`` to one of ``FILE_CALLS``, bare or through ``os``/``io``,
    and imports of their names from ``os`` or ``io``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in FILE_CALLS:
            found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "io"):
            for alias in node.names:
                if f"{node.module}.{alias.name}" in FILE_CALLS:
                    found.append(f"line {node.lineno}: imports {node.module}.{alias.name}")
    return found


def test_file_call_guard_catches_every_form():
    for source in (
        "with open(p) as fh:\n    pass\n",
        "import os\nos.makedirs(d, exist_ok=True)\n",
        "import os\nos.replace(a, b)\n",
        "import io\nfh = io.open(p)\n",
        "from os import replace\n",
    ):
        assert file_calls(source), source
    for source in (
        "blob = files.read(p, ConfigError)\n",
        'flag = name.replace("_", "-")\n',
        "cfg = dataclasses.replace(cfg, rounds=1)\n",
        "ok = os.path.isdir(p)\n",
    ):
        assert not file_calls(source), source


def test_only_files_opens_creates_or_replaces_paths():
    offenders = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py" and (calls := file_calls(path.read_text(encoding="utf-8")))
    }
    assert not offenders, offenders


# public code with no caller in src/ or perfbench/ yet; ``kdia report``
# (ROADMAP item 4) is to read metrics files back through it
TEST_ONLY_EXCEPTIONS = ["harness.read_metrics"]


def public_definitions(source: str, module: str) -> dict[str, str]:
    """{``module.name`` or ``module.Class.method``: bare name} for every
    public top-level function and class of ``source`` and every public
    method of those classes."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[f"{module}.{node.name}"] = node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{module}.{node.name}.{item.name}"] = item.name
    return found


def loaded_names(source: str) -> set[str]:
    """Names ``source`` reads, bare (``f``) or as an attribute (``x.f``);
    an import alone reads nothing."""
    return attribute_reads(source) | {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_definition_and_read_guards_see_what_they_should():
    source = (
        "class A:\n    def m(self): pass\n    def _p(self): pass\n"
        "def f(): pass\ndef _g(): pass\n"
    )
    assert public_definitions(source, "mod") == {"mod.A": "A", "mod.A.m": "m", "mod.f": "f"}
    assert loaded_names("from .mod import f\nx.m()\nA()\ny = 1\n") == {"x", "m", "A"}


def test_every_public_definition_has_a_caller_outside_the_tests():
    # the names the package exports are its library API
    read = set(importlib.import_module("kdia").__all__).union(
        *(loaded_names(path.read_text(encoding="utf-8"))
          for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")])
    )
    unread = sorted(
        qualified
        for path in SRC.glob("*.py")
        for qualified, name in public_definitions(
            path.read_text(encoding="utf-8"), path.stem
        ).items()
        if name not in read
    )
    assert unread == TEST_ONLY_EXCEPTIONS


# parameters with a default that no call in src/ or perfbench/ sets, and why they stay
UNSET_PARAMETER_EXCEPTIONS = {
    "cli.main(argv)": "the test entry point: tests pass argv, the console script does not",
    "config.heterogeneity_benchmark_config(seeds)": "the acceptance gate picks its seeds with it",
}


def defaulted_parameters(source: str, module: str) -> list[tuple[str, str, str, int | None]]:
    """``(module.name, bare name, parameter, position)`` for every parameter
    with a default of a public top-level function or public method of a
    public class in ``source``. ``position`` counts the arguments a caller
    passes (a method's ``self`` is not one) and is None for keyword-only."""
    found = []

    def add(qualified, fn, skip):
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        for i, arg in enumerate(positional):
            if i >= len(positional) - len(args.defaults) and i >= skip:
                found.append((qualified, fn.name, arg.arg, i - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((qualified, fn.name, arg.arg, None))

    for node in ast.parse(source).body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            add(f"{module}.{node.name}", node, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    add(f"{module}.{node.name}.{item.name}", item, 1)
    return found


def passed_arguments(source: str) -> dict[str, tuple[float, set[str]]]:
    """{called bare name: (most positional arguments at one call, keywords
    passed by name)} over every call in ``source``; a ``*args`` call counts
    as passing every position and a ``**kwargs`` call every keyword (``**``)."""
    passed: dict = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name is None:
            continue
        most, names = passed.get(name, (0, set()))
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        most = max(most, float("inf") if starred else len(node.args))
        names |= {k.arg or "**" for k in node.keywords}
        passed[name] = (most, names)
    return passed


def unset_parameters(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name(parameter)`` for every defaulted parameter of the
    modules in ``sources`` ({module: source}) that no call in ``callers``
    passes, by name or by position."""
    passed: dict = {}
    for source in callers:
        for name, (most, names) in passed_arguments(source).items():
            old_most, old_names = passed.get(name, (0, set()))
            passed[name] = (max(most, old_most), old_names | names)
    unset = []
    for module, source in sources.items():
        for qualified, name, param, position in defaulted_parameters(source, module):
            most, names = passed.get(name, (0, set()))
            by_position = position is not None and position < most
            if not (by_position or param in names or "**" in names):
                unset.append(f"{qualified}({param})")
    return sorted(unset)


def test_unset_parameter_guard_sees_every_way_to_pass():
    source = (
        "def f(a, b=1, *, c=2): pass\n"
        "class K:\n    def m(self, x=0): pass\n    def _p(self, y=0): pass\n"
        "def _g(z=0): pass\n"
    )
    assert unset_parameters({"mod": source}, []) == ["mod.K.m(x)", "mod.f(b)", "mod.f(c)"]
    assert unset_parameters({"mod": source}, ["f(1, 2)\nobj.m(3)\n"]) == ["mod.f(c)"]
    assert unset_parameters({"mod": source}, ["mod.f(1, c=3)\nk.m(x=1)\n"]) == ["mod.f(b)"]
    assert unset_parameters({"mod": source}, ["f(*args)\nf(**kw)\nm(*a)\n"]) == []
    # a call to another function with the same number of arguments sets nothing
    assert unset_parameters({"mod": source}, ["g(1, 2, c=3)\n"]) == [
        "mod.K.m(x)", "mod.f(b)", "mod.f(c)"
    ]


def test_every_defaulted_parameter_is_set_by_some_caller():
    # a default no caller outside the tests overrides is a constant
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    callers = [*sources.values(), *(p.read_text(encoding="utf-8") for p in PERFBENCH.glob("*.py"))]
    assert unset_parameters(sources, callers) == sorted(UNSET_PARAMETER_EXCEPTIONS)
