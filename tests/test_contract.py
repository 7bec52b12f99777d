"""The names that code outside src/ and tests/ relies on.

The benchmark harness, the README and the demos call into the package but
are not covered by the other tests; a renamed or deleted name would only
show when they run.  The last two tests keep every module free of imports
it never reads, and the command's start-up free of modules that only some
commands use.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thetadim

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_trace_targets_resolve():
    # load the file for its TARGETS only; tracing.install is never called,
    # so the package stays unwrapped
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod_name, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(f"thetadim.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod_name, attr)


def test_bench_smoke_run_passes():
    # the benchmark's reduced run wraps every TARGET with tracing.install and
    # checks each answer against the harness's own oracle; it writes only
    # under bench/_out/
    proc = _run(["bench/run.py", "--workload", "all", "--seed", "1",
                 "--smoke"])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_worker_names_resolve():
    tree = ast.parse((ROOT / "bench" / "worker.py").read_text())
    # names bound to the package or to one of its modules
    bound = {"thetadim": thetadim}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "thetadim":
            for alias in node.names:
                bound[alias.asname or alias.name] = importlib.import_module(
                    f"thetadim.{alias.name}")
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in bound}
    assert ("thetadim", "query") in used and ("verlinde", "verify") in used
    for name, attr in sorted(used):
        assert hasattr(bound[name], attr), f"{name}.{attr}"


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library in five lines\s+```python\n(.*?)```",
                      readme, re.S)
    assert block is not None
    proc = _run(["-c", block.group(1)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["10"]


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = _run([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr


def test_worker_dim_arguments_parse():
    # every `dim` argv that bench/worker.py builds, with each computed entry
    # replaced by a placeholder, must still be accepted by the parser
    from thetadim import cli
    tree = ast.parse((ROOT / "bench" / "worker.py").read_text())
    argvs = [[e.value if isinstance(e, ast.Constant) else "placeholder"
              for e in node.elts]
             for node in ast.walk(tree)
             if isinstance(node, ast.List) and node.elts
             and isinstance(node.elts[0], ast.Constant)
             and node.elts[0].value == "dim"]
    assert len(argvs) == 2
    parser = cli.build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"bench/worker.py passes {argv}, which dim rejects")


def test_caches_are_bounded():
    # every module cache is an LRU with a size: no lru_cache(maxsize=None),
    # lru_cache(None) or functools.cache
    unbounded = []
    for path in sorted((SRC / "thetadim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded += [where for a in node.names if a.name == "cache"]
            elif isinstance(node, ast.Attribute) and node.attr == "cache" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "functools":
                unbounded.append(where)
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name != "lru_cache":
                    continue
                sizes = [kw.value for kw in node.keywords
                         if kw.arg == "maxsize"] + node.args[:1]
                if any(isinstance(v, ast.Constant) and v.value is None
                       for v in sizes):
                    unbounded.append(where)
    assert unbounded == []


def _json_parses(tree):
    return {node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
            and isinstance(node.value, ast.Name) and node.value.id == "json"}


def test_json_is_parsed_only_by_read_json():
    # file bytes become a Python value in one place, cli._read_json, which
    # turns every decoding failure into an input error
    inside, stray = 0, []
    for path in sorted((SRC / "thetadim").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_read_json" \
                    and path.name == "cli.py":
                allowed |= _json_parses(node)
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                stray.append(f"{path.name}:{node.lineno}")
        inside += len(allowed)
        stray += [f"{path.name}:{node.lineno}"
                  for node in _json_parses(tree) - allowed]
    assert inside == 1 and stray == []


def test_cli_choices_come_from_tables():
    # choices spelled out as string constants would be a second list of the
    # suites or sets, beside the table that runs them
    tree = ast.parse((SRC / "thetadim" / "cli.py").read_text())
    choices = [kw.value for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "add_argument"
               for kw in node.keywords if kw.arg == "choices"]
    assert len(choices) == 2
    spelled = [value.lineno for value in choices
               if isinstance(value, (ast.Tuple, ast.List, ast.Set))
               and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                       for e in value.elts)]
    assert spelled == []


def test_every_cli_option_is_read():
    # an option that no command reads as args.<dest> is a setting with no
    # effect; --version prints and exits, so it has nothing to read
    tree = ast.parse((SRC / "thetadim" / "cli.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    dests = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "add_argument"):
            continue
        kw = {k.arg: k.value.value for k in node.keywords
              if isinstance(k.value, ast.Constant)}
        if kw.get("action") == "version":
            continue
        names = [a.value for a in node.args]
        name = next((n for n in names if n.startswith("--")), names[0])
        dests.add(kw.get("dest", name.lstrip("-").replace("-", "_")))
    assert {"document", "cache_dir", "rank_max", "n1", "limit"} <= dests
    assert sorted(dests - read) == []


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # the package's __init__ imports are its exports, so it is exempt
    paths = [p for pattern in ("src/thetadim/*.py", "tests/*.py", "demos/*.py",
                               "bench/*.py")
             for p in sorted(ROOT.glob(pattern)) if p.name != "__init__.py"]
    assert paths
    unused = {str(p.relative_to(ROOT)): names
              for p in paths if (names := _unused_imports(p))}
    assert unused == {}


def test_modular_imports_nothing_of_the_package_but_schur():
    # the exact backend reads query keys, tuples of integers and partitions,
    # so it needs neither parabolic data nor queries
    tree = ast.parse((SRC / "thetadim" / "modular.py").read_text())
    package = [(node.level, node.module) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.startswith("thetadim"))]
    package += [(0, a.name) for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names
                if a.name.startswith("thetadim")]
    assert package == [(1, "schur")]


def test_cli_import_loads_only_what_every_command_needs():
    # dataclasses pulls in inspect, ast and dis; hashlib and tempfile serve
    # only the cache, csv only `table` and random only `verify`
    deferred = {"dataclasses", "inspect", "hashlib", "tempfile", "csv",
                "random"}
    proc = _run(["-S", "-c", "import sys, thetadim.cli; "
                 f"print(sorted({sorted(deferred)!r} & sys.modules.keys()))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
