import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
# The code that runs the pipeline; tests are not callers.
CALLERS = ("src/cellmine/*.py", "perfbench/*.py", "bench/*.py")


def test_console_scripts_import():
    pyproject = ROOT / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_importing_the_package_loads_no_scipy_signal_stats_or_csgraph():
    """Importing ``scipy.signal``, which imports ``scipy.stats``, takes more
    than half of a fresh process's set-up, so no ``cellmine`` module may
    import either; nor ``scipy.sparse.csgraph``, which a dendrogram cut does
    not need. A fresh interpreter imports every module and reports which of
    the three it holds."""
    modules = sorted(f"cellmine.{p.stem}" for p in (ROOT / "src" / "cellmine").glob("[!_]*.py"))
    code = (
        "import importlib, json, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps([m for m in ('scipy.signal', 'scipy.stats', 'scipy.sparse.csgraph')\n"
        "                  if m in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(child.stdout) == []


def _public_definitions(tree):
    """(qualified name, node, is_method) of every public top-level function
    and class, and of every public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def test_every_public_name_has_a_caller_outside_the_tests():
    """Every public function and class of ``cellmine`` is read by an
    ``ast.Name`` or ``ast.Attribute`` that loads it, and every public method
    by an ``ast.Attribute``, in code outside its own definition: the package,
    the benchmark or the scale run. A docstring names nothing, and neither
    does a field or variable of the same name that is assigned."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for pattern in CALLERS for path in sorted(ROOT.glob(pattern))}
    uses: dict[str, list[tuple[ast.AST, bool]]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append((node, False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.attr, []).append((node, True))
    unused = []
    for path, tree in trees.items():
        if not path.is_relative_to(ROOT / "src"):
            continue
        for name, node, is_method in _public_definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not any(id(use) not in inside and (attr or not is_method)
                       for use, attr in uses.get(node.name, [])):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names that only tests reach, or nothing: {unused}"


def test_every_module_constant_is_read():
    """Every module-level upper-case constant of ``cellmine`` is read, as an
    ``ast.Name`` or ``ast.Attribute`` that loads it, in code outside its own
    assignment: the package, the benchmark or the scale run. A constant
    that nothing reads is a leftover of code that has gone."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for pattern in CALLERS for path in sorted(ROOT.glob(pattern))}
    reads: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, []).append(node)
    constants, unread = 0, []
    for path, tree in trees.items():
        if not path.is_relative_to(ROOT / "src"):
            continue
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for name in (t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()):
                constants += 1
                inside = {id(n) for n in ast.walk(node)}
                if all(id(read) in inside for read in reads.get(name, [])):
                    unread.append(f"{path.stem}.{name}")
    assert constants, "no module constant: the test checks nothing"
    assert not unread, f"module constants that nothing reads: {unread}"


def _dotted(node):
    """``"a.b.c"`` for the attribute chain ``a.b.c``, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def test_the_package_takes_only_real_ffts():
    """The spectrum holds bins 0..n/2 of the real FFT, and the package takes
    no complex FFT of a real series: ``np.fft.fft`` and ``np.fft.ifft`` are
    not named, and nothing is imported from ``numpy.fft``."""
    complex_ffts = {f"{np}.fft.{f}" for np in ("np", "numpy") for f in ("fft", "ifft")}
    found = []
    for path in sorted(ROOT.glob("src/cellmine/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _dotted(node) in complex_ffts or (
                isinstance(node, ast.ImportFrom) and node.module == "numpy.fft"
            ):
                found.append(f"{path.name} line {node.lineno}")
    assert not found, f"complex FFT in the package: {found}"


def test_only_unit_scaled_takes_a_binary_exponent():
    """Every statistic of the package that a constant factor does not change
    scales its values through ``common.unit_scaled``, so ``frexp``, of
    ``math`` or of numpy, is named nowhere else: as a name, an attribute or
    an import."""
    found, inside = [], 0
    for path in sorted(ROOT.glob("src/cellmine/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = {id(n) for node in tree.body if isinstance(node, ast.FunctionDef)
                  and path.stem == "common" and node.name == "unit_scaled"
                  for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
            else:
                names = [getattr(node, "id", None) or getattr(node, "attr", None)]
            if "frexp" not in names:
                continue
            if id(node) in helper:
                inside += 1
            else:
                found.append(f"{path.name} line {node.lineno}")
    assert inside, "common.unit_scaled names no frexp: the test checks nothing"
    assert not found, f"frexp outside common.unit_scaled: {found}"


def test_only_finite_array_converts_and_checks_finite_entries():
    """Every float array a stage takes in is converted and checked by
    ``common.finite_array``, so outside ``common`` no ``reject_bad`` call takes
    ``np.isfinite(...)`` as its mask, and no code names ``finite_entries``, the
    helper it replaced: as a name, an attribute, a definition or an import."""
    found, inside = [], 0
    for path in sorted(ROOT.glob("src/cellmine/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
            else:
                names = [getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)]
            if "finite_entries" in names:
                found.append(f"{path.name} line {node.lineno}: finite_entries")
            if not (isinstance(node, ast.Call) and (_dotted(node.func) or "").rpartition(".")[2] == "reject_bad"):
                continue
            mask = node.args[1] if len(node.args) > 1 else {kw.arg: kw.value for kw in node.keywords}.get("ok")
            if isinstance(mask, ast.Call) and _dotted(mask.func) in ("np.isfinite", "numpy.isfinite"):
                found.append(f"{path.name} line {node.lineno}: reject_bad of np.isfinite")
            elif path.stem == "common":
                inside += 1
    assert not found, f"finite checks that bypass common.finite_array: {found}"
    assert inside, "common calls no reject_bad: the test checks nothing"


def test_the_package_opens_files_only_through_the_file_layer():
    """Every call of the builtin ``open`` in the package lies inside
    ``common.open_replacing`` or ``common.open_reading``, so that no writer
    can leave a truncated file behind and no file error escapes as a bare
    ``OSError``."""
    found, inside = [], 0
    for path in sorted(ROOT.glob("src/cellmine/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helpers = {id(n) for node in tree.body if isinstance(node, ast.FunctionDef)
                   and path.stem == "common" and node.name in ("open_replacing", "open_reading")
                   for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _dotted(node.func) == "open":
                if id(node) in helpers:
                    inside += 1
                else:
                    found.append(f"{path.name} line {node.lineno}")
    assert inside, "the file layer opens nothing: the test checks nothing"
    assert not found, f"opens that bypass open_replacing and open_reading: {found}"


def test_only_common_knows_the_npy_format():
    """Every staged matrix is written by ``common.write_npy`` and read by
    ``common.read_npy``, so ``np.lib.format`` is named in ``common`` alone,
    and nothing is imported from ``numpy.lib.format``."""
    found, inside = [], 0
    for path in sorted(ROOT.glob("src/cellmine/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                names = [_dotted(node) or ""]
            if not any(name.startswith(("np.lib.format", "numpy.lib.format")) for name in names):
                continue
            if path.stem == "common":
                inside += 1
            else:
                found.append(f"{path.name} line {node.lineno}")
    assert inside, "common names no np.lib.format: the test checks nothing"
    assert not found, f"np.lib.format outside common: {found}"


# The file helpers of ``common`` that take the caller's error class.
FILE_HELPERS = ("open_replacing", "open_reading", "write_csv", "write_csv_blocks", "write_json",
                "csv_errors", "read_csv", "read_table", "read_json", "read_header",
                "sorted_by_tower", "write_npy", "read_npy")


def test_every_file_helper_call_passes_its_own_module_error():
    """Every call in ``src/cellmine/<m>.py`` to a file helper passes, as its
    ``error`` argument, an error class that ``<m>`` itself defines, so that a
    stage never raises another stage's error or a bare ``ValueError`` for a
    bad file. Inside ``common`` a helper may pass on its own ``error``."""
    common = ast.parse((ROOT / "src" / "cellmine" / "common.py").read_text(encoding="utf-8"))
    position = {node.name: [a.arg for a in node.args.args].index("error")
                for node in common.body
                if isinstance(node, ast.FunctionDef) and node.name in FILE_HELPERS}
    assert sorted(position) == sorted(FILE_HELPERS)
    found, calls = [], 0
    for path in sorted(ROOT.glob("src/cellmine/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {node.name for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name.endswith("Error")}
        if path.stem == "common":
            own.add("error")
        for node in ast.walk(tree):
            name = isinstance(node, ast.Call) and (_dotted(node.func) or "").rpartition(".")[2]
            if name not in position:
                continue
            calls += 1
            keywords = {kw.arg: kw.value for kw in node.keywords}
            index = position[name]
            error = node.args[index] if len(node.args) > index else keywords.get("error")
            if not (isinstance(error, ast.Name) and error.id in own):
                found.append(f"{path.name} line {node.lineno}: {name}")
    assert calls and not found, f"file helper calls without their module's error: {found}"


# Every parameter and dataclass field in src/cellmine that has a default, as
# <module>.<class or function>.<name>. A default is an option the pipeline may
# never set; one added to the package is added here in the same change.
DEFAULTS = [
    "cluster.tune_cut.r_max",
    "cluster.tune_cut.r_min",
    "decompose.PolygonModel.kkt",
    "decompose.PolygonModel.matrix",
    "poi.count_poi.radius_m",
    "vectorize.TrafficVector.degenerate",
]


def _defaults(node, prefix):
    """``<prefix><name>.<parameter>`` of every parameter with a default of the
    functions inside ``node``, and ``<prefix><class>.<field>`` of every
    annotated class attribute with a value, at any depth."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            yield from (f"{prefix}{child.name}.{a.arg}" for a in with_default)
        elif isinstance(child, ast.ClassDef):
            yield from (
                f"{prefix}{child.name}.{item.target.id}" for item in child.body
                if isinstance(item, ast.AnnAssign) and item.value is not None
            )
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _defaults(child, f"{prefix}{child.name}.")


def test_every_default_constant_is_a_default():
    """A module constant named ``DEFAULT_*`` is the default of some parameter
    or dataclass field of the package. A value that nothing can override is
    a plain constant, and its name says so."""
    constants, defaults = set(), set()
    for path in sorted(ROOT.glob("src/cellmine/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            constants.update(f"{path.stem}.{t.id}" for t in targets
                             if isinstance(t, ast.Name) and t.id.startswith("DEFAULT_"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                values = node.args.defaults + node.args.kw_defaults
            elif isinstance(node, ast.ClassDef):
                values = [item.value for item in node.body if isinstance(item, ast.AnnAssign)]
            else:
                continue
            defaults.update(v.id for v in values if isinstance(v, ast.Name))
    assert constants, "no DEFAULT_* constant: the test checks nothing"
    assert sorted(c for c in constants if c.partition(".")[2] not in defaults) == []


def test_every_default_is_on_the_list():
    found = sorted(
        name
        for path in sorted(ROOT.glob("src/cellmine/*.py"))
        for name in _defaults(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    )
    assert found == DEFAULTS
