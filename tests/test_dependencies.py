"""The runtime code imports only the standard library, numpy and scipy."""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "courtpose"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "courtpose"}


def _imported_roots(tree):
    """(line, top-level package) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_scanner_sees_nested_and_from_imports():
    code = ("import os, torch.nn\nfrom . import mesh\n"
            "def f():\n    from yaml import safe_load\n")
    assert [root for _, root in _imported_roots(ast.parse(code))] == ["os", "torch", "yaml"]


def test_runtime_imports_are_stdlib_numpy_scipy_or_courtpose():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 20
    foreign = [f"{path.relative_to(SRC)}:{line}: {root}"
               for path in modules
               for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
               if root not in ALLOWED]
    assert not foreign


def test_cli_and_pipeline_do_not_import_scipy_ndimage():
    # the voxel interior is a numpy flood fill; scipy.ndimage costs every
    # fresh process tens of milliseconds of import for one small fill
    code = ("import sys, courtpose, courtpose.cli, courtpose.synth, courtpose.toydata; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.ndimage')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_pipeline_and_toy_data_do_not_import_scipy_optimize_or_spatial():
    # compose, eval and the calibration k-d tree import them where they are
    # used, so a process that imports the package, or builds the toy data
    # that training reads, pays none of their import
    code = ("import sys, courtpose, courtpose.cli, courtpose.synth, courtpose.toydata; "
            "courtpose.toydata.toy_part_dataset(0, 4); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'scipy.spatial'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert out.stdout.strip() == "[]"


def test_no_np_cross_outside_meshnet():
    # transforms.cross forms the same bits without np.cross's axis handling,
    # in meshnet as elsewhere: sampling's face normals come from
    # mesh.face_normals, and only spirals' one 3-vector per call keeps its
    # scalar form on Python floats
    calls = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "cross"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert calls == []


def test_every_exported_name_resolves():
    # a name deleted from the package but left in __all__ breaks
    # `from courtpose import *` with an AttributeError
    import courtpose

    assert [name for name in courtpose.__all__ if not hasattr(courtpose, name)] == []
    assert len(set(courtpose.__all__)) == len(courtpose.__all__)
    namespace = {}
    exec("from courtpose import *", namespace)
    assert set(courtpose.__all__) <= set(namespace)
