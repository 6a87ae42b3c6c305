"""Checks over the source of ``subclust`` itself."""

import ast
import collections
import io
import tokenize
from pathlib import Path

import subclust

SRC = Path(subclust.__file__).parent


def unused_public_names(src: Path) -> list:
    """``module.name`` for each public module-level name of ``src/*.py``
    that no code there names apart from its own definition. Comments and
    strings do not count as a use."""
    uses = collections.Counter()
    definitions = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.NAME:
                uses[token.string] += 1
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            definitions += [(path.stem, name) for name in names if not name.startswith("_")]
    defined = collections.Counter(name for _, name in definitions)
    return [f"{module}.{name}" for module, name in definitions if uses[name] <= defined[name]]


def test_every_public_name_is_used_in_src():
    # a library name that only tests call is an API kept for the tests alone
    assert unused_public_names(SRC) == []


def scipy_imports(src: Path) -> list:
    """``file:line`` of each import of scipy in ``src/*.py``, at module level
    or inside a function, by statement or through ``importlib.import_module``
    or ``__import__``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in ("import_module", "__import__")
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                names = [str(node.args[0].value)]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_imports_scipy():
    # numpy is the only dependency; scipy serves the tests alone
    assert scipy_imports(SRC) == []


def _in_numpy_random(module: str) -> bool:
    return module.split(".")[:2] == ["numpy", "random"]


def numpy_random_uses(src: Path) -> list:
    """``file:line`` of each reference to ``np.random`` or ``numpy.random``
    in ``src/*.py``, and of each import of numpy.random (``from numpy import
    random`` included), outside ``dataio.synth_subspaces``, the one place
    numpy's generator serves."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if path.stem == "dataio" and getattr(top, "name", None) == "synth_subspaces":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    hit = node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")
                elif isinstance(node, ast.Import):
                    hit = any(_in_numpy_random(alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    hit = _in_numpy_random(module) or (
                        module == "numpy" and any(alias.name == "random" for alias in node.names)
                    )
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    in ("import_module", "__import__")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    hit = _in_numpy_random(str(node.args[0].value))
                else:
                    continue
                if hit:
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_synth_uses_numpy_random(tmp_path):
    # the draws of cluster and bench come from the standard library's
    # generator; loading numpy.random costs about 6 MiB of peak memory
    assert numpy_random_uses(SRC) == []
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy import random\n"
        "from numpy.random import default_rng\n"
        "def f():\n"
        "    return np.random.default_rng(0), __import__('numpy.random')\n"
        "def synth_subspaces():\n"
        "    return np.random.default_rng(0)\n"
    )
    assert numpy_random_uses(tmp_path) == [f"planted.py:{line}" for line in (2, 3, 4, 6, 6, 8)]


def read_text_callers(src: Path) -> list:
    """``module.function`` of each top-level function of ``src/*.py`` that
    calls ``dataio.read_text``, which holds a whole file in memory: by that
    name in dataio, as ``dataio.read_text`` elsewhere."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                local = path.stem == "dataio" and getattr(fn, "id", None) == "read_text"
                qualified = getattr(fn, "attr", None) == "read_text" and getattr(fn.value, "id", None) == "dataio"
                if local or qualified:
                    found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_only_label_and_config_files_are_read_whole():
    # a CSV is never held whole, not even to name its first byte that is not UTF-8
    assert read_text_callers(SRC) == ["cli._merge_config", "dataio.load_labels"]
