"""The package's public surface: each module's __all__ and the package's
re-exports name what exists."""

import ast
import importlib
from pathlib import Path

import tumorsde

_MODULES = ("models", "sde", "lyapunov", "integrate", "cli")


def test_public_names_resolve_and_reexports_are_public():
    # every __all__ entry exists and star-imports, and every name that
    # tumorsde/__init__.py imports from a module is in that module's
    # __all__: a deleted name cannot stay listed or re-exported
    for name in _MODULES:
        module = importlib.import_module(f"tumorsde.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
        namespace = {}
        exec(f"from tumorsde.{name} import *", namespace)
        assert set(module.__all__) <= set(namespace), name
    tree = ast.parse(Path(tumorsde.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    for node in imports:
        public = importlib.import_module(f"tumorsde.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in public] == [], node.module


# names deleted from the package, and what replaced them: a stream is a
# numpy Generator (rng_stream); mc draws its normals in place and a
# LinearSDE's step builds its own drift (no GaussianBlocks, no
# AffineDiffusion.fns); every preset is a keyword builder (no parameter
# dataclasses); the Euler steps and the fd density that only tests called
# are test-side (tests/euler_ref.py, tests/density_nodes.py)
_DELETED = ("RngStream", "GaussianBlocks", "KTParams", "euler1_step", "euler2_step",
            "stationary_density_fd", "PhaseDensity")


def test_deleted_names_stay_deleted():
    for module in (tumorsde, *(importlib.import_module(f"tumorsde.{n}") for n in _MODULES)):
        assert [n for n in _DELETED if hasattr(module, n)] == [], module.__name__
    assert not hasattr(tumorsde.AffineDiffusion, "fns")
    assert tumorsde.rng_stream(1).random() < 1
    assert tumorsde.kt_model(a1=0.2).params == tumorsde.make_model("kt", {"a1": 0.2}).params
