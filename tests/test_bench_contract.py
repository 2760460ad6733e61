"""The names the benchmark's tracer wraps must exist where it looks for them.

perfbench/tracing.py is read here, never changed: a refactor that moves a
traced function or a verify suite would otherwise only show up as a traced
benchmark run reporting ``correct: false``.
"""

import importlib
import importlib.util
from pathlib import Path

from qdeform import maps, verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def unresolved_layers():
    """LAYERS entries whose attribute is not in its owner's own __dict__,
    the lookup Tracer._install makes (an inherited attribute does not count)."""
    missing = []
    for name, modname, path in tracing.LAYERS:
        *owner_path, attr = path.split(".")
        owner = importlib.import_module(modname)
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or owner.__dict__.get(attr) is None:
            missing.append(name)
    return missing


def test_every_layer_resolves():
    assert unresolved_layers() == []


def map_key_label():
    """The label tracing's map key binds by name on DeformMap.__init__ for a
    construction as the named maps make it; maps.distinct counts these."""
    key = tracing.Tracer()._map_key(maps.DeformMap.__init__)
    return key((None, "phi_q[1/2]", "a", "b"), {})[0]


def test_map_key_binds_the_label():
    assert map_key_label() == "phi_q[1/2]"


def test_constructor_without_label_is_reported(monkeypatch):
    class NoLabel:
        def __init__(self, name, image_a, image_b, *, relation_q=1):
            pass

    monkeypatch.setattr(maps, "DeformMap", NoLabel)
    assert map_key_label() is None


def missing_suites():
    return [s for s in tracing.SUITES if s not in verify.SUITES]


def test_every_traced_suite_exists():
    assert missing_suites() == []


def test_removed_attribute_is_reported(monkeypatch):
    monkeypatch.delattr(maps.DeformMap, "image")
    assert unresolved_layers() == ["maps.image"]


def test_inherited_attribute_is_reported(monkeypatch):
    monkeypatch.setattr(maps, "DeformMap", type("Sub", (maps.DeformMap,), {}))
    assert unresolved_layers() == ["maps.DeformMap", "maps.basis_element", "maps.image"]


def test_removed_suite_is_reported(monkeypatch):
    # a copy: restoring a deleted key would move it to the end of the order
    kept = {k: v for k, v in verify.SUITES.items() if k != "qcc-delta"}
    monkeypatch.setattr(verify, "SUITES", kept)
    assert missing_suites() == ["qcc-delta"]
