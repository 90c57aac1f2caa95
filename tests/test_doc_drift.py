"""Doc drift: the design docs name only modules that exist.

``repro.tools.check_docs`` reads the DESIGN.md module map and the
backticked ``dir/module.py`` paths of docs/ARCHITECTURE.md and
docs/API.md.  It must pass on the real tree and turn red on a doc
that names a missing module.
"""

import pathlib

import repro
from repro.tools.check_docs import doc_drift, module_map

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]


def test_docs_name_only_existing_modules():
    assert doc_drift(REPO_ROOT) == []


def test_module_map_is_read_whole():
    paths = module_map((REPO_ROOT / "DESIGN.md").read_text())
    assert "kernel/clock.py" in paths
    assert "pvm/hw_interface.py" in paths
    assert "units.py" in paths


def _fake_repo(tmp_path, design, architecture="", api=""):
    (tmp_path / "src" / "repro" / "kernel").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "kernel" / "clock.py").write_text("")
    (tmp_path / "docs").mkdir()
    (tmp_path / "DESIGN.md").write_text(design)
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text(architecture)
    (tmp_path / "docs" / "API.md").write_text(api)
    return tmp_path


MAP = """## 3. System inventory (module map)

```
src/repro/
  kernel/
    clock.py              the clock
                          (a wrapped description line)
{extra}```
"""


def test_missing_map_module_is_reported(tmp_path):
    root = _fake_repo(tmp_path, MAP.format(
        extra="    gone.py               removed long ago\n"))
    assert doc_drift(root) == [
        "DESIGN.md module map: kernel/gone.py does not exist"]


def test_missing_backticked_path_is_reported(tmp_path):
    root = _fake_repo(tmp_path, MAP.format(extra=""),
                      architecture="see `kernel/clock.py` and "
                                   "`pvm/writeback.py`",
                      api="`tests/none.py::TestX`")
    assert doc_drift(root) == [
        "docs/ARCHITECTURE.md: pvm/writeback.py does not exist",
        "docs/API.md: tests/none.py does not exist"]
