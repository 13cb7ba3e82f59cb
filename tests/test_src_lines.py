"""The line census of ``tools/src_lines.py``."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "src_lines.py")


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_counts_each_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Module docstring,\n'
                    'on two lines."""\n'
                    '\n'
                    '# a comment\n'
                    'def f():\n'
                    '    """Function docstring."""\n'
                    '    return 1\n')
    assert _tool().census(str(path)) == {
        "total": 7, "code": 2, "docstring": 3, "comment": 1, "blank": 1}


def test_kinds_add_up_for_each_module():
    tool = _tool()
    names = sorted(name for name in os.listdir(tool.SRC) if name.endswith(".py"))
    assert "certify.py" in names
    for name in names:
        path = os.path.join(tool.SRC, name)
        counts = tool.census(path)
        with open(path, encoding="utf-8") as handle:
            assert counts["total"] == len(handle.read().splitlines()), name
        assert counts["total"] == (counts["code"] + counts["docstring"]
                                   + counts["comment"] + counts["blank"]), name
