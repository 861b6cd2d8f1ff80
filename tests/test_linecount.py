import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_counts_code_docstring_and_comment_lines(tmp_path, capsys):
    # a docstring's lines are not code, a comment after code is a code and a comment line,
    # and a directory's line is the sum of its modules'
    spec = importlib.util.spec_from_file_location("linecount_tool", ROOT / "tools" / "linecount.py")
    linecount = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecount)
    (tmp_path / "a.py").write_text('"""Doc\nstring."""\n\n# alone\nx = (1,\n     2)  # after\n')
    (tmp_path / "b.py").write_text("def f():\n    return 1\n")
    linecount.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        f"{tmp_path}/a.py: 6 lines, 2 code lines, 2 docstring lines, 2 comment lines",
        f"{tmp_path}/b.py: 2 lines, 2 code lines, 0 docstring lines, 0 comment lines",
        f"{tmp_path}: 8 lines, 4 code lines, 2 docstring lines, 2 comment lines",
    ]
