"""Names in the docs: the README's library section runs, and every name it or a fmmcodec
docstring gives exists."""

import ast
import builtins
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import fmmcodec
from fmmcodec.image import RasterImage
from fmmcodec.netpbm import write_netpbm


def library_section() -> str:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def resolves(name: str) -> bool:
    """Whether a dotted name is a builtin, a fmmcodec module or a name in one."""
    modules = {
        info.name: importlib.import_module(f"fmmcodec.{info.name}")
        for info in pkgutil.iter_modules(fmmcodec.__path__)
    }
    scopes = [{"fmmcodec": fmmcodec, **modules}, vars(builtins)]
    scopes += [vars(module) for module in modules.values()]
    head, *attrs = name.split(".")
    for scope in scopes:
        try:
            functools.reduce(getattr, attrs, scope[head])
            return True
        except (KeyError, AttributeError):
            pass
    return False


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", library_section(), re.S)
    y, x = np.mgrid[0:72, 0:80]
    smooth = 128 + 90 * np.sin(x / 11) * np.cos(y / 17)
    noisy = smooth + np.random.default_rng(5).normal(0, 6, smooth.shape)
    pixels = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)[:, :, None]
    (tmp_path / "photo.pgm").write_bytes(write_netpbm(RasterImage(pixels)))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    psnr, ratio = map(float, capsys.readouterr().out.split())
    assert psnr > 40 and ratio > 1


def test_library_names_exist():
    names = set(re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", library_section()))
    assert {"append_samples", "decode_plane", "quantize_plane"} <= names
    assert [name for name in sorted(names) if not resolves(name)] == []


def docstring_names() -> set[str]:
    """Every ``name`` or ``name(...)`` in a fmmcodec module, class or function docstring,
    and every private name there in plain text, such as _bits_at or RasterImage._own;
    other double-backticked text, such as ``block R,C: ... (bit N)``, is not a name."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef)
    names = set()
    for path in Path(fmmcodec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            doc = ast.get_docstring(node) if isinstance(node, kinds) else None
            names.update(re.findall(r"``([A-Za-z_][\w.]*)(?:\([^`]*\))?``", doc or ""))
            names.update(re.findall(r"(?<![\w.])((?:[A-Za-z_]\w*\.)*_[A-Za-z]\w*)", doc or ""))
    return names


def test_docstring_names_exist():
    names = docstring_names()
    assert {"_chase", "_decode_blocks", "append_samples", "bitstream.append_samples"} <= names
    assert {"_KEYS", "_bits_at"} <= names  # in plain text
    assert [name for name in sorted(names) if not resolves(name)] == []
