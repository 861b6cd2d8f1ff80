import importlib.util
import re
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_of_this_tree_against_itself(ab, capsys):
    ab.main(["--against", str(ROOT), "--rounds", "2", "--cases", "12"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tiny_mixed seed 7, 12 cases, 2 rounds"
    ratio = r"\d+\.\d{3} \[\d+\.\d{3}, \d+\.\d{3}\]"
    for op, line in zip(["encode", "decode"], lines[1:], strict=True):
        assert re.fullmatch(rf"{op}: B/A {ratio}, A/A {ratio}, A \d+\.\d ms a pass", line)


def test_ab_times_nothing_when_the_sides_differ(ab):
    corpus = ab.load(ROOT / "perfbench" / "corpus.py", "ab_corpus")
    cases = corpus.WORKLOADS["tiny_mixed"](7)[:3]
    codec = ab.load(ROOT / "src" / "fmmcodec", "ab_change", package=True)
    other = types.SimpleNamespace(**vars(codec))
    other.compress = lambda image, k: codec.compress(image, k) + b"\0"
    with pytest.raises(SystemExit, match="^B encodes the corpus to other bytes than A$"):
        ab.run({"A": codec, "B": other}, cases, 2, 0)
    other.compress = codec.compress
    other.decompress = lambda blob: codec.RasterImage(codec.decompress(blob).pixels ^ 1)
    with pytest.raises(SystemExit, match="^B decodes the corpus to other pixels than its "):
        ab.run({"A": codec, "B": other}, cases, 2, 0)
