"""The .fmm bytes on record: seed 0 of every benchmark workload, built by perfbench/corpus.py,
compresses to the corpus digest in perfbench/digests.json and decodes to the quantized input.

The digests are the frozen v1 format's record, like the vectors in golden.py: never rewritten
to match the program. The benchmark checks them too, but tier-1 does not run the benchmark."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fmmcodec import compress, decompress, read_netpbm, write_netpbm

PERFBENCH = Path(__file__).parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH / "corpus.py")
corpus = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # for its dataclasses
_spec.loader.exec_module(corpus)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_seed_0_reproduces_recorded_digest(workload):
    # as perfbench/run.py takes it: the sha256 of the sha256 digests of every case's .fmm
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[workload]["0"]
    digest = hashlib.sha256()
    for case in corpus.WORKLOADS[workload](0):
        blob = compress(read_netpbm(case.pnm), case.k)
        digest.update(hashlib.sha256(blob).digest())
        assert write_netpbm(decompress(blob)) == case.expected_pnm
    assert digest.hexdigest() == recorded
