"""Every output file of a fixed set of commands keeps its recorded bytes.

The corpora, the commands and the regeneration script are in
``tests/golden.py``; the digests in ``tests/data/golden_outputs.json``.
"""

from __future__ import annotations

import json

import pytest

import golden
from helpers import blas_kernels_selectable


def _manifest():
    return json.loads(golden.MANIFEST.read_text(encoding="utf-8"))


def _assert_digests(got, expected):
    moved = sorted(name for name in expected.keys() & got.keys() if got[name] != expected[name])
    assert not moved, f"outputs moved: {moved}"
    assert got.keys() == expected.keys()


def test_outputs_match_the_golden_manifest():
    _assert_digests(golden.digests(dependent=False), _manifest()["portable"])


@pytest.mark.skipif(
    not blas_kernels_selectable(),
    reason="comp4 and ablate outputs depend on the BLAS kernel, which only "
    "OpenBLAS with DYNAMIC_ARCH on x86-64 selects through OPENBLAS_CORETYPE",
)
def test_kernel_dependent_outputs_match_the_golden_manifest():
    manifest = _manifest()
    _assert_digests(golden.kernel_digests(manifest["kernel"]), manifest["kernel_dependent"])


def test_manifest_covers_every_run():
    manifest = _manifest()
    for part, dependent in (("portable", False), ("kernel_dependent", True)):
        runs = {name.rsplit("/", 1)[0] for name in manifest[part]}
        assert runs == {run for run in golden.runs() if golden.kernel_dependent(run) == dependent}, part
