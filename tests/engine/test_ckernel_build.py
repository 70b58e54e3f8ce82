"""The compiled kernel's C source builds without a single warning."""

from __future__ import annotations

import subprocess

import pytest

from repro.engine import _ckernel


@pytest.mark.skipif(not _ckernel.available(), reason="no C toolchain")
def test_c_source_compiles_warning_free(tmp_path):
    src = tmp_path / "kernel.c"
    src.write_text(_ckernel.C_SOURCE)
    cmd = [_ckernel._find_cc(), *_ckernel.CFLAGS, "-Wall", "-Wextra", "-Werror",
           str(src), "-o", str(tmp_path / "kernel.so")]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=False)
    assert res.returncode == 0, res.stderr
