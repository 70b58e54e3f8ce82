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


@pytest.mark.skipif(not _ckernel.available(), reason="no C toolchain")
def test_cached_library_is_keyed_by_flags_and_compiler(tmp_path, monkeypatch):
    """A warm cache never hands out a library built with other flags or
    by another compiler: each names its own file, and flags that cannot
    build fail even beside a cached library."""
    cc, cache = _ckernel._find_cc(), str(tmp_path / "cache")
    flags = _ckernel.CFLAGS
    built = _ckernel._build(cc, cache)
    assert built == _ckernel._library_path(cc, cache)

    monkeypatch.setattr(_ckernel, "CFLAGS", (*flags, "-O3"))
    assert _ckernel._library_path(cc, cache) != built
    monkeypatch.setattr(_ckernel, "CFLAGS", flags)

    wrapper = tmp_path / "wrapped-cc"
    wrapper.write_text(f'#!/bin/sh\nexec "{cc}" "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setenv("CC", str(wrapper))
    assert _ckernel._find_cc() == str(wrapper)
    assert _ckernel._library_path(_ckernel._find_cc(), cache) != built

    monkeypatch.setattr(_ckernel, "CFLAGS", ("--no-such-flag",))
    assert _ckernel._build(cc, cache) is None
