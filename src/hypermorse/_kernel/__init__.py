"""Kernel backend selection: compiled extension if available, else pure Python.

Set HYPERMORSE_KERNEL=py or =c to force a backend; by default the compiled
twin is used when it is importable and the pure twin otherwise.
"""

import os

_forced = os.environ.get("HYPERMORSE_KERNEL", "").strip().lower()
if _forced not in ("", "c", "py"):
    raise RuntimeError("HYPERMORSE_KERNEL must be 'c' or 'py', got %r" % (_forced,))

if _forced == "py":
    from . import pylinalg as _impl

    BACKEND = "py"
else:
    try:
        from . import _speedups as _impl

        BACKEND = "c"
    except ImportError:
        if _forced == "c":
            raise
        from . import pylinalg as _impl

        BACKEND = "py"

hnf_rows = _impl.hnf_rows
hnf_rows_with_transform = _impl.hnf_rows_with_transform
snf_decompose = _impl.snf_decompose
