"""Stdlib-only shared utilities — the bottom layer next to ``repro.obs``.

Like the observability layer, ``repro.util`` depends on nothing but the
standard library and may be imported from every other layer (the RL100
contract registers it below ``core``).  Its one current member is
:mod:`repro.util.sync`, the sanctioned concurrency primitives that the
RL301 lock-set analysis recognizes as sanitizers.
"""

from __future__ import annotations

from .sync import AtomicSwap, GuardedCache, ReentrantGuard

__all__ = ["AtomicSwap", "GuardedCache", "ReentrantGuard"]
