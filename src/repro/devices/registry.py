"""Runner-builder registry: implementation labels → runnable systems.

The campaign subsystem ships grid cells to worker processes as plain data
(label strings, scenario descriptors, seeds, kernel names).  Simulators
themselves are not picklable, so each worker looks the label up here and
elaborates its own system on the requested simulation kernel.  The registry
is populated at import time with the five Chapter 9 implementations (plus
the OPB/APB retargets) and stays open for plugins: :func:`register_runner`
accepts any builder whose result exposes
``run_scenario(sets) -> {"result", "cycles", ...}``; builders that accept a
``simulator_factory`` keyword participate in kernel selection, zero-argument
builders are restricted to the default kernel.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Dict, List

from repro.devices.baselines import build_naive_plb_system, build_optimized_fcb_system
from repro.devices.interpolator import build_splice_interpolator
from repro.rtl import DEFAULT_KERNEL, kernel_factory

#: label -> zero-argument builder returning an object with ``run_scenario``.
_BUILDERS: Dict[str, Callable[[], object]] = {}


def register_runner(label: str, builder: Callable[[], object], *, replace: bool = False) -> None:
    """Register ``builder`` under ``label``.

    Builders must be importable module-level callables (or partials of them)
    so that worker processes can rebuild the runner from the label alone.
    Note that a registration made at runtime only reaches farm workers when
    processes are forked (Linux default); under the ``spawn`` start method,
    perform the registration in a module the workers import.
    """
    if label in _BUILDERS and not replace:
        raise ValueError(f"runner label {label!r} is already registered")
    _BUILDERS[label] = builder


def known_labels() -> List[str]:
    """All registered implementation labels, sorted."""
    return sorted(_BUILDERS)


def _accepts_keyword(builder: Callable[..., object], name: str) -> bool:
    """Whether ``builder`` can be called with ``name=...``."""
    try:
        parameters = inspect.signature(builder).parameters.values()
    except (TypeError, ValueError):  # builtins / exotic callables
        return False
    return any(
        p.name == name or p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters
    )


def build_runner(
    label: str,
    kernel: str = DEFAULT_KERNEL,
    leap: bool = True,
    simulator_factory=None,
):
    """Elaborate a fresh system for ``label`` on ``kernel`` and return it.

    The returned object exposes ``run_scenario(sets)``; building is the
    expensive step (parsing the spec, elaborating RTL), so callers should
    build once per (label, kernel) and reuse the runner across scenarios.
    Campaign cells only consume the (result, cycles, transactions) outcome,
    so builders that understand ``record_transactions`` are asked not to
    retain per-transaction objects — a runner reused across thousands of
    cells must not grow memory per call.  ``leap=False`` disables the
    compiled kernel's cycle-leaping fast path (see
    :func:`repro.rtl.kernel_factory`).

    An explicit ``simulator_factory`` overrides name-based kernel selection
    entirely — this is how differential harnesses (the fuzz oracle, the
    mutation acceptance tests) run registry implementations on instrumented
    or deliberately broken kernels that have no registered name.
    """
    try:
        builder = _BUILDERS[label]
    except KeyError:
        raise KeyError(
            f"unknown implementation label {label!r} (known: {known_labels()})"
        ) from None
    if simulator_factory is not None and kernel != DEFAULT_KERNEL:
        raise ValueError("pass either kernel= or simulator_factory=, not both")
    kwargs = {}
    if _accepts_keyword(builder, "record_transactions"):
        kwargs["record_transactions"] = False
    if _accepts_keyword(builder, "simulator_factory"):
        factory = simulator_factory or kernel_factory(kernel, leap=leap)
        return builder(simulator_factory=factory, **kwargs)
    if kernel != DEFAULT_KERNEL or simulator_factory is not None:
        raise TypeError(
            f"builder for {label!r} does not accept simulator_factory; "
            f"it cannot honour a kernel selection"
        )
    return builder(**kwargs)


register_runner("simple_plb", build_naive_plb_system)
register_runner("optimized_fcb", build_optimized_fcb_system)
for _kind in ("splice_plb", "splice_plb_dma", "splice_fcb", "splice_opb", "splice_apb"):
    register_runner(_kind, functools.partial(build_splice_interpolator, _kind))
