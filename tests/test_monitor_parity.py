"""Monitor parity: each SIS violation rule fires identically on all kernels.

The :class:`~repro.sis.protocol.SISProtocolMonitor` is FSM IR (a
``kind="monitor"`` spec per protocol variant); ``attach()`` registers its
generated ``tick``.  The reference and event kernels call that tick after
every cycle, while the compiled kernel *fuses* it into its generated loop
(event-gated, state in locals).  These tests deliberately trigger each of
the five violation rules by driving a bare SIS bundle from a scripted
stimulus process, run the identical stimulus on the reference, event and
compiled kernels, and assert the resulting :class:`ProtocolViolation`
sequences — cycle, rule and detail text — are element-for-element identical,
proving the fused path is observationally indistinguishable from the
per-cycle call.
"""

import pytest

from repro.rtl import CompiledSimulator, ReferenceSimulator, Simulator
from repro.sis import ProtocolVariant, SISBundle, SISProtocolMonitor

KERNELS = (
    ("reference", ReferenceSimulator),
    ("event", Simulator),
    ("compiled", CompiledSimulator),
)

RULES = (
    "io_enable_strobe",
    "status_register_write",
    "data_in_stability",
    "func_id_stability",
    "read_handshake",
)

#: Stimulus schedules: cycle -> {signal name: next value}.  Driven by one
#: clocked process (no sensitivity declaration, so it runs on every kernel
#: every cycle) against an otherwise bare SIS bundle.
STIMULI = {
    "io_enable_strobe": {
        1: {"io_enable": 1},
        # held high for three more cycles without a new request
        5: {"io_enable": 0},
    },
    "status_register_write": {
        1: {"io_enable": 1, "data_in_valid": 1, "func_id": 0, "data_in": 0xAB},
        2: {"io_enable": 0, "data_in_valid": 0},
    },
    "data_in_stability": {
        1: {"data_in_valid": 1, "data_in": 0x11, "func_id": 2},
        3: {"data_in": 0x22},  # payload glitches while awaiting IO_DONE
        5: {"data_in_valid": 0},
    },
    "func_id_stability": {
        1: {"data_in_valid": 1, "data_in": 0x33, "func_id": 2},
        3: {"func_id": 3},  # target glitches while awaiting IO_DONE
        5: {"data_in_valid": 0},
    },
    "read_handshake": {
        1: {"data_out_valid": 1},  # no IO_DONE alongside it
        3: {"data_out_valid": 0},
    },
    "clean_transfer": {
        1: {"data_in_valid": 1, "data_in": 0x44, "func_id": 1, "io_enable": 1},
        2: {"io_enable": 0},
        3: {"io_done": 1},
        4: {"io_done": 0, "data_in_valid": 0},
    },
}


def _run(factory, schedule, variant, cycles=12):
    sim = factory()
    bundle = SISBundle(data_width=32, func_id_width=3)
    sim.add_signals(bundle.signals())
    monitor = SISProtocolMonitor(bundle, variant=variant).attach(sim)

    def stimulus():
        changes = schedule.get(sim.cycle)
        if changes:
            for name, value in changes.items():
                getattr(bundle, name).next = value

    sim.add_clocked(stimulus)
    sim.step(cycles)
    return sim, [(v.cycle, v.rule, v.detail) for v in monitor.violations]


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("scenario", sorted(STIMULI))
def test_violations_identical_across_kernels(scenario, variant):
    schedule = STIMULI[scenario]
    results = {}
    for label, factory in KERNELS:
        sim, violations = _run(factory, schedule, variant)
        results[label] = violations
        if label == "compiled":
            # The monitor really was fused into the generated loop (and the
            # violations were produced by the inline path, not a callback).
            assert sim.design.fused_monitors == 1
            assert "io_enable_strobe" in sim.design.source
    assert results["reference"] == results["event"] == results["compiled"], results


@pytest.mark.parametrize("rule", RULES)
def test_each_rule_fires_on_every_kernel(rule):
    """Each of the five rules is actually triggered by its stimulus."""
    variant = ProtocolVariant.PSEUDO_ASYNCHRONOUS
    for label, factory in KERNELS:
        _, violations = _run(factory, STIMULI[rule], variant)
        assert any(v[1] == rule for v in violations), (label, rule, violations)


def test_clean_transfer_stays_clean():
    for label, factory in KERNELS:
        _, violations = _run(
            factory, STIMULI["clean_transfer"], ProtocolVariant.PSEUDO_ASYNCHRONOUS
        )
        assert violations == [], (label, violations)


def test_strictly_synchronous_variant_skips_handshake_rules():
    """The strict variant has no stability/handshake axioms to violate."""
    for label, factory in KERNELS:
        _, violations = _run(
            factory,
            STIMULI["data_in_stability"],
            ProtocolVariant.STRICTLY_SYNCHRONOUS,
        )
        assert all(v[1] in ("io_enable_strobe", "status_register_write") for v in violations), (
            label,
            violations,
        )
