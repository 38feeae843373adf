"""Command-line interface.

Subcommands:

``splice generate <spec-file> [-o OUTPUT_DIR] [--list-only]``
    Mirrors how the original tool was driven: point it at a specification
    file and it writes the generated hardware and software files into a
    subdirectory named after the ``%device_name`` directive.
    ``--simulate N`` additionally elaborates the generated design into a
    simulated SoC (with default stub behaviours), advances it ``N`` bus
    cycles, and prints the kernel's
    :class:`~repro.rtl.simulator.SimulatorStats`; ``--kernel`` selects the
    event-driven kernel (default), the snapshot-based reference kernel, or
    the levelized compiled kernel (see :data:`repro.rtl.KERNELS`).

``splice campaign run``
    Run a declarative campaign grid (a preset, or implementations × a
    parametric scenario sweep) serially or on a farm of worker processes
    started for the run, with an optional content-addressed result cache,
    and write JSON/CSV/markdown artifacts.

``splice campaign report <campaign.json>``
    Re-render a previously written campaign result as markdown, CSV or a
    plain-text table without re-running anything.

``splice profile <label-or-spec> [--kernel K] [--scenario N] [--top N]``
    Run one scenario (for a registry label such as ``splice_plb``) or a
    plain simulation (for a specification file) under :mod:`cProfile` and
    print the top cumulative hotspots — the reproducible way to attribute
    wall-clock between the harness (drivers, masters, monitors) and the
    simulation kernel.

``splice fuzz run [--budget N] [--seed S] [--faults] [--profile quick|deep]``
    Property-based scenario fuzzing with the kernels as the oracle
    (:mod:`repro.fuzz`): generate randomized topologies and workloads,
    execute each on all three kernels, and record any disagreement as a
    shrunk, replayable counterexample in the corpus.  Exits nonzero only
    if counterexamples were found, and only at the end of the budget.

``splice fuzz replay <case>``
    Re-run one corpus case (a JSON path, or a case token to look up in the
    corpus directory) through the oracle and report its verdict.

``splice fuzz submit [--url URL] [--seed-start S] [--sessions N] [--budget B]``
    Shard a fuzz seed range across a running farm's warm workers (one
    deterministic session per seed), stream findings as they are shrunk,
    and print the aggregated coverage summary.

``splice serve [--host H] [--port P] [--workers N|auto] [--state-dir DIR]``
    Start the long-lived simulation farm (:mod:`repro.service`): persistent
    warm workers, a priority job queue and the streaming HTTP/JSON API.
    ``--preload`` builds named runners in every worker before the first job
    arrives.  ``--state-dir`` makes the farm durable: a write-ahead job
    journal plus the persistent cache and fuzz corpus live under it, and a
    killed server resumes every unfinished job on restart.  ``--queue-limit``
    bounds active jobs (backpressure: 503 + Retry-After); ``--stuck-timeout``
    arms the heartbeat watchdog that kills and respawns wedged workers.

``splice submit [grid args] [--url URL] [--priority N] [--no-follow]``
    Submit a campaign grid (the same ``--preset``/``--sweep``/... arguments
    as ``campaign run``) to a running farm, follow its event stream, and
    print/write the result — bit-identical to ``campaign run`` on the same
    grid.

The legacy flat invocation ``splice <spec-file> [...]`` still works: when
the first argument is not a subcommand name it is routed to ``generate``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.campaign.sweep import SWEEP_MODES
from repro.core.engine import Splice
from repro.core.syntax.errors import SpliceError
from repro.rtl import DEFAULT_KERNEL, KERNELS

#: Names that select a subcommand; anything else routes to ``generate``.
_SUBCOMMANDS = ("generate", "campaign", "profile", "serve", "submit", "faults", "fuzz")

#: Kernel choices come from the one registry, so a new kernel is
#: automatically selectable here.
_KERNEL_CHOICES = tuple(sorted(KERNELS))


def _workers_arg(value: str) -> int:
    """``--workers`` spelling: a positive count, or ``auto``/``0`` for one
    worker per host CPU (resolved by
    :func:`repro.campaign.executor.resolve_workers`)."""
    if value == "auto":
        return 0
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if workers < 0:
        raise argparse.ArgumentTypeError("workers must be >= 0 (0 = auto)")
    return workers


def _add_generate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", help="path to the Splice specification file")
    parser.add_argument(
        "-o", "--output", default=".", help="directory under which <device_name>/ is created"
    )
    parser.add_argument(
        "--list-only",
        action="store_true",
        help="print the files that would be generated without writing them",
    )
    parser.add_argument(
        "--simulate",
        type=int,
        default=None,
        metavar="CYCLES",
        help="elaborate the design, run CYCLES bus cycles, and print simulator stats "
        "(no files are written)",
    )
    parser.add_argument(
        "--kernel",
        choices=_KERNEL_CHOICES,
        default=DEFAULT_KERNEL,
        help="simulation kernel used with --simulate: the event-driven "
        "scheduler (default), the snapshot-based reference oracle, or the "
        "levelized compiled kernel",
    )
    parser.add_argument(
        "--no-leap",
        action="store_true",
        help="disable the compiled kernel's cycle-leaping fast path "
        "(debugging aid: idle spans are executed cycle by cycle; "
        "only meaningful with --kernel compiled)",
    )


def _add_campaign_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Grid-selection arguments shared by ``campaign run`` and ``submit``:
    both expand the same :class:`CampaignSpec`, so a grid described to either
    command is the identical set of cells."""
    parser.add_argument(
        "--preset",
        choices=("paper", "sweep"),
        default=None,
        help="ready-made grid: 'paper' (5 implementations x Figure 9.1) or "
        "'sweep' (splice implementations x a parametric sweep)",
    )
    parser.add_argument(
        "--implementations",
        nargs="+",
        metavar="LABEL",
        default=None,
        help="implementation labels (default: the preset's, or the paper's five)",
    )
    parser.add_argument(
        "--sweep",
        choices=SWEEP_MODES,
        default=None,
        help="generate scenarios from a parametric sweep instead of Figure 9.1",
    )
    parser.add_argument("--sweep-count", type=int, default=4, metavar="N",
                        help="number of sweep scenarios (default: 4)")
    parser.add_argument("--sweep-seed", type=int, default=0,
                        help="seed for the 'random' sweep mode (default: 0)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0], metavar="S",
                        help="input-data seeds (default: 0)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="repeats per cell; each repeat draws fresh inputs (default: 1)")
    parser.add_argument("--kernel", choices=_KERNEL_CHOICES, default=DEFAULT_KERNEL,
                        help="simulation kernel every cell runs on (default: "
                        f"{DEFAULT_KERNEL}); the kernel is part of each cell's "
                        "identity and cache key")
    parser.add_argument("--faults", nargs="+", metavar="SCHEDULE", default=None,
                        help="fault-schedule grid axis: each value is a schedule "
                        "token like 'stuck_at_1:IO_ENABLE:10:3:*' (semicolon-join "
                        "specs for multi-fault schedules) or 'none' for the clean "
                        "baseline; every grid cell is run once per schedule "
                        "(default: clean only)")


def _check_grid_args(args) -> Optional[str]:
    """The one cross-argument constraint on the shared grid arguments."""
    if args.preset == "paper" and (args.sweep is not None or args.implementations is not None):
        return (
            "--preset paper fixes the grid; it cannot be combined with "
            "--sweep or --implementations (drop --preset to customise)"
        )
    return None


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splice",
        description="Generate bus-independent peripheral interfaces from a Splice "
        "specification, and run evaluation campaigns over them.",
    )
    subparsers = parser.add_subparsers(dest="command")

    generate = subparsers.add_parser(
        "generate", help="generate interface files from a specification"
    )
    _add_generate_arguments(generate)

    campaign = subparsers.add_parser(
        "campaign", help="run or report declarative experiment campaigns"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    run = campaign_sub.add_parser("run", help="run a campaign grid")
    _add_campaign_grid_arguments(run)
    run.add_argument("--workers", type=_workers_arg, default=1, metavar="N",
                     help="worker processes; 1 = serial, 0 or 'auto' = one per "
                     "host CPU (default: 1)")
    run.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="content-addressed result cache directory (default: no cache)")
    run.add_argument("--artifacts", default=None, metavar="DIR",
                     help="write campaign.json/.csv/.md under DIR")

    report = campaign_sub.add_parser("report", help="re-render a saved campaign result")
    report.add_argument("result", help="path to a campaign.json written by 'campaign run'")
    report.add_argument("--format", choices=("markdown", "csv", "text"), default="markdown",
                        help="output format (default: markdown)")

    faults = subparsers.add_parser(
        "faults",
        help="deterministic fault injection against the SIS protocol monitor",
        description="Mutation testing for the protocol monitor: inject seeded, "
        "probe-guided faults (stuck-at, bit flip, transient pulse, delayed "
        "handshake, dropped/duplicated beat) into generated adapters and "
        "report which ones the monitor detects.  Escapes are findings, not "
        "failures — the command exits 0 either way.",
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_run = faults_sub.add_parser(
        "run", help="run the (bus x fault class) monitor-efficacy matrix"
    )
    faults_run.add_argument("--buses", nargs="+", metavar="LABEL", default=None,
                            help="Splice implementation labels to sweep "
                            "(default: the four-bus Figure 9.1 grid)")
    faults_run.add_argument("--classes", nargs="+", metavar="KIND", default=None,
                            help="fault classes to inject (default: all seven)")
    faults_run.add_argument("--scenario", type=int, default=1, metavar="N",
                            help="Figure 9.1 scenario number to run (default: 1)")
    faults_run.add_argument("--seed", type=int, default=0,
                            help="placement seed (default: 0); every row records "
                            "its exact schedule token for bit-exact replay")
    faults_run.add_argument("--kernel", choices=_KERNEL_CHOICES, default="compiled",
                            help="simulation kernel to inject into (default: "
                            "compiled; all three are cycle-exact under injection)")
    faults_run.add_argument("--artifacts", default=None, metavar="DIR",
                            help="write faults.md and faults.json under DIR")

    fuzz = subparsers.add_parser(
        "fuzz",
        help="property-based scenario fuzzing with the kernels as the oracle",
        description="Generate randomized topologies and workloads, run each on "
        "all three kernels, and demand identical traces, outcomes, monitor "
        "violations, and balanced leap accounting.  Failures are shrunk and "
        "saved as replayable JSON counterexamples in the regression corpus.",
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)
    fuzz_run = fuzz_sub.add_parser("run", help="run a deterministic fuzz session")
    fuzz_run.add_argument("--budget", type=int, default=100, metavar="N",
                          help="number of generated cases to execute (default: 100)")
    fuzz_run.add_argument("--seed", type=int, default=0, metavar="S",
                          help="session seed; (seed, budget, profile, faults) fully "
                          "determines every generated case (default: 0)")
    fuzz_run.add_argument("--faults", action="store_true",
                          help="compose cases with random fault schedules "
                          "(all three kernels must stay cycle-exact under injection)")
    fuzz_run.add_argument("--profile", choices=("quick", "deep"), default="quick",
                          help="case-size profile (default: quick)")
    fuzz_run.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS",
                          help="per-case watchdog; a case that exceeds it is killed "
                          "and recorded as a 'hang' counterexample (default: 10)")
    fuzz_run.add_argument("--corpus", default=None, metavar="DIR",
                          help="corpus directory for shrunk counterexamples "
                          "(default: the repo's tests/corpus)")
    fuzz_run.add_argument("--no-save", action="store_true",
                          help="report counterexamples without writing corpus files")
    fuzz_run.add_argument("--report", default=None, metavar="PATH",
                          help="also write the full session report as JSON to PATH")
    fuzz_replay = fuzz_sub.add_parser("replay", help="replay one corpus case")
    fuzz_replay.add_argument("case",
                             help="path to a corpus JSON file, or a case token to "
                             "look up in the corpus directory")
    fuzz_replay.add_argument("--corpus", default=None, metavar="DIR",
                             help="corpus directory for token lookup "
                             "(default: the repo's tests/corpus)")
    fuzz_replay.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS",
                             help="per-case watchdog (default: 10); 0 disables it "
                             "for debugging a hanging case")
    fuzz_submit = fuzz_sub.add_parser(
        "submit",
        help="submit a sharded fuzz job to a running farm",
        description="Shard a seed range across a 'splice serve' farm's warm "
        "workers (one deterministic session per seed), stream findings as "
        "they are shrunk, and print the aggregated coverage summary.",
    )
    fuzz_submit.add_argument("--url", default="http://127.0.0.1:8032",
                             help="farm base URL (default: http://127.0.0.1:8032)")
    fuzz_submit.add_argument("--seed-start", type=int, default=0, metavar="S",
                             help="first session seed (default: 0)")
    fuzz_submit.add_argument("--sessions", type=int, default=4, metavar="N",
                             help="number of sessions = seeds = shards (default: 4)")
    fuzz_submit.add_argument("--budget", type=int, default=100, metavar="N",
                             help="cases per session (default: 100)")
    fuzz_submit.add_argument("--profile", choices=("quick", "deep"), default="quick",
                             help="case-size profile (default: quick)")
    fuzz_submit.add_argument("--faults", action="store_true",
                             help="compose cases with random fault schedules")
    fuzz_submit.add_argument("--case-timeout", type=float, default=10.0,
                             metavar="SECONDS",
                             help="per-case watchdog inside each session (default: 10)")
    fuzz_submit.add_argument("--priority", type=int, default=0,
                             help="queue priority; higher runs sooner (default: 0)")
    fuzz_submit.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                             help="per-job timeout enforced by the farm (default: none)")
    fuzz_submit.add_argument("--no-follow", action="store_true",
                             help="print the job id and exit instead of streaming "
                             "events and waiting for the summary")

    profile = subparsers.add_parser(
        "profile",
        help="cProfile a scenario run (harness-vs-kernel attribution)",
        description="Run one implementation scenario (or a spec-file simulation) "
        "under cProfile and print the top cumulative hotspots, so "
        "harness-vs-kernel time attribution is reproducible by anyone.",
    )
    profile.add_argument(
        "spec",
        help="an implementation label from the runner registry (e.g. splice_plb) "
        "or a path to a Splice specification file",
    )
    profile.add_argument("--kernel", choices=_KERNEL_CHOICES, default=DEFAULT_KERNEL,
                         help=f"simulation kernel to profile (default: {DEFAULT_KERNEL})")
    profile.add_argument("--no-leap", action="store_true",
                         help="disable the compiled kernel's cycle-leaping fast path "
                         "(only meaningful with --kernel compiled)")
    profile.add_argument("--scenario", type=int, default=2, metavar="N",
                         help="Figure 9.1 scenario number for registry labels (default: 2)")
    profile.add_argument("--repeat", type=int, default=20, metavar="R",
                         help="scenario repetitions under the profiler (default: 20)")
    profile.add_argument("--cycles", type=int, default=20_000, metavar="CYCLES",
                         help="cycles to simulate when profiling a spec file (default: 20000)")
    profile.add_argument("--top", type=int, default=25, metavar="N",
                         help="number of hotspots to print (default: 25)")
    profile.add_argument("--sort", choices=("cumulative", "tottime"), default="cumulative",
                         help="pstats sort order (default: cumulative)")

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived simulation farm with its HTTP/JSON API",
        description="Start a persistent simulation farm: warm worker processes "
        "holding built runners resident across jobs, a priority job queue, a "
        "shared content-addressed result cache, and the HTTP API "
        "(POST /jobs, GET /jobs/<id>, streaming GET /jobs/<id>/events, "
        "DELETE /jobs/<id>, GET /stats).  Submit work with 'splice submit'.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="address to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8032,
                       help="port to bind; 0 picks an ephemeral port (default: 8032)")
    serve.add_argument("--workers", type=_workers_arg, default=0, metavar="N",
                       help="warm worker processes; 0 or 'auto' = one per host CPU "
                       "(default: auto)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared content-addressed result cache directory "
                       "(default: an ephemeral cache that dies with the farm)")
    serve.add_argument("--preload", nargs="+", metavar="LABEL[:KERNEL]", default=(),
                       help="implementation runners to build in every worker at "
                       "startup, e.g. 'splice_plb' or 'splice_plb:compiled' "
                       "(default: none; runners are built on first use)")
    serve.add_argument("--shard-size", type=int, default=None, metavar="CELLS",
                       help="cells per dispatched shard — the unit of scheduling "
                       "and cancellation (default: 4)")
    serve.add_argument("--drain-timeout", type=float, default=30.0, metavar="SECONDS",
                       help="on SIGINT/SIGTERM, stop accepting jobs and let "
                       "running work finish for up to this long before "
                       "cancelling what remains (default: 30; 0 = stop "
                       "immediately)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="make the farm durable: keep a write-ahead job "
                       "journal (plus the result cache and fuzz corpus) under "
                       "DIR, so a killed server resumes every unfinished job "
                       "on restart from its last completed shard (default: "
                       "no journal; jobs die with the process)")
    serve.add_argument("--queue-limit", type=int, default=None, metavar="N",
                       help="backpressure: reject new submissions with 503 + "
                       "Retry-After while N jobs are already active "
                       "(default: unbounded)")
    serve.add_argument("--stuck-timeout", type=float, default=None, metavar="SECONDS",
                       help="SIGKILL and respawn a busy worker that has sent "
                       "no message for this long (default: 300; 0 disables "
                       "the watchdog)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    submit = subparsers.add_parser(
        "submit",
        help="submit a campaign grid to a running farm",
        description="Submit a campaign (the same grid arguments as "
        "'campaign run') to a 'splice serve' farm over HTTP, follow its "
        "event stream, and print or write the result — bit-identical to "
        "running the same grid locally.",
    )
    _add_campaign_grid_arguments(submit)
    submit.add_argument("--url", default="http://127.0.0.1:8032",
                        help="farm base URL (default: http://127.0.0.1:8032)")
    submit.add_argument("--priority", type=int, default=0,
                        help="queue priority; higher runs sooner (default: 0)")
    submit.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-job timeout enforced by the farm (default: none)")
    submit.add_argument("--no-follow", action="store_true",
                        help="print the job id and exit instead of streaming "
                        "events and waiting for the result")
    submit.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write campaign.json/.csv/.md under DIR")

    return parser


def _simulate(args) -> int:
    from repro.soc.system import build_system

    source = Path(args.spec).read_text()
    system = build_system(source, kernel=args.kernel, leap=not args.no_leap)
    system.run(max(0, args.simulate))
    print(f"Simulated {system.cycles} bus cycles with the {args.kernel} kernel:")
    print(system.stats.report())
    return 0


def _generate(args) -> int:
    if args.simulate is not None and args.list_only:
        print("splice: --list-only and --simulate are mutually exclusive", file=sys.stderr)
        return 2
    engine = Splice()
    try:
        if args.simulate is not None:
            return _simulate(args)
        result = engine.generate_file(Path(args.spec))
    except FileNotFoundError:
        print(f"splice: specification file not found: {args.spec}", file=sys.stderr)
        return 2
    except SpliceError as exc:
        print(f"splice: {exc}", file=sys.stderr)
        return 1

    listing = result.hardware_file_listing() + result.software_file_listing()
    if args.list_only:
        for name in listing:
            print(name)
        return 0

    written = result.write_to(args.output)
    print(f"Generated {len(listing)} files for device {result.device_name!r}:")
    for name in listing:
        print(f"  {written[name]}")
    return 0


def _print_fsm_attribution(simulator) -> None:
    """Per-machine cycle attribution (compiled kernel only).

    Names where the per-cycle budget goes instead of leaving it to guesses:
    one row per clocked machine with the cycles it actually ran (``active``)
    versus the cycles the wait-state gate elided it and the cycles the
    kernel leaped over outright (every machine parked — no per-cycle work at
    all), plus whether the machine executes inline in the generated loop
    (``lowered``) or as a Python call.
    """
    process_profile = getattr(simulator, "process_profile", None)
    if process_profile is None:
        return
    records = sorted(process_profile(), key=lambda r: -r["active"])
    cycles = simulator.stats.cycles or 1
    leaped = simulator.stats.leaped_cycles
    print(f"\nPer-FSM attribution over {simulator.stats.cycles} cycles, "
          f"{leaped} of them leaped (active = cycles the machine ran, "
          f"elided = skipped while parked, leaped = whole-kernel skips):")
    width = max([len(r["label"]) for r in records] + [7])
    print(f"  {'machine':<{width}}  {'kind':<7}  {'active':>8}  {'elided':>8}  "
          f"{'leaped':>8}  active%")
    for record in records:
        share = 100.0 * record["active"] / cycles
        print(
            f"  {record['label']:<{width}}  {record['kind']:<7}  "
            f"{record['active']:>8}  {record['elided']:>8}  "
            f"{record.get('leaped', 0):>8}  {share:6.1f}%"
        )


def _profile(args) -> int:
    """``splice profile``: cProfile a scenario run, print top-N hotspots."""
    import cProfile
    import pstats

    from repro.devices.registry import build_runner, known_labels
    from repro.evaluation.scenarios import SCENARIOS

    profiler = cProfile.Profile()
    simulator = None
    if args.spec in known_labels():
        scenario = next((s for s in SCENARIOS if s.number == args.scenario), None)
        if scenario is None:
            numbers = sorted(s.number for s in SCENARIOS)
            print(f"splice: unknown scenario {args.scenario} (known: {numbers})", file=sys.stderr)
            return 2
        runner = build_runner(args.spec, kernel=args.kernel, leap=not args.no_leap)
        simulator = getattr(runner, "simulator", None)
        if simulator is None:
            simulator = runner.system.simulator
        sets = scenario.generate_inputs()
        runner.run_scenario(sets)  # warm up: elaboration/compile stays out of the profile
        cycles = 0
        profiler.enable()
        for _ in range(max(1, args.repeat)):
            cycles += runner.run_scenario(sets)["cycles"]
        profiler.disable()
        subject = (
            f"{args.spec} scenario {args.scenario} x{max(1, args.repeat)} "
            f"({cycles} bus cycles)"
        )
    else:
        from repro.soc.system import build_system

        try:
            source = Path(args.spec).read_text()
        except OSError:
            print(
                f"splice: {args.spec!r} is neither a registered implementation label "
                f"(known: {known_labels()}) nor a readable specification file",
                file=sys.stderr,
            )
            return 2
        try:
            system = build_system(source, kernel=args.kernel, leap=not args.no_leap)
        except SpliceError as exc:
            print(f"splice: {exc}", file=sys.stderr)
            return 1
        cycles = max(1, args.cycles)
        system.run(1)  # warm up (first step compiles on the compiled kernel)
        simulator = system.simulator
        profiler.enable()
        system.run(cycles)
        profiler.disable()
        subject = f"{args.spec} ({cycles} bus cycles)"

    print(f"Profile of {subject} on the {args.kernel} kernel, by {args.sort} time:")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(max(1, args.top))
    _print_fsm_attribution(simulator)
    return 0


def _campaign_spec_from_args(args):
    from repro.campaign.presets import PAPER_IMPLEMENTATIONS, paper_grid, sweep_grid
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.sweep import ScenarioSweep
    from repro.evaluation.scenarios import SCENARIOS

    sweep = None
    if args.sweep is not None or args.preset == "sweep":
        # The sweep preset without an explicit --sweep mode uses the default
        # (linear) mode but still honours --sweep-count / --sweep-seed.
        sweep = ScenarioSweep(
            mode=args.sweep or "linear", count=args.sweep_count, seed=args.sweep_seed
        )

    if args.preset == "paper" or (args.preset is None and sweep is None and args.implementations is None):
        spec = paper_grid(seeds=tuple(args.seeds), repeats=args.repeats, kernel=args.kernel)
    elif args.preset == "sweep" or sweep is not None:
        kwargs = dict(seeds=tuple(args.seeds), repeats=args.repeats, kernel=args.kernel)
        if args.implementations is not None:
            kwargs["implementations"] = tuple(args.implementations)
        spec = sweep_grid(sweep, **kwargs)
    else:
        spec = CampaignSpec(
            implementations=tuple(args.implementations or PAPER_IMPLEMENTATIONS),
            scenarios=SCENARIOS,
            seeds=tuple(args.seeds),
            repeats=args.repeats,
            name="cli-grid",
            kernel=args.kernel,
        )
    if getattr(args, "faults", None):
        import dataclasses

        faults = tuple(
            None if token.lower() in ("none", "clean") else token
            for token in args.faults
        )
        # replace() re-runs __post_init__, so malformed tokens fail here with
        # the parser's message rather than inside a worker.
        spec = dataclasses.replace(spec, faults=faults)
    return spec


def _campaign_run(args) -> int:
    from repro.campaign.runner import run_campaign
    from repro.evaluation.experiments import IMPLEMENTATION_NAMES

    problem = _check_grid_args(args)
    if problem is not None:
        print(f"splice: {problem}", file=sys.stderr)
        return 2
    spec = _campaign_spec_from_args(args)
    cache = None
    if args.cache_dir:
        from repro.campaign.cache import ResultCache

        try:
            cache = ResultCache(args.cache_dir)
        except OSError as exc:
            print(f"splice: cannot use cache directory {args.cache_dir!r}: {exc}", file=sys.stderr)
            return 2
    try:
        result = run_campaign(spec, workers=args.workers, cache=cache)
    finally:
        if cache is not None:
            cache.close()
    meta = result.meta
    print(
        f"Campaign {spec.name!r}: {meta['cells_total']} cells "
        f"({meta['cells_cached']} cached, {meta['cells_executed']} executed) "
        f"via {meta['executor']} executor x{meta['workers']} "
        f"in {meta['elapsed_s']:.3f}s"
    )
    if args.artifacts:
        paths = result.write_artifacts(Path(args.artifacts), names=IMPLEMENTATION_NAMES)
        for kind, path in sorted(paths.items()):
            print(f"  {kind}: {path}")
    else:
        print()
        print(result.to_markdown(names=IMPLEMENTATION_NAMES))
    return 0


def _campaign_report(args) -> int:
    from repro.campaign.result import CampaignResult
    from repro.evaluation.experiments import IMPLEMENTATION_NAMES
    from repro.evaluation.report import cycles_report

    path = Path(args.result)
    if not path.exists():
        print(f"splice: campaign result not found: {args.result}", file=sys.stderr)
        return 2
    result = CampaignResult.from_json(path)
    if args.format == "markdown":
        print(result.to_markdown(names=IMPLEMENTATION_NAMES), end="")
    elif args.format == "csv":
        print(result.to_csv(), end="")
    else:
        table = result.cycles_table()
        ordered = {label: table[label] for label in result.spec.implementations if label in table}
        print(cycles_report(ordered, IMPLEMENTATION_NAMES))
    return 0


def _faults_run(args) -> int:
    """``splice faults run``: the monitor-efficacy matrix."""
    import json as json_module

    from repro.evaluation.scenarios import SCENARIOS
    from repro.faults import (
        DEFAULT_MATRIX_BUSES,
        FAULT_KINDS,
        matrix_to_markdown,
        matrix_to_payload,
        run_fault_matrix,
    )

    buses = tuple(args.buses) if args.buses else DEFAULT_MATRIX_BUSES
    kinds = tuple(args.classes) if args.classes else FAULT_KINDS
    unknown = [kind for kind in kinds if kind not in FAULT_KINDS]
    if unknown:
        print(f"splice: unknown fault class(es) {unknown} "
              f"(known: {list(FAULT_KINDS)})", file=sys.stderr)
        return 2
    by_number = {s.number: s for s in SCENARIOS}
    scenario = by_number.get(args.scenario)
    if scenario is None:
        print(f"splice: unknown scenario {args.scenario} "
              f"(known: {sorted(by_number)})", file=sys.stderr)
        return 2
    try:
        rows = run_fault_matrix(
            buses, kinds, scenario=scenario, seed=args.seed, kernel=args.kernel
        )
    except KeyError as exc:
        print(f"splice: {exc}", file=sys.stderr)
        return 2
    payload = matrix_to_payload(rows, seed=args.seed, scenario=scenario, kernel=args.kernel)
    summary = payload["summary"]
    print(matrix_to_markdown(rows))
    print()
    print(
        f"{len(rows)} cells: {summary['detected']} detected, "
        f"{summary['escape']} escapes ({summary['crashed']} runs crashed). "
        "Escapes are monitor-coverage findings, not failures."
    )
    if args.artifacts:
        directory = Path(args.artifacts)
        directory.mkdir(parents=True, exist_ok=True)
        md_path = directory / "faults.md"
        json_path = directory / "faults.json"
        md_path.write_text(matrix_to_markdown(rows) + "\n")
        json_path.write_text(json_module.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"  markdown: {md_path}")
        print(f"  json: {json_path}")
    return 0


def _fuzz_run(args) -> int:
    """``splice fuzz run``: one deterministic fuzz session."""
    import json as json_module

    from repro.fuzz.corpus import DEFAULT_CORPUS_DIR

    if args.budget < 1:
        print(f"splice: fuzz budget must be >= 1, got {args.budget}", file=sys.stderr)
        return 2
    try:
        from repro.fuzz.session import run_session
    except ImportError as exc:
        print(f"splice: {exc}", file=sys.stderr)
        return 2
    corpus_dir = None if args.no_save else Path(args.corpus or DEFAULT_CORPUS_DIR)
    report = run_session(
        args.budget,
        args.seed,
        profile=args.profile,
        with_faults=args.faults,
        timeout_s=args.timeout,
        corpus_dir=corpus_dir,
    )
    print(report.render())
    if args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json_module.dumps(report.describe(), indent=2, sort_keys=True) + "\n")
        print(f"  report: {path}")
    return report.exit_code


def _fuzz_replay(args) -> int:
    """``splice fuzz replay``: one corpus case back through the oracle."""
    from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, corpus_files, replay_case

    candidate = Path(args.case)
    if not candidate.is_file():
        corpus = Path(args.corpus or DEFAULT_CORPUS_DIR)
        matches = [p for p in corpus_files(corpus) if args.case in p.name]
        if len(matches) != 1:
            wanted = f"token {args.case!r}"
            if matches:
                names = ", ".join(p.name for p in matches)
                print(f"splice: {wanted} is ambiguous in {corpus}: {names}", file=sys.stderr)
            else:
                print(f"splice: no file or corpus case matches {wanted} "
                      f"(searched {corpus})", file=sys.stderr)
            return 2
        candidate = matches[0]
    try:
        verdict = replay_case(candidate, timeout_s=args.timeout)
    except (ValueError, KeyError) as exc:
        print(f"splice: malformed corpus case {candidate}: {exc}", file=sys.stderr)
        return 2
    status = "PASS" if verdict.ok else "FAIL"
    kernel = f" kernel={verdict.kernel}" if verdict.kernel else ""
    print(f"{status} [{verdict.kind}]{kernel} {candidate.name}: {verdict.detail}")
    return 0 if verdict.ok else 1


def _fuzz_submit(args) -> int:
    """``splice fuzz submit``: shard a seed range across a running farm."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        job = client.submit_fuzz(
            seed_start=args.seed_start,
            sessions=args.sessions,
            budget=args.budget,
            profile=args.profile,
            with_faults=args.faults,
            case_timeout_s=args.case_timeout,
            priority=args.priority,
            timeout_s=args.timeout,
        )
    except ServiceError as exc:
        print(f"splice: farm rejected the fuzz job: {exc}", file=sys.stderr)
        if exc.retry_after is not None:
            print(f"splice: farm is saturated; retry in {exc.retry_after:g}s",
                  file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"splice: no farm reachable at {args.url} ({exc}); "
              "start one with 'splice serve'", file=sys.stderr)
        return 1
    total = args.sessions
    print(f"Submitted fuzz job {job['id']} ({total} sessions x "
          f"{args.budget} cases, seeds {args.seed_start}.."
          f"{args.seed_start + total - 1}) to {args.url}")
    if args.no_follow:
        print(f"  follow with: GET {args.url}/jobs/{job['id']}/events")
        return 0

    for event in client.events(job["id"]):
        kind = event.get("event")
        if kind == "session":
            print(f"  [{event['done']}/{total}] seed {event['seed']}: "
                  f"{event['executed']} cases, {event['findings']} finding(s), "
                  f"{event['coverage']} coverage cells "
                  f"(worker {event['worker']}, {event['duration_s']:.2f}s)")
        elif kind == "finding":
            print(f"  ! {event.get('kind')} counterexample {event.get('token')} "
                  f"(worker {event.get('worker')})")
        elif kind == "session_error":
            print(f"  seed {event['seed']} failed: {event['error']}",
                  file=sys.stderr)
        elif kind == "state":
            print(f"  job {job['id']}: {event['state']}")
    status = client.status(job["id"])
    if status["state"] not in ("done", "failed"):
        print(f"splice: job {job['id']} ended {status['state']}", file=sys.stderr)
        return 1
    summary = client.result(job["id"])
    findings = summary["counterexamples"]
    print(f"Job {job['id']}: {summary['executed']} cases over "
          f"{len(summary['sessions'])} session(s), "
          f"{len(summary['coverage'])} coverage cells, "
          f"{len(findings)} distinct counterexample(s), "
          f"{len(summary['errors'])} failed session(s)")
    for cell in summary["coverage"]:
        print(f"  covered: {cell}")
    for finding in findings:
        print(f"  counterexample: {finding.get('kind')} {finding.get('token')}")
    return 0 if status["state"] == "done" and not findings else 1


def _serve(args) -> int:
    """``splice serve``: run the farm + HTTP API until interrupted."""
    from repro.service import DEFAULT_SHARD_SIZE, SimulationFarm, resolve_workers, serve_farm

    cache = None
    if args.cache_dir:
        from repro.campaign.cache import ResultCache

        try:
            cache = ResultCache(args.cache_dir)
        except OSError as exc:
            print(f"splice: cannot use cache directory {args.cache_dir!r}: {exc}", file=sys.stderr)
            return 2
    stuck_timeout = args.stuck_timeout
    if stuck_timeout is None:
        from repro.service import DEFAULT_STUCK_TIMEOUT_S

        stuck_timeout = DEFAULT_STUCK_TIMEOUT_S
    elif stuck_timeout <= 0:
        stuck_timeout = None
    try:
        farm = SimulationFarm(
            workers=args.workers,
            cache=cache,
            preload=tuple(args.preload),
            shard_size=args.shard_size or DEFAULT_SHARD_SIZE,
            state_dir=args.state_dir,
            queue_limit=args.queue_limit,
            stuck_timeout_s=stuck_timeout,
        )
    except OSError as exc:
        print(f"splice: cannot use state directory {args.state_dir!r}: {exc}",
              file=sys.stderr)
        return 2
    try:
        farm.start()
    except (KeyError, ValueError) as exc:
        print(f"splice: {exc}", file=sys.stderr)
        return 2
    try:
        server = serve_farm(farm, args.host, args.port, quiet=not args.verbose)
    except OSError as exc:
        farm.stop()
        print(f"splice: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    cache_note = args.cache_dir or (
        f"{args.state_dir}/cache" if args.state_dir else "ephemeral"
    )
    durable_note = f", journal {args.state_dir}" if args.state_dir else ""
    recovered = farm.counters["jobs_recovered"]
    if recovered:
        print(f"splice farm: recovered {recovered} unfinished job(s) "
              f"from {args.state_dir}", flush=True)
    print(
        f"splice farm: {resolve_workers(args.workers)} warm workers, "
        f"cache {cache_note}{durable_note}, "
        f"serving on http://{host}:{port}  (Ctrl-C to stop)",
        flush=True,  # the banner is what wrappers/tests parse for the bound port
    )

    import signal

    def _terminate(signum, frame):  # SIGTERM drains exactly like Ctrl-C
        raise KeyboardInterrupt

    previous_term = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        # Graceful drain: the farm rejects new jobs (503) but running and
        # queued shards keep executing; established event streams (daemon
        # handler threads) stay connected and see each job's terminal event.
        print(f"\nsplice farm: draining for up to {args.drain_timeout:g}s "
              "(running jobs finish; new submissions are rejected)", flush=True)
        outcome = farm.drain(timeout_s=args.drain_timeout)
        if outcome["cancelled"]:
            print("splice farm: drain timeout — cancelled "
                  + ", ".join(outcome["cancelled"]), flush=True)
        print("splice farm: shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        server.shutdown()
        server.server_close()
        farm.stop()
    return 0


def _submit(args) -> int:
    """``splice submit``: send a grid to a farm, follow it, print the result."""
    from repro.evaluation.experiments import IMPLEMENTATION_NAMES
    from repro.service import ServiceClient, ServiceError

    problem = _check_grid_args(args)
    if problem is not None:
        print(f"splice: {problem}", file=sys.stderr)
        return 2
    spec = _campaign_spec_from_args(args)
    client = ServiceClient(args.url)
    try:
        job = client.submit(spec, priority=args.priority, timeout_s=args.timeout)
    except ServiceError as exc:
        print(f"splice: farm rejected the job: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"splice: no farm reachable at {args.url} ({exc}); "
              "start one with 'splice serve'", file=sys.stderr)
        return 1
    print(f"Submitted job {job['id']} ({job['cells_total']} cells, "
          f"priority {job['priority']}) to {args.url}")
    if args.no_follow:
        print(f"  follow with: GET {args.url}/jobs/{job['id']}/events")
        return 0

    total = job["cells_total"]
    for event in client.events(job["id"]):
        kind = event.get("event")
        if kind == "cell":
            print(f"  [{event['done']}/{total}] {event['label']} "
                  f"scenario {event['scenario']} seed {event['seed']} "
                  f"rep {event['repeat']}: {event['cycles']} cycles "
                  f"(worker {event['worker']})")
        elif kind == "cached":
            print(f"  {event['cells']}/{total} cells served from the result cache")
        elif kind == "state":
            print(f"  job {job['id']}: {event['state']}")
    status = client.status(job["id"])
    if status["state"] not in ("done", "failed"):
        print(f"splice: job {job['id']} ended {status['state']}", file=sys.stderr)
        return 1

    from repro.campaign.result import CampaignResult

    result = CampaignResult.from_dict(client.result(job["id"]))
    meta = result.meta
    print(
        f"Job {job['id']}: {meta['cells_total']} cells "
        f"({meta['cells_cached']} cached, {meta['cells_executed']} executed, "
        f"{meta['cells_failed']} failed) in {meta['elapsed_s']:.3f}s"
    )
    if args.artifacts:
        paths = result.write_artifacts(Path(args.artifacts), names=IMPLEMENTATION_NAMES)
        for kind, path in sorted(paths.items()):
            print(f"  {kind}: {path}")
    else:
        print()
        print(result.to_markdown(names=IMPLEMENTATION_NAMES))
    return 0 if status["state"] == "done" else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy flat invocation: `splice <spec-file> [...]`.  Only the FIRST
    # token can select a subcommand — a later bare token may be an option
    # value (e.g. `splice -o campaign spec.spl`).  Anything else routes to
    # `generate`, except bare help flags, which get the top-level help.
    if argv and argv[0] not in _SUBCOMMANDS and not all(t in ("-h", "--help") for t in argv):
        argv = ["generate"] + argv

    args = build_arg_parser().parse_args(argv)
    if args.command == "campaign":
        if args.campaign_command == "run":
            return _campaign_run(args)
        return _campaign_report(args)
    if args.command == "profile":
        return _profile(args)
    if args.command == "faults":
        return _faults_run(args)
    if args.command == "fuzz":
        if args.fuzz_command == "run":
            return _fuzz_run(args)
        if args.fuzz_command == "submit":
            return _fuzz_submit(args)
        return _fuzz_replay(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "submit":
        return _submit(args)
    if args.command == "generate":
        return _generate(args)
    build_arg_parser().print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(141)  # downstream pipe (e.g. `| head`) closed early
