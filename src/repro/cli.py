"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE``       — compile and execute a MiniJ program, reporting the
  result and the dynamic check counters;
* ``optimize FILE``  — run ABCD and print the per-check report (optionally
  the optimized IR and the dynamic before/after comparison; with
  ``--certify``, the independent checker's verdict on every elimination);
* ``ir FILE``        — print the compiled IR (e-SSA by default);
* ``dot FILE``       — emit Graphviz for a function's CFG or its
  inequality graphs;
* ``bench``          — regenerate the Figure-6 table over the corpus;
* ``fuzz``           — run a differential fuzzing campaign (random
  programs, unoptimized vs optimized execution, triage + shrinking);
* ``serve``          — run the crash-isolated compile service (NDJSON
  over stdin/stdout or a Unix socket, supervised worker pool);
* ``storm``          — storm the compile service under injected process
  faults (``--burst``: overload, ``--corrupt``: store corruption) and
  verify the no-lost-request guarantee.

Long-running commands (``bench``, ``fuzz``) catch SIGINT/SIGTERM, emit
their partial report, and exit with :data:`EXIT_INTERRUPTED` (130)
instead of dying with a raw traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import Iterator, List, Optional

from repro.core.abcd import ABCDConfig
from repro.core.solver import DEFAULT_MAX_STEPS
from repro.errors import CompileError, MiniJRuntimeError, ReproError
from repro.ir.printer import format_function, format_program
from repro.passes.session import CompilationSession
from repro.pipeline import clone_program, compile_source, run
from repro.robustness.guard import PassGuard
from repro.runtime.profiler import collect_profile


#: Exit code for a campaign cut short by SIGINT/SIGTERM — distinct from
#: success (0), findings/diagnostics (1), and usage errors (2), and
#: matching the shell convention for fatal-signal exits (128 + SIGINT).
EXIT_INTERRUPTED = 130


@contextlib.contextmanager
def _sigterm_as_interrupt() -> Iterator[None]:
    """Deliver SIGTERM as :class:`KeyboardInterrupt` inside the body.

    Long campaigns (``fuzz``, ``bench``) are routinely killed by batch
    schedulers with SIGTERM; translating it lets one interrupt path
    produce the partial report for both signals.  Main-thread only (the
    only place Python delivers signals); restored on exit.
    """
    if not hasattr(signal, "SIGTERM"):
        yield
        return

    def on_sigterm(signum, frame):
        raise KeyboardInterrupt()

    try:
        previous = signal.signal(signal.SIGTERM, on_sigterm)
    except ValueError:  # not the main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _add_compile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="MiniJ source file")
    parser.add_argument(
        "--inline", action="store_true", help="inline non-recursive calls first"
    )
    parser.add_argument(
        "--no-std-opts",
        action="store_true",
        help="skip copy propagation / constant folding / DCE",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="turn pass-guard rollbacks into hard errors",
    )


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-steps",
        type=int,
        default=DEFAULT_MAX_STEPS,
        metavar="N",
        help="solver step budget per proof (exhaustion keeps the check)",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help="solver recursion-depth budget per proof",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per proof session",
    )


def _compile(args, guard: Optional[PassGuard] = None) -> "Program":
    return compile_source(
        _read_source(args.file),
        standard_opts=not args.no_std_opts,
        inline=args.inline,
        guard=guard,
        strict=getattr(args, "strict", False),
    )


def _config_from(args) -> ABCDConfig:
    return ABCDConfig(
        upper=not getattr(args, "lower_only", False),
        lower=not getattr(args, "upper_only", False),
        gvn_mode=getattr(args, "gvn", "consult"),
        allocation_facts=not getattr(args, "no_allocation_facts", False),
        pre=getattr(args, "pre", False),
        max_steps=getattr(args, "max_steps", DEFAULT_MAX_STEPS),
        max_depth=getattr(args, "max_depth", None),
        deadline=getattr(args, "deadline", None),
        strict=getattr(args, "strict", False),
        certify=getattr(args, "certify", False),
    )


# ----------------------------------------------------------------------
# Commands.
# ----------------------------------------------------------------------


def cmd_run(args) -> int:
    program = _compile(args)
    if args.optimize:
        config = _config_from(args)
        profile = collect_profile(program, args.fn, args.args) if config.pre else None
        CompilationSession(config).optimize(program, profile=profile)
    try:
        result = run(program, args.fn, args.args)
    except MiniJRuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    stats = result.stats
    print(f"result: {result.value}")
    print(
        f"checks: {stats.total_checks} "
        f"(lower {stats.lower_checks}, upper {stats.upper_checks}, "
        f"speculative {stats.speculative_checks})"
    )
    print(f"instructions: {stats.instructions}  cycles: {stats.cycles}")
    return 0


def cmd_optimize(args) -> int:
    if getattr(args, "cache_dir", None):
        return _cmd_optimize_cached(args)
    # One session drives compilation and optimization: both share the
    # analysis cache, the guard, and the per-pass stats.
    session = CompilationSession(config=_config_from(args), strict=args.strict)
    program = session.compile(
        _read_source(args.file),
        standard_opts=not args.no_std_opts,
        inline=args.inline,
    )
    compile_failures = list(session.guard.failures)
    baseline = clone_program(program)
    profile = None
    if session.config.pre:
        profile = collect_profile(program, args.fn)
    report = session.optimize(program, profile=profile)
    status = 1 if report.certificates_rejected else 0
    if args.json:
        import json

        from repro.certify.driver import certificates_to_json

        print(json.dumps(certificates_to_json(report), indent=2, sort_keys=True))
        return status

    print(f"{'check':>6} {'kind':<6} {'function':<16} {'verdict':<8} "
          f"{'steps':>6} {'scope':<7} notes")
    for analysis in report.analyses:
        notes = []
        if analysis.via_gvn:
            notes.append("gvn")
        if analysis.pre_applied:
            notes.append(f"pre({analysis.pre_insertions})")
        if analysis.budget_exhausted:
            notes.append(f"budget!{analysis.exhausted_budget or ''}")
        if analysis.certificate is not None:
            notes.append(f"cert:{analysis.certificate}")
        if analysis.revoked:
            notes.append("revoked")
        print(
            f"#{analysis.check_id:>5} {analysis.kind:<6} "
            f"{analysis.function:<16} {analysis.result.name:<8} "
            f"{analysis.steps:>6} {analysis.scope or '-':<7} "
            f"{' '.join(notes)}"
        )
    print(
        f"\neliminated {report.eliminated_count()} of {report.analyzed} checks "
        f"({report.eliminated_count('upper')}/{report.analyzed_count('upper')} upper, "
        f"{report.eliminated_count('lower')}/{report.analyzed_count('lower')} lower); "
        f"mean steps/check: {report.mean_steps:.1f}"
    )
    rollbacks = len(compile_failures) + report.rollback_count
    exhausted = report.budget_exhausted_count
    kinds = report.budget_exhausted_kinds()
    breakdown = (
        " (" + ", ".join(f"{kinds[k]} {k}" for k in sorted(kinds)) + ")"
        if kinds
        else ""
    )
    print(
        f"robustness: {rollbacks} pass rollback(s), "
        f"{exhausted} budget-exhausted check(s){breakdown}"
    )
    if session.config.certify:
        print(
            f"certificates: {report.certificates_emitted} emitted, "
            f"{report.certificates_accepted} accepted, "
            f"{report.certificates_rejected} rejected, "
            f"{report.revoked_count} revoked"
        )
        for name in report.quarantined_functions:
            print(f"  quarantined: {name}")
    for failure in compile_failures + list(report.pass_failures):
        print(f"  rolled back: {failure}")
    if args.time_passes:
        print()
        print(session.stats.format_table())

    if args.compare:
        base_stats = run(baseline, args.fn).stats
        opt_stats = run(program, args.fn).stats
        survived = opt_stats.total_checks + opt_stats.speculative_checks
        print(
            f"dynamic checks: {base_stats.total_checks} -> {survived}; "
            f"cycles: {base_stats.cycles} -> {opt_stats.cycles} "
            f"({(base_stats.cycles - opt_stats.cycles) / base_stats.cycles:.1%} saved)"
        )
    if args.emit_ir:
        print()
        print(format_program(program))
    return status


def _cmd_optimize_cached(args) -> int:
    """``repro optimize --cache-dir``: the store-backed compile path.

    A hit means every stored certificate just re-replayed; a miss
    compiles fresh (certify forced on) and stores the result when
    cacheable.  Profiles are not collected on this path, so PRE stays
    inactive — the fingerprint covers that, keeping hits sound.
    """
    from repro.store import CertStore, cached_optimize_source

    store = CertStore(args.cache_dir)
    outcome = cached_optimize_source(
        store,
        _read_source(args.file),
        config=_config_from(args),
        standard_opts=not args.no_std_opts,
        inline=args.inline,
    )
    print(f"fingerprint: {outcome.fingerprint}")
    if outcome.hit:
        print("cache: hit (every certificate re-checked before use)")
    else:
        print(f"cache: {outcome.status}"
              + (f" ({outcome.unstored_reason})" if outcome.unstored_reason else ""))
        report = outcome.report
        print(
            f"eliminated {report.eliminated_count()} of {report.analyzed} checks"
        )
    counters = ", ".join(
        f"{name.split('.', 1)[1]} {value}"
        for name, value in sorted(store.counters.items())
    )
    print(f"store: {counters or 'no activity'}")
    if args.emit_ir:
        print()
        print(format_program(outcome.program))
    return 0


def cmd_cache(args) -> int:
    """``repro cache``: maintenance verbs over a store directory."""
    import json

    from repro.core.abcd import ABCDConfig
    from repro.store import CertStore

    store = CertStore(args.cache_dir)
    if args.cache_command == "stats":
        payload = store.stats_payload()
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for name, value in payload.items():
                print(f"{name}: {value}")
        return 0
    if args.cache_command == "verify":
        # Replays every entry's every certificate under the default
        # configuration (the one the serve path compiles with) and
        # quarantines anything that fails any rung of the ladder.
        results = store.verify_all(ABCDConfig())
        rejected = [r for r in results if not r.hit]
        if args.json:
            print(json.dumps(
                {
                    "entries": len(results),
                    "rejected": len(rejected),
                    "results": [
                        {
                            "fingerprint": r.fingerprint,
                            "ok": r.hit,
                            "reason": r.reason,
                            "eliminations": r.eliminations,
                        }
                        for r in results
                    ],
                },
                indent=2,
                sort_keys=True,
            ))
        else:
            for result in results:
                verdict = (
                    f"ok ({result.eliminations} certificate(s) replayed)"
                    if result.hit
                    else f"REJECTED: {result.reason}"
                )
                print(f"{result.fingerprint}  {verdict}")
            print(
                f"verified {len(results)} entr{'y' if len(results) == 1 else 'ies'}, "
                f"{len(rejected)} rejected (rejections are quarantined)"
            )
        return 1 if rejected else 0
    if args.cache_command == "gc":
        removed = store.gc(
            max_entries=args.max_entries, max_age_seconds=args.max_age
        )
        print(f"gc: removed {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    if args.cache_command == "evict":
        if store.evict(args.fingerprint):
            print(f"evicted {args.fingerprint}")
            return 0
        print(f"no entry for {args.fingerprint}", file=sys.stderr)
        return 1
    raise AssertionError(f"unknown cache command {args.cache_command!r}")


def cmd_ir(args) -> int:
    program = _compile(args)
    if args.fn:
        print(format_function(program.function(args.fn)))
    else:
        print(format_program(program))
    return 0


def cmd_dot(args) -> int:
    program = _compile(args)
    fn = program.function(args.fn)
    if args.graph == "cfg":
        from repro.ir.dot import cfg_to_dot

        print(cfg_to_dot(fn))
    else:
        from repro.core.constraints import build_graphs

        bundle = build_graphs(fn)
        graph = bundle.upper if args.graph == "upper" else bundle.lower
        print(graph.to_dot())
    return 0


def cmd_bench(args) -> int:
    from repro.bench.corpus import CORPUS
    from repro.bench.harness import format_figure6, run_benchmark

    names = set(args.names) if args.names else None
    selected = [
        program_def
        for program_def in CORPUS
        if names is None or program_def.name in names
    ]
    config = ABCDConfig(certify=args.certify)
    results = []
    interrupted = False
    with _sigterm_as_interrupt():
        try:
            for program_def in selected:
                print(f"measuring {program_def.name}...", file=sys.stderr)
                results.append(
                    run_benchmark(program_def, config=config, pre=not args.no_pre)
                )
        except KeyboardInterrupt:
            # Keep what was measured: a 20-minute sweep killed at program
            # 18 of 20 still yields 18 usable rows and a distinct exit
            # code, not a raw traceback.
            interrupted = True
            print(
                f"interrupted after {len(results)}/{len(selected)} "
                "program(s); reporting partial results",
                file=sys.stderr,
            )
    if not results:
        if interrupted:
            return EXIT_INTERRUPTED
        print("no matching corpus programs", file=sys.stderr)
        return 1
    if args.json:
        import json
        payload = [
            {
                "name": result.name,
                "category": result.category,
                "dynamic_upper_removed": result.dynamic_upper_removed_fraction,
                "dynamic_total_removed": result.dynamic_total_removed_fraction,
                "cycle_improvement": result.cycle_improvement,
                "analyzed_checks": result.report.analyzed,
                "eliminated_checks": result.report.eliminated_count(),
                "pass_rollbacks": result.pass_rollbacks,
                "budget_exhausted_checks": result.budget_exhausted_checks,
                "budget_exhausted_kinds": result.report.budget_exhausted_kinds(),
                "certificates": {
                    "emitted": result.report.certificates_emitted,
                    "accepted": result.report.certificates_accepted,
                    "rejected": result.report.certificates_rejected,
                    "revoked": result.report.revoked_count,
                },
                "session_stats": result.session_stats,
            }
            for result in results
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(format_figure6(results))
    if args.certify and any(r.report.certificates_rejected for r in results):
        print("certificate rejections detected", file=sys.stderr)
        return 1
    return EXIT_INTERRUPTED if interrupted else 0


def cmd_fuzz(args) -> int:
    from repro.fuzz.campaign import format_summary, run_campaign
    from repro.fuzz.generator import GeneratorConfig
    from repro.fuzz.oracle import OracleConfig

    oracle_config = OracleConfig(
        inline=not args.no_inline,
        certify=args.certify,
        codegen=args.codegen,
        fuel=args.fuel,
        deadline=args.deadline_per_program,
    )
    generator_config = GeneratorConfig(
        profile=args.profile, chain_depth=args.chain_depth
    )

    def progress(seed: int, classification: str) -> None:
        if args.quiet:
            return
        if classification not in ("match", "fuel-limit"):
            print(f"  seed {seed}: {classification}", file=sys.stderr)

    with _sigterm_as_interrupt():
        result = run_campaign(
            seeds=args.seeds,
            seed_base=args.seed_base,
            shrink=args.shrink,
            oracle_config=oracle_config,
            generator_config=generator_config,
            corpus_dir=args.corpus_dir,
            report_path=args.report,
            progress=progress,
        )
    if args.json:
        import json

        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(format_summary(result))
        for key, entry in sorted(result.triage.entries.items()):
            if entry.reproducer:
                print(f"\n--- reproducer for {key} ---")
                print(entry.reproducer, end="")
    if result.interrupted:
        return EXIT_INTERRUPTED
    return 1 if result.unexplained else 0


def cmd_serve(args) -> int:
    """Run the crash-isolated compile service until EOF or SIGTERM."""
    import json

    from repro.serve.supervisor import ServeConfig, Supervisor

    config = ServeConfig(
        workers=args.workers,
        deadline=args.deadline,
        mem_mb=args.mem_mb,
        retries=args.retries,
        recycle_after=args.recycle_after,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        fuel=args.fuel,
        cache_dir=args.cache_dir,
        overload_enabled=not args.no_overload,
        queue_capacity=args.queue_capacity,
        retry_after=args.retry_after,
        jitter_seed=args.jitter_seed,
        breaker_jitter=args.breaker_jitter,
    )
    supervisor = Supervisor(config=config)
    if args.socket:
        print(f"serving on unix socket {args.socket}", file=sys.stderr)
        telemetry = supervisor.serve_socket(args.socket)
    else:
        telemetry = supervisor.serve_stdio()
    if args.json:
        telemetry["type"] = "telemetry"
        # One NDJSON line: the telemetry shares stdout with the response
        # frames, so it must stay line-parseable like everything else.
        print(json.dumps(telemetry, sort_keys=True, separators=(",", ":")))
    else:
        counters = telemetry["counters"]
        summary = ", ".join(
            f"{name.split('.', 1)[1]} {value}"
            for name, value in sorted(counters.items())
            if name.startswith("serve.")
        )
        print(f"served: {summary or 'no requests'}", file=sys.stderr)
    return 0


def cmd_storm(args) -> int:
    """Storm the compile service; exit 1 on any lost or wrong request."""
    import json

    from repro.serve import chaos

    def progress(position, response):
        if args.quiet:
            return
        mode = response.get("mode") or response.get("status")
        if mode not in ("optimized", "cached"):
            print(f"  request {position}: {mode}", file=sys.stderr)

    common = dict(
        requests=args.requests,
        seed=args.seed,
        workers=args.workers,
        deadline=args.deadline,
        progress=progress,
    )
    if args.corrupt:
        result = chaos.run_corruption_storm(
            disk_fault_rate=args.disk_fault_rate,
            kill_rate=args.kill_rate,
            cache_dir=args.cache_dir,
            min_warm_hit_rate=args.min_warm_hit_rate,
            **common,
        )
    elif args.burst:
        result = chaos.run_burst_storm(
            burst_multiple=args.burst_multiple,
            fault_rate=args.fault_rate,
            queue_capacity=args.queue_capacity,
            min_p99_improvement=args.min_p99_improvement,
            **common,
        )
    else:
        result = chaos.run_storm(fault_rate=args.fault_rate, **common)
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(chaos.format_report(result))
    return 0 if result.passed else 1


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ABCD bounds-check elimination (PLDI 2000) reproduction",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="compile and execute")
    _add_compile_flags(run_parser)
    run_parser.add_argument("--fn", default="main", help="entry function")
    run_parser.add_argument(
        "--args", nargs="*", type=int, default=[], help="integer arguments"
    )
    run_parser.add_argument(
        "--optimize", action="store_true", help="run ABCD before executing"
    )
    run_parser.add_argument("--pre", action="store_true", help="enable PRE")
    _add_budget_flags(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    opt_parser = commands.add_parser("optimize", help="run ABCD and report")
    _add_compile_flags(opt_parser)
    opt_parser.add_argument("--fn", default="main", help="entry for profiling/compare")
    opt_parser.add_argument("--pre", action="store_true", help="enable PRE")
    opt_parser.add_argument(
        "--gvn", choices=["off", "consult", "augment"], default="consult"
    )
    opt_parser.add_argument("--upper-only", action="store_true")
    opt_parser.add_argument("--lower-only", action="store_true")
    opt_parser.add_argument("--no-allocation-facts", action="store_true")
    opt_parser.add_argument(
        "--compare", action="store_true", help="run before/after and compare"
    )
    opt_parser.add_argument(
        "--emit-ir", action="store_true", help="print the optimized IR"
    )
    opt_parser.add_argument(
        "--time-passes",
        action="store_true",
        help="print per-pass timing and analysis-cache statistics",
    )
    opt_parser.add_argument(
        "--certify",
        action="store_true",
        help="emit and independently check a proof witness per elimination "
        "(exit 1 on any rejection)",
    )
    opt_parser.add_argument(
        "--json",
        action="store_true",
        help="print the deterministic per-check certificate payload as JSON "
        "instead of the report (not with --cache-dir)",
    )
    opt_parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="persistent certificate store: serve from a verified cached "
        "entry when one exists, else compile certified and store it",
    )
    _add_budget_flags(opt_parser)
    opt_parser.set_defaults(handler=cmd_optimize)

    cache_parser = commands.add_parser(
        "cache",
        help="inspect and maintain a persistent certificate store",
    )
    cache_commands = cache_parser.add_subparsers(
        dest="cache_command", required=True
    )
    cache_stats = cache_commands.add_parser(
        "stats", help="entry counts, bytes, and store counters"
    )
    cache_stats.add_argument("--json", action="store_true")
    cache_verify = cache_commands.add_parser(
        "verify",
        help="replay every entry's every certificate; quarantine and "
        "report failures (exit 1 on any rejection)",
    )
    cache_verify.add_argument("--json", action="store_true")
    cache_gc = cache_commands.add_parser(
        "gc", help="prune entries by age and/or count (oldest first)"
    )
    cache_gc.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="keep at most N entries",
    )
    cache_gc.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="drop entries (and quarantine files) older than this",
    )
    cache_evict = cache_commands.add_parser(
        "evict", help="remove one entry by fingerprint"
    )
    cache_evict.add_argument("fingerprint", help="the entry's store fingerprint")
    for sub in (cache_stats, cache_verify, cache_gc, cache_evict):
        sub.add_argument(
            "--cache-dir", required=True, metavar="DIR",
            help="store root directory",
        )
        sub.set_defaults(handler=cmd_cache)

    ir_parser = commands.add_parser("ir", help="print compiled IR")
    _add_compile_flags(ir_parser)
    ir_parser.add_argument("--fn", default=None, help="only this function")
    ir_parser.set_defaults(handler=cmd_ir)

    dot_parser = commands.add_parser("dot", help="emit Graphviz")
    _add_compile_flags(dot_parser)
    dot_parser.add_argument("--fn", required=True)
    dot_parser.add_argument(
        "--graph", choices=["cfg", "upper", "lower"], default="cfg"
    )
    dot_parser.set_defaults(handler=cmd_dot)

    bench_parser = commands.add_parser("bench", help="Figure-6 table")
    bench_parser.add_argument("--names", nargs="*", help="corpus subset")
    bench_parser.add_argument("--no-pre", action="store_true")
    bench_parser.add_argument(
        "--certify",
        action="store_true",
        help="certify every elimination; exit 1 on any rejection",
    )
    bench_parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable results including per-pass session stats",
    )
    bench_parser.set_defaults(handler=cmd_bench)

    fuzz_parser = commands.add_parser(
        "fuzz", help="differential fuzzing campaign over random programs"
    )
    fuzz_parser.add_argument(
        "--seeds", type=int, default=100, metavar="N",
        help="number of programs to generate and check",
    )
    fuzz_parser.add_argument(
        "--seed-base", type=int, default=0, metavar="K",
        help="first generator seed (same base => byte-identical campaign)",
    )
    fuzz_parser.add_argument(
        "--shrink", action="store_true",
        help="delta-debug each new finding down to a minimal reproducer",
    )
    fuzz_parser.add_argument(
        "--certify", action="store_true",
        help="run the certificate checker on the optimized side",
    )
    fuzz_parser.add_argument(
        "--codegen", action="store_true",
        help="also execute generated Python code as a third backend",
    )
    fuzz_parser.add_argument(
        "--no-inline", action="store_true",
        help="skip inlining on the optimized side",
    )
    fuzz_parser.add_argument(
        "--fuel", type=int, default=400_000, metavar="N",
        help="interpreter instruction budget per execution",
    )
    fuzz_parser.add_argument(
        "--deadline-per-program", type=float, default=10.0, metavar="SECONDS",
        help="SIGALRM deadline per program (compile + both runs)",
    )
    fuzz_parser.add_argument(
        "--report", metavar="PATH",
        help="write the deterministic triage JSON report here",
    )
    fuzz_parser.add_argument(
        "--corpus-dir", metavar="DIR",
        help="write minimized reproducers into DIR (e.g. tests/fuzz_corpus)",
    )
    fuzz_parser.add_argument(
        "--json", action="store_true",
        help="emit the deterministic campaign payload as JSON",
    )
    fuzz_parser.add_argument(
        "--profile", choices=("default", "deep-chain"), default="default",
        help="program shape: ABCD-biased random mix, or straight-line "
        "π/copy chains and φ-ladders stressing solver depth",
    )
    fuzz_parser.add_argument(
        "--chain-depth", type=int, default=2000, metavar="N",
        help="value-chain length for --profile deep-chain",
    )
    fuzz_parser.add_argument(
        "--quiet", action="store_true", help="suppress the stderr ticker"
    )
    fuzz_parser.set_defaults(handler=cmd_fuzz)

    serve_parser = commands.add_parser(
        "serve",
        help="crash-isolated compile service (NDJSON over stdin/stdout "
        "or a Unix socket)",
    )
    serve_parser.add_argument(
        "--socket", metavar="PATH",
        help="serve on this Unix socket instead of stdin/stdout",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker subprocess pool size",
    )
    serve_parser.add_argument(
        "--deadline", type=float, default=10.0, metavar="SECONDS",
        help="supervisor-side wall-clock deadline per worker attempt",
    )
    serve_parser.add_argument(
        "--mem-mb", type=int, default=512, metavar="MB",
        help="worker RLIMIT_AS address-space cap (0 = uncapped)",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="optimized attempts per request beyond the first",
    )
    serve_parser.add_argument(
        "--recycle-after", type=int, default=64, metavar="N",
        help="recycle each worker after N requests (0 = never)",
    )
    serve_parser.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive failures that open a fingerprint's breaker",
    )
    serve_parser.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="open-breaker cooldown before a half-open probe",
    )
    serve_parser.add_argument(
        "--fuel", type=int, default=50_000_000, metavar="N",
        help="interpreter instruction budget per execution",
    )
    serve_parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="persistent certificate store: hits are certificate-replayed "
        "by the supervisor and pushed to workers; misses are captured "
        "and stored; open breakers persist here across restarts",
    )
    serve_parser.add_argument(
        "--no-overload", action="store_true",
        help="disable overload control (unbounded queue, no shedding, "
        "degradation ladder pinned at level 0)",
    )
    serve_parser.add_argument(
        "--queue-capacity", type=int, default=64, metavar="N",
        help="admission queue bound; arrivals beyond it are shed with a "
        "retry_after hint",
    )
    serve_parser.add_argument(
        "--retry-after", type=float, default=0.25, metavar="SECONDS",
        help="base backpressure hint on shed responses (scaled by queue "
        "depth and degradation level)",
    )
    serve_parser.add_argument(
        "--jitter-seed", type=int, default=0, metavar="K",
        help="seed of the retry-backoff / breaker-cooldown jitter RNG",
    )
    serve_parser.add_argument(
        "--breaker-jitter", type=float, default=0.1, metavar="R",
        help="breaker cooldown full-jitter fraction (0 disables)",
    )
    serve_parser.add_argument(
        "--json", action="store_true",
        help="emit final telemetry (counters, breakers, workers) as JSON",
    )
    serve_parser.set_defaults(handler=cmd_serve)

    storm_parser = commands.add_parser(
        "storm",
        help="chaos-storm the compile service under injected process "
        "faults; exit 1 on any lost request or wrong answer",
    )
    storm_parser.add_argument(
        "--requests", type=int, default=200, metavar="N",
        help="number of requests in the storm",
    )
    storm_parser.add_argument(
        "--fault-rate", type=float, default=0.1, metavar="R",
        help="fraction of requests carrying an injected fault",
    )
    storm_parser.add_argument(
        "--seed", type=int, default=0, metavar="K",
        help="storm schedule seed (same seed => same storm)",
    )
    storm_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker subprocess pool size",
    )
    storm_parser.add_argument(
        "--deadline", type=float, default=3.0, metavar="SECONDS",
        help="per-attempt deadline (hang faults cost this long)",
    )
    storm_parser.add_argument(
        "--corrupt", action="store_true",
        help="corruption storm: cache-enabled service under at-rest disk "
        "faults, worker SIGKILLs, and a mid-storm supervisor restart, "
        "followed by a warm-restart hit-rate and byte-identity phase",
    )
    storm_parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="(--corrupt) store root; default is a fresh temp directory",
    )
    storm_parser.add_argument(
        "--disk-fault-rate", type=float, default=0.1, metavar="R",
        help="(--corrupt) per-request probability of corrupting a random "
        "committed entry at rest",
    )
    storm_parser.add_argument(
        "--kill-rate", type=float, default=0.05, metavar="R",
        help="(--corrupt) per-request probability of SIGKILLing a worker",
    )
    storm_parser.add_argument(
        "--min-warm-hit-rate", type=float, default=0.5, metavar="R",
        help="(--corrupt) warm-phase hit-rate floor for a passing storm",
    )
    storm_parser.add_argument(
        "--burst", action="store_true",
        help="burst storm: open-loop seeded arrivals at --burst-multiple "
        "times measured capacity, driven through admission control and "
        "the degradation ladder, then compared against an "
        "unbounded-queue baseline under the same schedule",
    )
    storm_parser.add_argument(
        "--burst-multiple", type=float, default=4.0, metavar="X",
        help="(--burst) arrival rate as a multiple of measured capacity",
    )
    storm_parser.add_argument(
        "--queue-capacity", type=int, default=32, metavar="N",
        help="(--burst) admission queue bound of the overload leg",
    )
    storm_parser.add_argument(
        "--min-p99-improvement", type=float, default=5.0, metavar="X",
        help="(--burst) required p99 latency ratio (baseline / overload) "
        "for a passing storm",
    )
    storm_parser.add_argument(
        "--json", action="store_true",
        help="emit the storm verdict as JSON",
    )
    storm_parser.add_argument(
        "--quiet", action="store_true", help="suppress the stderr ticker"
    )
    storm_parser.set_defaults(handler=cmd_storm)

    return parser


def _format_diagnostic(args, exc: ReproError) -> str:
    """One-line ``file:line:col: message`` diagnostic for user errors.

    :class:`CompileError` already embeds ``line:col:`` in its message, so
    prefixing the source path yields the canonical compiler format; other
    :class:`ReproError` subclasses (runtime traps, guard escalations) have
    no source location and keep the plain ``error:`` prefix.
    """
    source_file = getattr(args, "file", None)
    if isinstance(exc, CompileError) and exc.location is not None and source_file:
        return f"{source_file}:{exc}"
    return f"error: {exc}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(_format_diagnostic(args, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
