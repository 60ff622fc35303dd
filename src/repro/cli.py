"""Command-line interface: compile, run, batch, inspect, and reproduce.

Installed as the ``lslp`` console script::

    lslp compile kernel.c --config lslp          # print vectorized IR
    lslp compile kernel.c --config slp --report  # per-tree decisions
    lslp run kernel.c --arg i=8 --dump A         # interpret + dump array
    lslp batch catalog --configs slp,lslp --jobs 4 --cache disk
                                                 # batch-compile w/ cache
    lslp kernels                                 # list the Table 2 set
    lslp figures fig9 fig10                      # regenerate figures
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

from . import obs
from .costmodel.targets import target_by_name
from .experiments.figures import ALL_FIGURES
from .frontend.lower import compile_kernel_source
from .interp.interpreter import Interpreter
from .interp.memory import MemoryImage
from .ir.printer import print_function, print_module
from .kernels.catalog import ALL_KERNELS
from .obs.tracing import span
from .opt.ifconvert import IFCONVERT_MODES
from .opt.pipelines import compile_module
from .robustness.budget import Budget
from .robustness.diagnostics import CompilerError, DiagnosticEngine, Remark
from .robustness.guard import DifferentialOracle, GuardPolicy
from .slp.vectorizer import PLAN_SELECT_MODES, VectorizerConfig

CONFIG_FACTORIES = {
    "o3": VectorizerConfig.o3,
    "slp-nr": VectorizerConfig.slp_nr,
    "slp": VectorizerConfig.slp,
    "lslp": VectorizerConfig.lslp,
}

#: friendly aliases accepted by ``lslp batch --configs``
CONFIG_ALIASES = {"scalar": "o3", "slpnr": "slp-nr"}

#: LSLP defaults applied when the flags are not given explicitly
DEFAULT_LOOK_AHEAD = 8


def _configure(name: str, args) -> VectorizerConfig:
    """The configuration ``name`` with the command's vectorizer, budget
    and selection knobs applied; the LSLP knobs only reach ``lslp``."""
    if name == "lslp":
        depth = (args.look_ahead if args.look_ahead is not None
                 else DEFAULT_LOOK_AHEAD)
        config = VectorizerConfig.lslp(
            look_ahead_depth=depth,
            multi_node_max_size=args.multi_node,
        )
    else:
        config = CONFIG_FACTORIES[name]()
    return replace(
        config,
        budget=_budget_from_args(args),
        plan_select=args.plan_select,
        reg_pressure_weight=args.reg_pressure_weight,
        ifconvert=args.ifconvert,
        loop_vectorize=args.loop_vectorize,
        unroll_max_trip=args.unroll_max_trip,
    )


def _config_from_args(args, warnings: Optional[list[Remark]] = None
                      ) -> VectorizerConfig:
    config = _configure(args.config, args)
    ignored = [
        flag for flag, value in (
            ("--look-ahead", args.look_ahead),
            ("--multi-node", args.multi_node),
        ) if value is not None and args.config != "lslp"
    ]
    if ignored:
        remark = DiagnosticEngine(pass_name="driver").warning(
            "config",
            f"{'/'.join(ignored)} ignored: config "
            f"{config.name!r} does not take LSLP knobs",
            phase="config",
            remediation="drop the flag(s) or use --config lslp",
        )
        if warnings is not None:
            warnings.append(remark)
        print(remark.render(), file=sys.stderr)
    return config


def _budget_from_args(args) -> Optional[Budget]:
    caps = {
        "max_lookahead_evals": args.max_lookahead_evals,
        "max_reorder_assignments": args.max_reorder_assignments,
        "max_seconds": args.max_compile_seconds,
        "max_module_lookahead_evals": args.max_module_lookahead_evals,
        "max_module_seconds": args.max_module_seconds,
        "max_select_subsets": args.max_select_subsets,
    }
    if all(cap is None for cap in caps.values()):
        return None
    return Budget(**caps)


def _guard_from_args(args) -> Optional[GuardPolicy]:
    if args.no_guard:
        return None
    return GuardPolicy(mode="strict" if args.strict else "guarded")


def _print_remarks(remarks, enabled: bool) -> None:
    if not enabled:
        return
    for remark in remarks:
        print(f"; {remark.render()}")


def _print_outcome(result, config_remarks, remarks: bool) -> None:
    """One function's remarks (after the config's) and, on stderr, the
    passes its guard rolled back."""
    _print_remarks(config_remarks + result.remarks, remarks)
    if result.rolled_back:
        print(f"; @{result.function.name}: rolled back pass(es): "
              f"{', '.join(result.rolled_back)}", file=sys.stderr)


class _ObsSession:
    """Enables the observability pillars a command asked for and writes
    their artifacts when the command finishes.

    The session is the command's one record sink.  It routes each
    record type to exactly one artifact — ``plan.dump`` records to
    ``--plan-dump``, ``slp.graph`` records to ``--dump-slp-graph``,
    every other type to ``--remarks-out`` — and takes only the types
    whose artifact was asked for.  With none of ``--trace-out``/
    ``--remarks-out``/``--stats``/``--dump-slp-graph``/``--plan-dump``
    given, constructing and finishing a session is a no-op: every
    pillar stays disabled and the compile runs exactly the unobserved
    path.
    """

    def __init__(self, args):
        self.trace_out = args.trace_out
        self.stats_mode = args.stats
        self.graph_out = args.dump_slp_graph
        self.plan_out = args.plan_dump
        self.tracer = None
        self.remarks = None
        self.graphs = obs.ListSink() if self.graph_out else None
        self.plans = obs.ListSink() if self.plan_out else None
        if self.trace_out:
            self.tracer = obs.tracing.install()
        if args.remarks_out:
            try:
                stream = open(args.remarks_out, "w")
            except OSError as error:
                raise SystemExit(
                    f"error: cannot write {args.remarks_out}: {error}"
                )
            self.remarks = obs.JsonlSink(stream)
        if (self.remarks is not None or self.graphs is not None
                or self.plans is not None):
            obs.records.set_sink(self)
        if self.stats_mode:
            obs.metrics.set_publishing(True)

    # ---- the record sink ----------------------------------------------

    def _route(self, type_: str):
        if type_ == "plan.dump":
            return self.plans
        if type_ == "slp.graph":
            return self.graphs
        return self.remarks

    def wants(self, type_: str) -> bool:
        return self._route(type_) is not None

    def emit(self, record: dict) -> None:
        self._route(record["type"]).emit(record)

    # ------------------------------------------------------------------

    def finish(self, profile=None) -> None:
        """Write every requested artifact and disable the pillars.

        ``profile`` (an :class:`repro.obs.InterpProfile`) is rendered to
        stdout before the stats block so that with ``--stats=json`` the
        canonical stats JSON is the **last** stdout line.
        """
        if self.tracer is not None:
            obs.tracing.uninstall()
            _write_artifact(self.trace_out, self.tracer.to_chrome())
        if obs.records.active_sink() is self:
            obs.records.set_sink(None)
        if self.remarks is not None:
            self.remarks.close()
        if self.graphs is not None:
            graphs = self.graphs.records
            if not graphs:
                print("; --dump-slp-graph: no SLP graphs were built",
                      file=sys.stderr)
            # each graph is named by its kind and stream position
            dot = "\n".join(
                record["dot"].replace(
                    "digraph",
                    f'digraph "{record["function"] or "kernel"}/'
                    f'{record["kind"]}{index}"', 1,
                )
                for index, record in enumerate(graphs)
            )
            _write_artifact(self.graph_out, dot + ("\n" if dot else ""))
        if self.plans is not None:
            plans = self.plans.records
            if not plans:
                print("; --plan-dump: no candidate plans were built",
                      file=sys.stderr)
            # a plan-dump line is its record without the stream keys
            lines = [
                json.dumps({key: value for key, value in record.items()
                            if key not in ("type", "pass")},
                           sort_keys=True, separators=(",", ":"))
                for record in plans
            ]
            _write_artifact(self.plan_out,
                            "\n".join(lines) + ("\n" if lines else ""))
        if profile is not None:
            print(profile.render())
        if self.stats_mode:
            registry = obs.metrics.registry()
            if self.stats_mode == "json":
                print(registry.to_json())
            else:
                print(registry.render())
            obs.metrics.set_publishing(False)
            obs.metrics.reset()


def _write_artifact(path: str, text: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as error:
        raise SystemExit(f"error: cannot write {path}: {error}")


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """The observability flags shared by compile/run/batch."""
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a Chrome trace_event JSON span trace (load it in "
             "Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--remarks-out", metavar="FILE.jsonl", default=None,
        help="stream every optimization decision and remark as JSONL",
    )
    parser.add_argument(
        "--dump-slp-graph", metavar="FILE.dot", default=None,
        help="write every built SLP graph as Graphviz DOT",
    )
    parser.add_argument(
        "--plan-dump", metavar="FILE.jsonl", default=None,
        help="write every enumerated candidate plan (with its "
             "selection outcome) as canonical JSONL; a batch writes "
             "them in job-submission order, and cache hits contribute "
             "none — use --cache off for a full dump",
    )
    parser.add_argument(
        "--stats", nargs="?", const="text", default=None,
        choices=("text", "json"),
        help="print the metrics registry when the command finishes "
             "(=json: one canonical-JSON line, printed last); compile "
             "also prints per-function graph-builder statistics",
    )


def _add_vectorizer_options(parser: argparse.ArgumentParser) -> None:
    """The vectorizer, guard and budget knobs shared by compile/run/
    batch; a batch applies them to every job."""
    parser.add_argument(
        "--target", default="skylake-like",
        help="cost-model target (default: skylake-like)",
    )
    parser.add_argument(
        "--look-ahead", type=int, default=None,
        help=f"LSLP look-ahead depth (default: {DEFAULT_LOOK_AHEAD})",
    )
    parser.add_argument(
        "--multi-node", type=int, default=None,
        help="LSLP multi-node size limit (default: unbounded)",
    )
    parser.add_argument(
        "--plan-select", choices=PLAN_SELECT_MODES, default="legacy",
        help="candidate-plan selection policy: 'legacy' reproduces the "
             "greedy first-fit driver byte-for-byte; 'module-greedy' "
             "and 'module-exhaustive' pool every block of every "
             "function, weigh overlapping plans by projected savings "
             "and spend one shared selection budget where the "
             "projected savings are largest (default: %(default)s)",
    )
    parser.add_argument(
        "--reg-pressure-weight", type=int, default=0, metavar="W",
        help="selection-time penalty per live vector register beyond "
             "the target's register file (default: 0 = pressure-blind)",
    )
    parser.add_argument(
        "--ifconvert", choices=IFCONVERT_MODES, default="off",
        help="flatten if/else hammocks and diamonds into selects before "
             "SLP: 'on' converts whenever legal, 'cost' only when the "
             "speculated work does not exceed the branch-removal "
             "savings (default: off)",
    )
    parser.add_argument(
        "--loop-vectorize", action="store_true",
        help="unroll-and-SLP: partially unroll loops that full "
             "unrolling refuses (symbolic bounds, trips beyond the cap) "
             "by a target-derived factor with a scalar epilogue, so SLP "
             "packs across iterations (default: off)",
    )
    parser.add_argument(
        "--unroll-max-trip", type=int, default=None, metavar="N",
        help="full-unroll trip-count cap (default: 256)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail fast on any pass failure instead of rolling back",
    )
    parser.add_argument(
        "--no-guard", action="store_true",
        help="disable per-pass snapshot/rollback (legacy behaviour)",
    )
    parser.add_argument(
        "--remarks", action="store_true",
        help="print structured diagnostics (rollbacks, budgets, config)",
    )
    parser.add_argument(
        "--max-lookahead-evals", type=int, default=None, metavar="N",
        help="budget: total look-ahead score evaluations per function",
    )
    parser.add_argument(
        "--max-reorder-assignments", type=int, default=None, metavar="N",
        help="budget: exhaustive-reorder assignments per multi-node",
    )
    parser.add_argument(
        "--max-compile-seconds", type=float, default=None, metavar="S",
        help="budget: wall-clock seconds of SLP work per function",
    )
    parser.add_argument(
        "--max-module-lookahead-evals", type=int, default=None,
        metavar="N",
        help="budget: look-ahead evals across the whole module "
             "(shared by all its functions)",
    )
    parser.add_argument(
        "--max-module-seconds", type=float, default=None, metavar="S",
        help="budget: wall-clock seconds of SLP work across the whole "
             "module",
    )
    parser.add_argument(
        "--max-select-subsets", type=int, default=None, metavar="N",
        help="budget: candidates/subsets the plan selector may "
             "consider, one shared pool across the whole module",
    )


def _add_compile_options(parser: argparse.ArgumentParser) -> None:
    """compile/run: one mini-C source under one configuration."""
    parser.add_argument("source", help="kernel source file (mini-C)")
    parser.add_argument(
        "--config", choices=sorted(CONFIG_FACTORIES), default="lslp",
        help="vectorizer configuration (default: lslp)",
    )
    _add_vectorizer_options(parser)
    _add_obs_options(parser)


def _load_module(path: str):
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    return compile_kernel_source(source, path)


def cmd_compile(args) -> int:
    session = _ObsSession(args)
    module = _load_module(args.source)
    config_remarks: list[Remark] = []
    config = _config_from_args(args, config_remarks)
    target = target_by_name(args.target)
    guard = _guard_from_args(args)
    if args.print_before:
        print("; --- before ---")
        print(print_module(module))
    results = compile_module(module, config, target, guard=guard,
                             verify_each=args.verify_each)
    for result in results:
        func = result.function
        _print_outcome(result, config_remarks, args.remarks)
        config_remarks = []
        if args.stats:
            stats = result.report.stats
            print(f"; @{func.name} stats: {stats.nodes} nodes, "
                  f"{stats.multi_nodes} multi-nodes, "
                  f"{stats.gathers} gathers, {stats.reorders} reorders, "
                  f"{stats.lookahead_evals} look-ahead evals")
        if args.report:
            print(f"; @{func.name}: static cost {result.static_cost}, "
                  f"{result.report.num_vectorized} tree(s) vectorized")
            for tree in result.report.trees:
                status = "vectorized" if tree.vectorized else "rejected"
                print(f";   {tree.kind} tree (VL={tree.vector_length}) "
                      f"cost {tree.cost}: {status}")
    print(f"; --- after {config.name} ---")
    print(print_module(module))
    session.finish()
    return 0


def _parse_runtime_args(pairs) -> dict[str, object]:
    runtime_args: dict[str, object] = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise SystemExit(f"error: malformed --arg {pair!r}; use name=N")
        try:
            runtime_args[name] = float(value) if "." in value else int(value)
        except ValueError:
            raise SystemExit(
                f"error: malformed --arg {pair!r}; "
                f"{value!r} is not a number"
            )
    return runtime_args


def cmd_run(args) -> int:
    session = _ObsSession(args)
    module = _load_module(args.source)
    config_remarks: list[Remark] = []
    config = _config_from_args(args, config_remarks)
    target = target_by_name(args.target)
    func = module.get_function(args.entry)
    runtime_args = _parse_runtime_args(args.arg)
    missing = [
        argument.name for argument in func.arguments
        if argument.name not in runtime_args
    ]
    if missing:
        raise SystemExit(
            f"error: @{args.entry} requires argument(s) "
            f"{', '.join(missing)}; pass --arg NAME=VALUE"
        )

    guard = _guard_from_args(args)
    oracle = None
    verify_runs = max(1, args.verify_runs)
    if args.verify:
        if guard is None:
            raise SystemExit("error: --verify requires the guard "
                             "(drop --no-guard)")
        oracle = DifferentialOracle.sweeping(
            module, func, args=runtime_args, runs=verify_runs,
            base_seed=args.seed, target=target,
        )
    results = compile_module(
        module, config, target, guard=guard,
        oracles=lambda f: oracle if f is func else None,
    )
    for result in results:
        _print_outcome(result, config_remarks, args.remarks)
        config_remarks = []
    result = next(r for r in results if r.function is func)
    if args.verify:
        if "oracle" in result.rolled_back:
            detail = next(
                (r.message for r in result.remarks
                 if r.category == "miscompile"), "",
            )
            print(f"verify: MISMATCH in @{func.name}; "
                  f"rolled back to the scalar baseline"
                  + (f" [{detail}]" if detail else ""))
        else:
            print(f"verify: @{func.name} scalar and {config.name} "
                  f"outputs match ({verify_runs} run(s), "
                  f"seeds {args.seed}..{args.seed + verify_runs - 1})")

    if args.verify and args.backend != "interp":
        # The oracle above proved scalar == vectorized on the
        # interpreter; this sweep proves the compiled tier reproduces
        # the interpreter *exactly* (values, memory, cycle accounting),
        # taking the oracle's final-IR runs as the interpreter side.
        from .backend.validate import cross_check

        check = cross_check(
            module, func, target, base_args=runtime_args,
            runs=verify_runs, base_seed=args.seed,
            backend=args.backend,
            verified=oracle.runs_for(func, target),
        )
        print(f"backend-verify: {check.render()}")
        if not check.ok:
            return 1

    memory = MemoryImage(module)
    memory.randomize(seed=args.seed)
    trace: list[str] = []

    def record(inst, value):
        from .ir.printer import print_instruction

        shown = "" if value is None else f"  ; -> {value}"
        trace.append(f"  {print_instruction(inst)}{shown}")

    profile = obs.InterpProfile() if args.profile_interp else None
    tier_note = ""
    if args.backend == "interp":
        interpreter = Interpreter(memory, target)
        with span("interp.run", function=args.entry,
                  config=config.name):
            result = interpreter.run(
                func, runtime_args,
                on_retire=record if args.trace else None,
                profile=profile,
            )
    else:
        from .backend import TieredExecutor, UnsupportedConstruct

        executor = TieredExecutor(module, memory, target,
                                  backend=args.backend)
        try:
            tier_run = executor.run(
                args.entry, runtime_args,
                on_retire=record if args.trace else None,
                profile=profile,
            )
        except UnsupportedConstruct as exc:
            raise SystemExit(
                f"error: --backend=compiled cannot serve "
                f"@{args.entry}: {exc.construct}: {exc.detail} "
                f"(use --backend=auto for interpreter fallback)"
            )
        result = tier_run.result
        tier_note = tier_run.tier
        if tier_run.fallback:
            tier_note += (f" (fell back: "
                          f"{tier_run.fallback_construct})")
    # Published here (not inside the interpreter) so oracle replays do
    # not pollute the count: ``interp.cycles`` is exactly the cycle
    # figure the line below reports.
    obs.metrics.add("interp.cycles", result.cycles)
    obs.metrics.add("interp.instructions", result.instructions_retired)
    if args.trace:
        limit = args.trace_limit
        for line in trace[:limit]:
            print(line)
        if len(trace) > limit:
            print(f"  ... ({len(trace) - limit} more)")
    print(f"@{args.entry}({runtime_args}) under {config.name}: "
          f"{result.cycles} cycles, "
          f"{result.instructions_retired} instructions")
    if tier_note:
        print(f"backend: requested {args.backend}, served by "
              f"{tier_note}")
    if result.return_value is not None:
        print(f"returned: {result.return_value}")
    for name in args.dump or []:
        values = memory.get_array(name)
        preview = ", ".join(str(v) for v in values[:args.dump_count])
        print(f"@{name}[0:{args.dump_count}] = [{preview}]")
    session.finish(profile=profile)
    return 0


def _batch_configs(spec: str, args) -> list:
    """Parse ``--configs a,b,c`` into VectorizerConfig instances."""
    configs = []
    for raw in spec.split(","):
        name = raw.strip().lower()
        name = CONFIG_ALIASES.get(name, name)
        if name not in CONFIG_FACTORIES:
            raise SystemExit(
                f"error: unknown config {raw.strip()!r}; known: "
                f"{', '.join(sorted(CONFIG_FACTORIES))} "
                f"(aliases: {', '.join(sorted(CONFIG_ALIASES))})"
            )
        configs.append(_configure(name, args))
    if not configs:
        raise SystemExit("error: --configs selected nothing")
    return configs


def _batch_jobs(args, configs) -> list:
    """Resolve the batch source — the kernel catalog, a synthetic
    suite, or a directory of mini-C files — into compile jobs."""
    import os

    from .kernels.suites import SUITE_SPECS, build_suite
    from .service import job_for_kernel, job_for_module, job_for_source

    target = target_by_name(args.target)
    common = {
        "guard": ("strict" if args.strict
                  else "off" if args.no_guard else "guarded"),
        "verify_runs": args.verify_runs,
        "verify_seed": args.seed,
        "backend": args.backend,
    }

    jobs = []
    source = args.source
    suite_names = {spec.name for spec in SUITE_SPECS}
    if source == "catalog":
        selected = list(ALL_KERNELS.values())
        if args.kernels:
            names = [name.strip() for name in args.kernels.split(",")]
            unknown = [n for n in names if n not in ALL_KERNELS]
            if unknown:
                raise SystemExit(
                    f"error: unknown kernel(s) {', '.join(unknown)}; "
                    f"see 'lslp kernels' for the catalog"
                )
            selected = [ALL_KERNELS[name] for name in names]
        for kernel in selected:
            for config in configs:
                jobs.append(job_for_kernel(kernel, config, target,
                                           **common))
    elif source in suite_names:
        from .kernels.suites import suite_by_name

        module = build_suite(suite_by_name(source))
        for config in configs:
            jobs.append(job_for_module(source, module, config, target,
                                       args={"i": 8}, **common))
    elif os.path.isdir(source):
        files = sorted(
            f for f in os.listdir(source)
            if f.endswith(".c") or f.endswith(".lslp")
        )
        if not files:
            raise SystemExit(
                f"error: no .c/.lslp kernel sources in {source!r}"
            )
        for filename in files:
            path = os.path.join(source, filename)
            try:
                with open(path) as handle:
                    text = handle.read()
            except OSError as error:
                raise SystemExit(
                    f"error: cannot read {path}: {error}"
                )
            for config in configs:
                jobs.append(job_for_source(filename, text, config,
                                           target, args={"i": 8},
                                           **common))
    else:
        raise SystemExit(
            f"error: batch source {source!r} is not 'catalog', a known "
            f"suite ({', '.join(sorted(suite_names))}), or a directory"
        )
    return jobs


def _batch_report_document(jobs, batch) -> dict:
    """The structured final report ``--report-out`` writes: per-job
    outcome (retries, ladder rung, structured error), batch counters,
    breaker states, and the lost-job count CI asserts is zero."""
    import dataclasses as _dataclasses
    import hashlib as _hashlib

    per_job = []
    for result in batch.results:
        if result.error_info is not None and \
                result.error_info.kind == "refused":
            status = "refused"
        elif not result.ok:
            status = "error"
        elif result.cached:
            status = f"cached[{result.cache_tier}]"
        elif result.degraded:
            status = "degraded"
        else:
            status = "compiled"
        ir_sha = ""
        num_vectorized = 0
        if result.entry is not None:
            ir_sha = _hashlib.sha256(
                result.entry.ir_text.encode("utf-8")
            ).hexdigest()
            num_vectorized = sum(
                1 for tree in result.entry.report.get("trees", [])
                if tree.get("vectorized")
            )
        per_job.append({
            "name": result.job.name,
            "config": result.job.config.name,
            "status": status,
            "cache_tier": result.cache_tier,
            "attempts": result.attempts,
            "rung": result.rung,
            "backend": result.job.backend,
            #: backend the artifact actually carries ("interp" after a
            #: backend shed, even when the job asked for compiled)
            "entry_backend": (result.entry.backend
                              if result.entry is not None else ""),
            "error": (result.error_info.to_dict()
                      if result.error_info is not None else None),
            "ir_sha256": ir_sha,
            "num_vectorized": num_vectorized,
            "static_cost": result.static_cost,
            #: worker wall seconds of the final execution (0 for cache
            #: hits) — what ``lslp report`` ranks slowest jobs by
            "seconds": result.worker_seconds,
        })
    stats = _dataclasses.asdict(batch.stats)
    return {
        "schema": 2,
        "ok": batch.ok,
        "submitted": len(jobs),
        "completed": len(batch.results),
        "lost_jobs": len(jobs) - len(batch.results),
        "jobs": per_job,
        "stats": stats,
        "breaker": batch.breaker_states,
    }


def _write_batch_report(path: str, jobs, batch) -> None:
    document = _batch_report_document(jobs, batch)
    with open(path, "w") as handle:
        json.dump(document, handle, sort_keys=True, indent=1)
        handle.write("\n")


def cmd_batch(args) -> int:
    from .robustness.budget import Budget as _Budget
    from .robustness.faults import ServiceFaultPlan
    from .service import (
        AdmissionPolicy,
        CompilationService,
        CompileCache,
        DiskCache,
        MemoryCache,
        ResiliencePolicy,
        RetryPolicy,
    )
    from .service.resilience import BreakerPolicy

    session = _ObsSession(args)
    configs = _batch_configs(args.configs, args)
    jobs = _batch_jobs(args, configs)

    chaos = None
    if args.chaos:
        try:
            chaos = ServiceFaultPlan.parse(args.chaos, args.chaos_seed)
        except ValueError as error:
            raise SystemExit(f"error: --chaos: {error}")
        jobs = [replace(job, chaos=chaos) for job in jobs]

    telemetry = None
    if args.telemetry_out:
        from .service import TelemetrySession

        telemetry = TelemetrySession(args.telemetry_out)

    cache = None
    if args.cache == "memory":
        cache = CompileCache(memory=MemoryCache(args.cache_size))
    elif args.cache == "disk":
        cache = CompileCache(
            memory=MemoryCache(args.cache_size),
            disk=DiskCache(args.cache_dir, fault_plan=chaos),
        )

    admission = AdmissionPolicy(
        queue_capacity=args.queue_capacity,
        max_total_seconds=args.max_total_seconds,
        job_budget=(_Budget.service_default()
                    if args.service_budget else None),
    )
    resilience = ResiliencePolicy(
        retry=RetryPolicy(max_retries=args.max_retries,
                          backoff_base=args.retry_backoff,
                          seed=args.chaos_seed),
        job_timeout=args.job_timeout,
        breaker=BreakerPolicy(failure_threshold=args.breaker_threshold),
    )
    service = CompilationService(cache=cache, jobs=args.jobs,
                                 admission=admission,
                                 resilience=resilience,
                                 telemetry=telemetry)
    try:
        batch = service.compile_batch(jobs)
    except BaseException:
        # The service is built to never raise; if something still gets
        # out, leave a (partial) report behind rather than nothing.
        if args.report_out:
            from .service.service import BatchResult as _BatchResult
            from .service.metrics import ServiceStats as _ServiceStats
            _write_batch_report(
                args.report_out, jobs,
                _BatchResult([], _ServiceStats(workers=args.jobs)),
            )
        if telemetry is not None:
            telemetry.close(breaker_states=service.breaker.snapshot())
        raise

    if args.report_out:
        _write_batch_report(args.report_out, jobs, batch)
    if telemetry is not None:
        telemetry.close(breaker_states=batch.breaker_states)

    for result in batch.results:
        if args.remarks:
            for remark in result.remarks:
                print(f"; {remark.render()}")
        if args.report:
            status = (f"cached[{result.cache_tier}]" if result.cached
                      else "degraded" if result.degraded
                      else "error" if not result.ok
                      else "compiled")
            report = result.report
            print(f"{result.job.name} [{result.job.config.name}]: "
                  f"{report.num_vectorized} tree(s) vectorized, "
                  f"static cost {result.static_cost} ({status})")
        if not result.ok:
            print(f"error: {result.job.name} "
                  f"[{result.job.config.name}]: {result.error}",
                  file=sys.stderr)

    print(batch.stats.render())
    session.finish()
    if args.min_hit_rate is not None:
        if batch.stats.hit_rate < args.min_hit_rate:
            print(
                f"error: cache hit rate "
                f"{100.0 * batch.stats.hit_rate:.1f}% is below the "
                f"required {100.0 * args.min_hit_rate:.1f}%",
                file=sys.stderr,
            )
            return 1
    return 0 if batch.ok else 1


def cmd_report(args) -> int:
    import os

    from .service import report as _report

    if args.diff:
        try:
            old = _report.load_report(args.diff[0])
            new = _report.load_report(args.diff[1])
        except (OSError, ValueError, json.JSONDecodeError) as error:
            raise SystemExit(f"error: --diff: {error}")
        regressions, notes = _report.diff_reports(old, new)
        sys.stdout.write(_report.render_diff(regressions, notes))
        return 1 if regressions else 0

    if not args.report:
        raise SystemExit(
            "error: pass a batch report file (from `lslp batch "
            "--report-out`) or --diff OLD NEW"
        )
    try:
        document = _report.load_report(args.report)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        raise SystemExit(f"error: {error}")
    metrics = None
    if args.telemetry:
        metrics = _report.load_metrics(
            os.path.join(args.telemetry, "metrics.json")
        )
        if metrics is None:
            print(f"; no readable metrics.json under "
                  f"{args.telemetry}; digest omits merged metrics",
                  file=sys.stderr)
    digest = _report.render_digest(
        document, metrics=metrics, fmt=args.format, top=args.top,
        timings=not args.no_timings,
    )
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(digest)
        except OSError as error:
            raise SystemExit(
                f"error: cannot write {args.out}: {error}"
            )
    else:
        sys.stdout.write(digest)
    return 0


def cmd_kernels(_args) -> int:
    width = max(len(name) for name in ALL_KERNELS)
    for kernel in ALL_KERNELS.values():
        print(f"{kernel.name:{width}}  {kernel.origin}")
    return 0


def cmd_figures(args) -> int:
    names = args.names or sorted(ALL_FIGURES)
    for name in names:
        build = ALL_FIGURES.get(name)
        if build is None:
            raise SystemExit(
                f"error: unknown figure {name!r}; known: "
                f"{', '.join(sorted(ALL_FIGURES))}"
            )
        table = build()
        if args.chart:
            from .experiments.charts import render_bar_chart

            print(render_bar_chart(table))
        else:
            print(table.render())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lslp",
        description="Look-ahead SLP auto-vectorizer (CGO'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile and print IR")
    _add_compile_options(p_compile)
    p_compile.add_argument("--print-before", action="store_true",
                           help="also print the IR before vectorization")
    p_compile.add_argument("--report", action="store_true",
                           help="print per-tree vectorization decisions")
    p_compile.add_argument("--verify-each", action="store_true",
                           help="run the IR verifier after every pass")
    p_compile.set_defaults(handler=cmd_compile)

    p_run = sub.add_parser("run", help="compile then interpret")
    _add_compile_options(p_run)
    p_run.add_argument(
        "--profile-interp", action="store_true",
        help="print per-instruction/per-opcode cycle attribution "
             "(the hot-instruction histogram)",
    )
    p_run.add_argument("--entry", default="kernel",
                       help="function to execute (default: kernel)")
    p_run.add_argument("--arg", action="append", metavar="NAME=VALUE",
                       help="runtime argument (repeatable)")
    p_run.add_argument("--seed", type=int, default=0,
                       help="memory randomization seed")
    p_run.add_argument("--dump", action="append", metavar="ARRAY",
                       help="print an array after execution (repeatable)")
    p_run.add_argument("--dump-count", type=int, default=16,
                       help="elements to print per dumped array")
    p_run.add_argument("--trace", action="store_true",
                       help="print an instruction-level execution trace")
    p_run.add_argument("--trace-limit", type=int, default=200,
                       help="maximum trace lines to print")
    p_run.add_argument("--verify", action="store_true",
                       help="differentially execute the scalar snapshot "
                            "and the vectorized function; on mismatch "
                            "roll back to scalar")
    p_run.add_argument("--verify-runs", type=int, default=1, metavar="N",
                       help="replay the differential oracle over N seeded "
                            "(memory, argument) sets and report which "
                            "seed diverged (default: 1)")
    p_run.add_argument(
        "--backend", choices=["interp", "compiled", "auto"],
        default="interp",
        help="execution tier: the interpreter, generated Python "
             "code, or auto (compiled with interpreter fallback); "
             "--verify additionally cross-checks the compiled tier "
             "against the interpreter exactly (default: interp)",
    )
    p_run.set_defaults(handler=cmd_run)

    p_batch = sub.add_parser(
        "batch",
        help="batch-compile many kernels through the caching service",
    )
    p_batch.add_argument(
        "source",
        help="'catalog' (the Table 2 kernels), a suite name "
             "(e.g. 453.povray), or a directory of .c kernel sources",
    )
    p_batch.add_argument(
        "--configs", default="o3,slp-nr,slp,lslp", metavar="A,B,...",
        help="comma-separated configurations (default: all four; "
             "'scalar' is an alias for o3)",
    )
    p_batch.add_argument(
        "--kernels", default=None, metavar="A,B,...",
        help="restrict a 'catalog' batch to these kernel names "
             "(default: the whole catalog)",
    )
    p_batch.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="parallel compile workers (default: 1)")
    p_batch.add_argument(
        "--backend", choices=["interp", "compiled", "auto"],
        default="interp",
        help="execution backend baked into every job: compiled/auto "
             "store generated repro.backend source in the cache entry, "
             "and --verify-runs sweeps additionally cross-check the "
             "compiled tier against the interpreter (default: interp)",
    )
    p_batch.add_argument(
        "--cache", choices=["off", "memory", "disk"], default="memory",
        help="cache tiers: in-memory LRU, plus on-disk under "
             "--cache-dir (default: memory)",
    )
    p_batch.add_argument("--cache-dir", default=".lslp-cache",
                         help="on-disk cache root (default: .lslp-cache)")
    p_batch.add_argument("--cache-size", type=int, default=256,
                         metavar="N",
                         help="in-memory LRU capacity (default: 256)")
    p_batch.add_argument(
        "--queue-capacity", type=int, default=32, metavar="N",
        help="max jobs in flight before submission blocks (default: 32)",
    )
    p_batch.add_argument(
        "--max-total-seconds", type=float, default=None, metavar="S",
        help="service budget: once exceeded, remaining jobs compile "
             "scalar-only",
    )
    p_batch.add_argument(
        "--service-budget", action="store_true",
        help="install the default per-job budget (function + module "
             "caps) on jobs without one",
    )
    p_batch.add_argument("--report", action="store_true",
                         help="print one summary line per job")
    p_batch.add_argument(
        "--verify-runs", type=int, default=0, metavar="N",
        help="run the differential oracle N times per function with "
             "seeded (memory, argument) sets (default: off)",
    )
    p_batch.add_argument("--seed", type=int, default=0,
                         help="base seed for --verify-runs")
    p_batch.add_argument(
        "--min-hit-rate", type=float, default=None, metavar="F",
        help="exit 1 unless the cache hit rate reaches F (0..1); "
             "used by CI's warm-cache smoke",
    )
    p_batch.add_argument(
        "--job-timeout", type=float, default=None, metavar="S",
        help="per-job wall-clock deadline; an expired job's worker is "
             "killed and the job retries under a shrunken budget, then "
             "degrades (default: no deadline)",
    )
    p_batch.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retry-budget units per job for crashes/timeouts "
             "(default: 2; 0 disables retries)",
    )
    p_batch.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="S",
        help="first-retry backoff in seconds; doubles per attempt with "
             "deterministic jitter (default: 0.05)",
    )
    p_batch.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive full-fidelity failures that trip a config "
             "shard's circuit breaker (default: 3; 0 disables it)",
    )
    p_batch.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject service faults: comma list of "
             "site[:rate[:seconds]] with sites worker-kill, "
             "worker-hang, cache-corrupt, cache-enospc, cache-slow "
             "(e.g. 'worker-kill:0.3,cache-corrupt:0.5')",
    )
    p_batch.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed for --chaos fault decisions and retry jitter; the "
             "same seed replays the same faults (default: 0)",
    )
    p_batch.add_argument(
        "--report-out", default=None, metavar="FILE",
        help="write a structured JSON batch report (per-job outcome, "
             "retries, ladder rung, breaker states, lost-job count)",
    )
    p_batch.add_argument(
        "--telemetry-out", default=None, metavar="DIR",
        help="write the batch telemetry artifact directory: "
             "trace.json (one stitched Chrome trace with per-worker "
             "lanes and per-job async arrows), metrics.prom "
             "(Prometheus text exposition), metrics.json (canonical "
             "JSON), events.jsonl (job timeline + worker records)",
    )
    _add_vectorizer_options(p_batch)
    _add_obs_options(p_batch)
    # the batch service's default; compile/run keep the paper-faithful
    # legacy driver
    p_batch.set_defaults(handler=cmd_batch, plan_select="module-greedy")

    p_report = sub.add_parser(
        "report",
        help="render a batch health digest from a --report-out file, "
             "or diff two reports for regressions",
    )
    p_report.add_argument(
        "report", nargs="?", default=None,
        help="batch report JSON written by `lslp batch --report-out`",
    )
    p_report.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="telemetry directory (from `lslp batch --telemetry-out`) "
             "whose merged metrics.json enriches the digest",
    )
    p_report.add_argument(
        "--format", choices=("text", "markdown"), default="text",
        help="digest rendering (default: text)",
    )
    p_report.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="slowest jobs to list (default: 5)",
    )
    p_report.add_argument(
        "--no-timings", action="store_true",
        help="omit wall-clock-derived lines (latencies, slowest jobs); "
             "two identically seeded runs then produce byte-identical "
             "digests",
    )
    p_report.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the digest to FILE instead of stdout",
    )
    p_report.add_argument(
        "--diff", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="compare two batch reports; exit 1 on regressions (new "
             "errors/refusals, lost jobs, worsened job status, a "
             "breaker left open) — latency drift is informational",
    )
    p_report.set_defaults(handler=cmd_report)

    p_kernels = sub.add_parser("kernels", help="list the kernel catalog")
    p_kernels.set_defaults(handler=cmd_kernels)

    p_figures = sub.add_parser(
        "figures", help="regenerate evaluation tables/figures"
    )
    p_figures.add_argument("--chart", action="store_true",
                           help="render bar charts instead of tables")
    p_figures.add_argument("names", nargs="*",
                           help=f"subset of: {', '.join(sorted(ALL_FIGURES))}")
    p_figures.set_defaults(handler=cmd_figures)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CompilerError as error:
        # --strict turns rollbacks into structured, fatal diagnostics.
        print(f"error: {error}", file=sys.stderr)
        if error.remediation:
            print(f"note: {error.remediation}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
