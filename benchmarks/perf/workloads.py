"""The benchmark's four workloads; one workload runs per process.

``run.py`` starts this file as a subprocess::

    python benchmarks/perf/workloads.py --workload NAME --seed N \\
        --seconds S --trace 0|1 --t0 MONOTONIC [--setup-only] [--quick]

and reads the JSON object it prints as its last stdout line.  The load
is one client in a closed loop: each op starts when the previous one
returned.  Set-up builds the run's op list from the seed; the run then
makes passes over that list until ``--seconds`` have passed (at least
three passes; the pass in progress at the deadline finishes).  Every op
is timed alone, and its latency is its fastest pass.  Output checks,
input preparation and the traced replay run between ops, outside the
timed region.

The seed picks the order, the memory contents, the generated programs
and the variants, but not how many ops of each kind a run holds, so a
metric's spread across seeds stays close to its run-to-run noise.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUTPUT = HERE / "output"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402
from repro.backend import clear_load_cache, emit_module, load_compiled  # noqa: E402
from repro.costmodel.targets import skylake_like  # noqa: E402
from repro.costmodel.tti import TargetCostModel  # noqa: E402
from repro.frontend import lower_program, parse_program, tokenize  # noqa: E402
from repro.interp import Interpreter, MemoryImage  # noqa: E402
from repro.ir import parse_module, print_module, verify_function  # noqa: E402
from repro.kernels import ALL_KERNELS, build_suite, SuiteSpec  # noqa: E402
from repro.opt import compile_function  # noqa: E402
from repro.opt.dce import run_dce  # noqa: E402
from repro.opt.passmanager import PassManager  # noqa: E402
from repro.opt.pipelines import build_pipeline, scalar_pipeline  # noqa: E402
from repro.robustness.guard import GuardPolicy, PassGuard  # noqa: E402
from repro.service import (  # noqa: E402
    CompilationService,
    CompileCache,
    DiskCache,
    job_for_kernel,
    job_for_module,
)
from repro.slp.vectorizer import (  # noqa: E402
    MODULE_SELECT_MODES,
    ModuleVectorizationDriver,
    VectorizationReport,
    VectorizerConfig,
)

from spans import (  # noqa: E402
    NullTracer,
    summarize,
    to_chrome,
    Tracer,
    tree_problems,
)

#: LSLP with every extension on: if-conversion, unroll-and-SLP and
#: module-scope plan selection
LSLP_FULL = replace(VectorizerConfig.lslp(), name="LSLP-full",
                    ifconvert="on", loop_vectorize=True,
                    plan_select="module-greedy")

#: the configurations the compile workloads cycle through
CONFIGS = (VectorizerConfig.o3(), VectorizerConfig.slp(),
           VectorizerConfig.lslp(), LSLP_FULL)

#: the scalar passes whose time the per-layer metrics report; the
#: "-post-*" re-runs count toward their base pass
OPT_PASSES = ("inline", "constfold", "instcombine", "cse", "dce",
              "unroll", "simplifycfg", "ifconvert")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def instruction_count(func) -> int:
    return sum(len(block.instructions) for block in func.blocks)


def report_counts(report: VectorizationReport) -> Counter:
    return Counter({
        "slp.trees_built": len(report.trees),
        "slp.trees_vectorized": report.num_vectorized,
        "slp.nodes": report.stats.nodes,
        "slp.gathers": report.stats.gathers,
        "slp.lookahead_evals": report.stats.lookahead_evals,
        "static_cost_total": report.total_cost,
    })


def module_insts(module) -> int:
    return sum(instruction_count(f) for f in module.functions.values())


# ---------------------------------------------------------------------------
# Traced pipeline compositions: the public pipeline pieces with a span
# around every pass.  Each mirrors one untraced entry point, and the
# harness checks that both print the same IR.
# ---------------------------------------------------------------------------


def _span_passes(manager: PassManager, tracer, counts: Counter,
                 slp_override=None) -> None:
    """Wrap every pass of ``manager`` in a span; count pass runs, the
    runs that changed the IR, and the IR size entering the SLP pass."""

    def wrap(name, pass_fn):
        if name == "slp" and slp_override is not None:
            pass_fn = slp_override
        span_name = "slp.run_function" if name == "slp" else f"opt.{name}"

        def run(func):
            if name == "slp":
                counts["ir.insts_after_scalar"] += instruction_count(func)
            with tracer.span(span_name):
                changed = pass_fn(func)
            counts["opt.pass_runs"] += 1
            counts["opt.passes_changed"] += bool(changed)
            return changed

        return run

    manager.wrap_passes(wrap)


def traced_compile_function(func, config: VectorizerConfig, tracer,
                            counts: Counter, target=None,
                            guarded: bool = False
                            ) -> tuple[VectorizationReport, list[str]]:
    """``compile_function(func, config, target, guard=...)`` with spans.

    A module plan-select config runs its SLP pass as the module driver's
    three phases, each in its own span, as ``SLPVectorizer`` does for a
    lone function."""
    target = target if target is not None else skylake_like()
    pass_guard = PassGuard(GuardPolicy()) if guarded else None
    manager, vectorize = build_pipeline(config, target, guard=pass_guard)
    phased, reports = None, []
    if config.enabled and config.plan_select in MODULE_SELECT_MODES:
        def phased(f):
            driver = ModuleVectorizationDriver(config, target)
            with tracer.span("slp.plan"):
                driver.plan_function(f)
            with tracer.span("slp.select"):
                driver.select()
            with tracer.span("slp.apply"):
                reports.append(driver.apply_function(f))
            return reports[-1].num_vectorized > 0

    _span_passes(manager, tracer, counts, phased)
    with tracer.span("robustness.guard" if guarded else "opt.pipeline"):
        manager.run_function(func)
        if pass_guard is not None:
            try:
                pass_guard.run_oracle(func)
            finally:
                pass_guard.finish()
    if vectorize is None:
        counts["ir.insts_after_scalar"] += instruction_count(func)
        report = VectorizationReport(func.name, config.name)
    else:
        report = reports[0] if reports else vectorize.report
    return report, list(pass_guard.rolled_back) if pass_guard else []


def traced_compile_module_planned(module, config: VectorizerConfig,
                                  target, tracer, counts: Counter
                                  ) -> tuple[list, list[str]]:
    """``compile_module_planned(module, config, target,
    guard="guarded")`` with spans: guarded scalar passes and planning
    per function, one module-wide selection, then each function's
    guarded apply."""
    driver = ModuleVectorizationDriver(config, target)
    staged = []
    for func in module.functions.values():
        pass_guard = PassGuard(GuardPolicy())
        manager = scalar_pipeline(guard=pass_guard,
                                  ifconvert=config.ifconvert, target=target,
                                  unroll_max_trip=config.unroll_max_trip,
                                  loop_vectorize=config.loop_vectorize)
        _span_passes(manager, tracer, counts)
        with tracer.span("robustness.guard"):
            manager.run_function(func)
        with tracer.span("slp.plan"):
            driver.plan_function(func)
        staged.append((func, pass_guard))
    with tracer.span("slp.select"):
        driver.select()
    reports, rolled_back = [], []

    def apply(f):
        with tracer.span("slp.apply"):
            reports.append(driver.apply_function(f))
        return reports[-1].num_vectorized > 0

    for func, pass_guard in staged:
        manager = PassManager(guard=pass_guard).add("slp", apply)
        manager.add("dce-post", run_dce)
        _span_passes(manager, tracer, counts)
        with tracer.span("robustness.guard"):
            manager.run_function(func)
            try:
                pass_guard.run_oracle(func)
            finally:
                pass_guard.finish()
        rolled_back.extend(pass_guard.rolled_back)
    return reports, rolled_back


# ---------------------------------------------------------------------------
# Workloads.  Set-up builds ``ops``, the run's seeded op list, which
# every pass replays in the same order.  Each workload has:
#   setup(tracer)          everything before the first timed op
#   start_pass(p)          per-pass reset, untimed (optional)
#   prepare(op)            the state one execution starts from, untimed
#   run(state)             the op through the public entry point: the
#                          timed call
#   run_traced(state, tr)  the same op through the traced composition;
#                          returns (raw, counts only the trace can see)
#   digest(op, raw)        (comparable result, pass-0 counts)
#   check(op, raw, res)    an error string, or None
# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, quick: bool, trace: bool):
        self.rng = random.Random(seed)
        self.quick = quick
        self.trace = trace
        self.ops: list = []
        self.setup_counts = Counter()
        self.setup_failures: list[str] = []
        #: tokens and retired instructions behind the traced
        #: frontend.parse and interp.run spans
        self.tokens_parsed = 0
        self.interp_retired = 0

    def start_pass(self, index: int) -> None:
        pass

    def prepare(self, op):
        return op

    def close(self) -> None:
        pass


class CatalogCompile(Workload):
    """``lower_program`` + unguarded ``compile_function`` for every
    (catalog kernel, config) pair; the seed sets the pair order."""

    name = "catalog-compile"

    def setup(self, tracer) -> None:
        kernels = list(ALL_KERNELS.values())[:5 if self.quick else None]
        self.tokens = {kernel.name: len(tokenize(kernel.source))
                       for kernel in kernels}
        self.ops = [(kernel, config) for kernel in kernels
                    for config in CONFIGS]
        self.rng.shuffle(self.ops)

    def run(self, pair):
        kernel, config = pair
        module = lower_program(kernel.source, kernel.name)
        result = compile_function(module.get_function(kernel.entry), config)
        return module, result.report

    def run_traced(self, pair, tracer):
        kernel, config = pair
        counts = Counter()
        with tracer.span("frontend.parse"):
            program = parse_program(kernel.source)
        self.tokens_parsed += self.tokens[kernel.name]
        with tracer.span("frontend.lower"):
            module = lower_program(program, kernel.name)
        report, _ = traced_compile_function(
            module.get_function(kernel.entry), config, tracer, counts)
        return (module, report), counts

    def digest(self, pair, raw):
        module, report = raw
        counts = report_counts(report)
        counts["ir.insts_after_slp"] += module_insts(module)
        return (sha(print_module(module)), report.total_cost), counts

    def check(self, pair, raw, result):
        for func in raw[0].functions.values():
            verify_function(func)
        return None


class SuiteBatch(Workload):
    """One cold guarded ``CompilationService(cache=None).compile_job``
    per op, on the printed IR of a generated whole-program module."""

    name = "suite-batch"

    #: (sensitive, friendly, scalar) function counts; module i of a run
    #: takes entry i % 8, so every run holds the same mix of work while
    #: the seed draws the function bodies and the job order
    COMPOSITIONS = tuple((sensitive, friendly, scalar)
                         for scalar in (1, 2) for friendly in (1, 2)
                         for sensitive in (0, 1))
    MODULES = 25

    def setup(self, tracer) -> None:
        self.service = CompilationService(cache=None, jobs=1)
        for number in range(1 if self.quick else self.MODULES):
            counts = self.COMPOSITIONS[number % len(self.COMPOSITIONS)]
            spec = SuiteSpec(f"suite-{number}", *counts,
                             seed=self.rng.randrange(2 ** 31))
            module = build_suite(spec)
            self.ops.extend(job_for_module(spec.name, module, config)
                            for config in CONFIGS)
        self.rng.shuffle(self.ops)

    def run(self, job):
        return self.service.compile_job(job)

    def run_traced(self, job, tracer):
        """What the service's job runner does for a printed-IR job."""
        counts = Counter()
        with tracer.span("ir.parse"):
            module = parse_module(job.ir)
        target = TargetCostModel(job.target_desc)
        config = job.config
        if config.enabled and config.plan_select in MODULE_SELECT_MODES:
            reports, rolled_back = traced_compile_module_planned(
                module, config, target, tracer, counts)
        else:
            reports, rolled_back = [], []
            for func in module.functions.values():
                report, rolled = traced_compile_function(
                    func, config, tracer, counts, target, guarded=True)
                reports.append(report)
                rolled_back.extend(rolled)
        with tracer.span("ir.print"):
            text = print_module(module)
        merged = VectorizationReport(job.name, config.name)
        for report in reports:
            merged.merge(report)
        raw = SimpleNamespace(ok=True, ir_text=text, report=merged,
                              static_cost=merged.total_cost,
                              rolled_back=rolled_back, module=module)
        return raw, counts

    def digest(self, job, raw):
        counts = report_counts(raw.report) if raw.ok else Counter()
        counts["robustness.rollbacks"] += len(raw.rolled_back)
        if raw.ok:
            counts["ir.insts_after_slp"] += module_insts(raw.module)
        return (sha(raw.ir_text), raw.static_cost,
                len(raw.rolled_back)), counts

    def check(self, job, raw, result):
        if not raw.ok or raw.degraded or raw.rung != "full":
            return f"job not served at the full rung: {raw.error}"
        for func in raw.module.functions.values():
            verify_function(func)
        return None


class _TimedCache(CompileCache):
    """The traced lane's cache: ``get``/``put`` in spans."""

    def __init__(self, tracer, **kwargs):
        super().__init__(**kwargs)
        self.tracer = tracer

    def get(self, key):
        with self.tracer.span("service.cache_get"):
            return super().get(key)

    def put(self, key, entry):
        with self.tracer.span("service.cache_put"):
            super().put(key, entry)


class ServiceCache(Workload):
    """``compile_job(backend="compiled", verify_runs=1)`` against a
    memory + disk ``CompileCache``.

    Set-up compiles 40 jobs into a template disk directory.  Every pass
    restores that directory and starts a fresh service over it, then
    sends 100 jobs in seeded order: 20 new keys, one per catalog kernel
    under a seeded LSLP variant (misses that pay compile, emit and the
    differential oracle), 40 repeats of a job sent earlier in the pass
    (memory hits) and one repeat of each set-up job (disk hits; the
    set-up jobs cover every kernel twice).  Fixed counts keep the hit
    rate at 0.8 and put the median inside the disk hits and the 90th
    percentile inside the misses.  A traced run keeps a second,
    identical cache in its own directory.
    """

    name = "service-cache"

    #: (new, memory, disk) jobs per pass, and in a quick run
    MIX, QUICK_MIX = (20, 40, 40), (5, 10, 10)

    def setup(self, tracer) -> None:
        self.tracer = tracer
        lanes = ("plain", "traced") if self.trace else ("plain",)
        self.base = OUTPUT / "tmp" / f"{self.name}-{os.getpid()}"
        self.dirs = {lane: (self.base / f"{lane}-template", self.base / lane)
                     for lane in lanes}
        self.close()
        self.kernel_queue: list = []
        self.new_jobs = 0
        #: key -> printed-IR sha of the first compile of that key
        self.first_sha: dict = {}
        new, memory, disk = self.QUICK_MIX if self.quick else self.MIX
        template = {lane: CompilationService(
            cache=CompileCache(disk=DiskCache(paths[0])))
            for lane, paths in self.dirs.items()}
        warm = [self._new_job() for _ in range(disk)]
        for key, job in warm:
            for service in template.values():
                result = service.compile_job(job)
                if not result.ok:
                    self.setup_failures.append(f"warm-up: {result.error}")
            self.first_sha[key] = sha(result.ir_text)

        kinds = ["new"] * new + ["memory"] * memory + ["disk"] * disk
        self.rng.shuffle(kinds)
        if kinds[0] == "memory":  # a memory hit needs an earlier job
            swap = kinds.index("disk")
            kinds[0], kinds[swap] = kinds[swap], kinds[0]
        self.rng.shuffle(warm)
        sent: list = []
        for kind in kinds:
            if kind == "new":
                key, job = self._new_job()
            elif kind == "memory":
                key, job = self.rng.choice(sent)
            else:
                key, job = warm.pop()
            sent.append((key, job))
            self.ops.append((kind, key, job))

    def _new_job(self):
        if not self.kernel_queue:
            self.kernel_queue = list(ALL_KERNELS.values())
            self.rng.shuffle(self.kernel_queue)
        kernel = self.kernel_queue.pop()
        depth = self.rng.randrange(9)
        size = self.rng.choice((1, 2, 4, None))
        config = VectorizerConfig.lslp(depth, size,
                                       name=f"LSLP-d{depth}-m{size}")
        # The verify seed makes every new job a new cache key.
        job = job_for_kernel(kernel, config, backend="compiled",
                             verify_runs=1, verify_seed=self.new_jobs)
        self.new_jobs += 1
        return job.cache_key(), job

    def start_pass(self, index: int) -> None:
        self.services = {}
        for lane, (template, live) in self.dirs.items():
            shutil.rmtree(live, ignore_errors=True)
            shutil.copytree(template, live)
            cache = (_TimedCache(self.tracer, disk=DiskCache(live))
                     if lane == "traced"
                     else CompileCache(disk=DiskCache(live)))
            self.services[lane] = CompilationService(cache=cache, jobs=1)

    def close(self) -> None:
        if hasattr(self, "base"):
            shutil.rmtree(self.base, ignore_errors=True)

    def run(self, op):
        return self.services["plain"].compile_job(op[2])

    def run_traced(self, op, tracer):
        with tracer.span("service.job"):
            return self.services["traced"].compile_job(op[2]), Counter()

    def digest(self, op, raw):
        counts = report_counts(raw.report) if raw.ok else Counter()
        counts["service.jobs"] += 1
        if raw.cache_tier:
            counts[f"service.{raw.cache_tier}_hits"] += 1
        source = raw.entry.generated_source if raw.entry else ""
        return (raw.ok, raw.cache_tier, sha(raw.ir_text), raw.static_cost,
                sha(source)), counts

    def check(self, op, raw, result):
        kind, key, _ = op
        if not raw.ok or raw.degraded or raw.rung != "full":
            return f"job not served at the full rung: {raw.error}"
        expected = {"new": "", "memory": "memory", "disk": "disk"}[kind]
        if raw.cache_tier != expected:
            return f"{kind} job served from tier {raw.cache_tier!r}"
        if raw.entry.backend != "compiled" or not raw.entry.generated_source:
            return "compiled tier fell back to the interpreter"
        for func in raw.module.functions.values():
            verify_function(func)
        ir_sha = result[2]
        if self.first_sha.setdefault(key, ir_sha) != ir_sha:
            return "cache served IR that differs from the first compile"
        return None


class ExecKernels(Workload):
    """Run the LSLP-full build of a catalog kernel on the compiled tier
    (bind + run) over a seeded memory image.  Compile, emit and load of
    every build happen in set-up.  Each result must equal the
    interpreter's exactly (cycles, retired count, memory, return value)
    and match the O3 build's interpreted result."""

    name = "exec-kernels"

    #: ops per kernel.  A loop with a runtime bound runs once for each
    #: trip count of N_GRID, 16 values evenly spread over [16, 1024];
    #: every other kernel keeps ``default_args`` (some arrays hold only
    #: 64 elements) and runs over 16 seeded memory images
    N_GRID = tuple(16 + (1008 * step) // 15 for step in range(16))

    def setup(self, tracer) -> None:
        self.tracer = tracer
        self.target = skylake_like()
        self.builds = {}
        kernels = list(ALL_KERNELS.values())[:5 if self.quick else None]
        for kernel in kernels:
            module = lower_program(kernel.source, kernel.name)
            compile_function(module.get_function(kernel.entry), LSLP_FULL)
            reference = lower_program(kernel.source, kernel.name)
            compile_function(reference.get_function(kernel.entry),
                             VectorizerConfig.o3())
            emitted = emit_module(module, self.target)
            self.setup_counts["backend.fallbacks"] += len(emitted.unsupported)
            if emitted.unsupported:
                self.setup_failures.append(
                    f"{kernel.name}: emitter declined "
                    f"{sorted(emitted.unsupported)}")
            self.builds[kernel.name] = {
                "module": module,
                "reference": reference.get_function(kernel.entry),
                "compiled": load_compiled(emitted.source),
            }
        if self.trace:
            self._traced_setup(kernels, tracer)
        for kernel in kernels:
            for n in self.N_GRID[:2 if self.quick else None]:
                args = dict(kernel.default_args)
                if "n" in args:
                    args["n"] = n
                memory = MemoryImage(self.builds[kernel.name]["module"])
                memory.randomize(self.rng.randrange(2 ** 31))
                self.ops.append((kernel, args, memory))
        self.rng.shuffle(self.ops)

    def _traced_setup(self, kernels, tracer) -> None:
        """Rebuild every kernel through the traced composition, which
        must reproduce the untraced build byte for byte."""
        clear_load_cache()
        counts = self.setup_counts
        for kernel in kernels:
            build = self.builds[kernel.name]
            with tracer.trace(f"setup:{kernel.name}", "setup"):
                with tracer.span("frontend.parse"):
                    program = parse_program(kernel.source)
                with tracer.span("frontend.lower"):
                    module = lower_program(program, kernel.name)
                report, _ = traced_compile_function(
                    module.get_function(kernel.entry), LSLP_FULL, tracer,
                    counts)
                with tracer.span("backend.emit"):
                    emitted = emit_module(module, self.target)
                with tracer.span("backend.load"):
                    compiled = load_compiled(emitted.source)
            self.tokens_parsed += len(tokenize(kernel.source))
            counts.update(report_counts(report))
            counts["ir.insts_after_slp"] += module_insts(module)
            if (print_module(module) != print_module(build["module"])
                    or compiled.sha256 != build["compiled"].sha256):
                self.setup_failures.append(
                    f"{kernel.name}: traced build differs")
            build["traced"] = compiled

    def prepare(self, op):
        return op, op[2].clone()

    def run(self, state):
        (kernel, args, _), image = state
        bound = self.builds[kernel.name]["compiled"].bind(kernel.entry, image)
        return bound.run(args), image

    def run_traced(self, state, tracer):
        (kernel, args, _), image = state
        compiled = self.builds[kernel.name]["traced"]
        with tracer.span("backend.bind"):
            bound = compiled.bind(kernel.entry, image)
        with tracer.span("backend.run"):
            result = bound.run(args)
        return (result, image), Counter()

    def digest(self, op, raw):
        result, image = raw
        counts = Counter({"sim_cycles_total": result.cycles})
        return (result.cycles, result.instructions_retired,
                result.return_value, image.arrays()), counts

    def check(self, op, raw, result):
        kernel, args, memory = op
        compiled, image = raw
        build = self.builds[kernel.name]
        func = build["module"].get_function(kernel.entry)
        interp_image = memory.clone()
        interpreter = Interpreter(interp_image, self.target)
        with self.tracer.trace(f"check:{kernel.name}", "check"):
            with self.tracer.span("interp.run"):
                interpreted = interpreter.run(func, args)
        self.interp_retired += interpreted.instructions_retired
        if (compiled.cycles != interpreted.cycles
                or compiled.instructions_retired
                != interpreted.instructions_retired
                or compiled.return_value != interpreted.return_value
                or not image.same_contents(interp_image,
                                           float_tolerance=0.0)):
            return "compiled tier differs from the interpreter"
        reference_image = memory.clone()
        reference = Interpreter(reference_image, self.target).run(
            build["reference"], args)
        if not _same_value(compiled.return_value, reference.return_value):
            return "return value differs from the O3 build"
        if not image.same_contents(reference_image):
            return "memory differs from the O3 build"
        return None


def _same_value(a, b, tolerance: float = 1e-9) -> bool:
    """Exact for ints; floats within ``MemoryImage.same_contents``'s
    relative tolerance (LSLP may reassociate float chains)."""
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))
    return a == b


WORKLOADS = {cls.name: cls for cls in
             (CatalogCompile, SuiteBatch, ServiceCache, ExecKernels)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

#: passes every full run makes, however long they take
MIN_PASSES = 3


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = -(-len(sorted_values) * pct // 100)
    return sorted_values[max(1, int(rank)) - 1]


def run_op(workload, op, tracer, trace_label, reference):
    """One execution of ``op``: the timed call, then — untimed — its
    checks on the first pass or its comparison with the first pass's
    result after that, and when tracing the traced replay, which must
    give the same result.  Returns (seconds, traced seconds, result,
    error or None, counts)."""
    state = workload.prepare(op)
    started = time.perf_counter()
    raw = workload.run(state)
    elapsed = time.perf_counter() - started
    result, counts = workload.digest(op, raw)
    if reference is None:
        error = workload.check(op, raw, result)
    else:
        error = (None if result == reference
                 else "result differs from the first pass")
    traced_elapsed = None
    if trace_label is not None:
        state = workload.prepare(op)
        with tracer.trace(trace_label, "op") as root:
            traced_raw, extra = workload.run_traced(state, tracer)
        traced_elapsed = root.seconds
        traced_result, counts = workload.digest(op, traced_raw)
        counts.update(extra)
        if error is None and traced_result != result:
            error = "traced result differs from the untraced one"
    return elapsed, traced_elapsed, result, error, counts


def measure(workload, seconds: float, trace: bool, t0: float,
            setup_only: bool, min_passes: int) -> dict:
    """Set up, then pass over the op list until ``seconds`` have passed
    and at least ``min_passes`` passes are done.  An op's latency is its
    fastest pass: a shared machine runs in slow phases that last
    seconds, and the fastest of passes spread over the run skips them."""
    tracer = Tracer() if trace else NullTracer()
    workload.setup(tracer)
    setup_s = time.monotonic() - t0
    if setup_only:
        return {"setup_s": setup_s}

    ops = workload.ops
    best = [float("inf")] * len(ops)
    traced_best = [float("inf")] * len(ops)
    reference: list = [None] * len(ops)
    counts = Counter(workload.setup_counts)
    errors = list(workload.setup_failures)
    attempted = failed = len(errors)
    deadline = time.monotonic() + seconds
    passes = 0
    while passes < min_passes or time.monotonic() < deadline:
        gc.collect()
        workload.start_pass(passes)
        for number, op in enumerate(ops):
            attempted += 1
            label = f"p{passes}.{number}" if trace else None
            try:
                elapsed, traced, result, error, op_counts = run_op(
                    workload, op, tracer, label, reference[number])
            except Exception as exc:  # a crashing op is a failed op
                error = f"{type(exc).__name__}: {exc}"
            else:
                best[number] = min(best[number], elapsed)
                if traced is not None:
                    traced_best[number] = min(traced_best[number], traced)
                if passes == 0:
                    reference[number] = result
                    counts.update(op_counts)
            if error is not None:
                failed += 1
                if len(errors) < 10:
                    errors.append(f"pass {passes} op {number}: {error}")
        passes += 1

    latencies = sorted(t for t in best if t != float("inf")) or [0.0]
    metrics = {
        "op_ms_p50": (nearest_rank(latencies, 50) * 1e3, "ms"),
        "op_ms_p90": (nearest_rank(latencies, 90) * 1e3, "ms"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    if trace:
        problems = tree_problems(tracer.spans)
        if problems:
            failed += 1
            errors.append(f"malformed span tree: {problems[0]}")
        overhead = (sum(t for t in traced_best if t != float("inf"))
                    / sum(latencies) - 1) * 100
        metrics = layer_metrics(workload, tracer, counts, overhead)
        OUTPUT.mkdir(exist_ok=True)
        (OUTPUT / f"trace-{workload.name}.json").write_text(
            to_chrome(tracer.spans))
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "setup_s": setup_s,
        "ops": len(ops),
        "passes": passes,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def layer_metrics(workload, tracer, counts: Counter,
                  overhead_pct: float) -> dict:
    """The per-layer metrics of a traced run.

    A ``*_ms``/``*_us`` metric is span time per trace that enters the
    span (an op, a set-up build or a check), over every pass; counts and
    ratios cover set-up and the first pass, so they repeat exactly for a
    seed."""
    table = summarize(tracer.spans)

    def per_trace(names, field="total_ns", scale=1e-6):
        rows = [table[name] for name in names if name in table]
        traces = set().union(*(row["traces"] for row in rows))
        total = sum(row[field] for row in rows)
        return total * scale / len(traces) if traces else 0.0

    def seconds(name):
        return table[name]["total_ns"] / 1e9 if name in table else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "frontend.parse_ms": (per_trace(["frontend.parse"]), "ms"),
        "frontend.lower_ms": (per_trace(["frontend.lower"]), "ms"),
        "frontend.tokens_per_s": (
            ratio(workload.tokens_parsed, seconds("frontend.parse")), "1/s"),
        "ir.parse_ms": (per_trace(["ir.parse"]), "ms"),
        "ir.insts_after_scalar": (counts["ir.insts_after_scalar"], "count"),
        "ir.insts_after_slp": (counts["ir.insts_after_slp"], "count"),
    }
    for pass_name in OPT_PASSES:
        names = [name for name in table
                 if name.split("-post")[0] == f"opt.{pass_name}"]
        metrics[f"opt.{pass_name}_ms"] = (per_trace(names), "ms")
    metrics.update({
        "opt.changed_ratio": (
            ratio(counts["opt.passes_changed"], counts["opt.pass_runs"]),
            "ratio"),
        "slp.run_function_ms": (per_trace(["slp.run_function"]), "ms"),
        "slp.plan_ms": (per_trace(["slp.plan"]), "ms"),
        "slp.select_ms": (per_trace(["slp.select"]), "ms"),
        "slp.apply_ms": (per_trace(["slp.apply"]), "ms"),
        "slp.trees_built": (counts["slp.trees_built"], "count"),
        "slp.trees_vectorized": (counts["slp.trees_vectorized"], "count"),
        "slp.vectorized_ratio": (
            ratio(counts["slp.trees_vectorized"],
                  counts["slp.trees_built"]), "ratio"),
        "slp.nodes": (counts["slp.nodes"], "count"),
        "slp.gathers": (counts["slp.gathers"], "count"),
        "slp.lookahead_evals": (counts["slp.lookahead_evals"], "count"),
        "robustness.guard_ms": (
            per_trace(["robustness.guard"], "self_ns"), "ms"),
        "robustness.rollbacks": (counts["robustness.rollbacks"], "count"),
        "service.cache_get_ms": (per_trace(["service.cache_get"]), "ms"),
        "service.cache_put_ms": (per_trace(["service.cache_put"]), "ms"),
        "service.hit_rate": (
            ratio(counts["service.memory_hits"] + counts["service.disk_hits"],
                  counts["service.jobs"]), "ratio"),
        "service.memory_hits": (counts["service.memory_hits"], "count"),
        "service.disk_hits": (counts["service.disk_hits"], "count"),
        "service.other_ms": (per_trace(["service.job"], "self_ns"), "ms"),
        "backend.emit_ms": (per_trace(["backend.emit"]), "ms"),
        "backend.load_ms": (per_trace(["backend.load"]), "ms"),
        "backend.bind_ms": (per_trace(["backend.bind"]), "ms"),
        "backend.run_us": (per_trace(["backend.run"], scale=1e-3), "us"),
        "backend.fallbacks": (counts["backend.fallbacks"], "count"),
        "interp.run_us": (per_trace(["interp.run"], scale=1e-3), "us"),
        "interp.retired_per_s": (
            ratio(workload.interp_retired, seconds("interp.run")), "1/s"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.unattributed_ms": (per_trace(["op"], "self_ns"), "ms"),
        "static_cost_total": (counts["static_cost_total"], "count"),
        "sim_cycles_total": (counts["sim_cycles_total"], "cycles"),
    })
    return metrics


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started "
                             "this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true",
                        help="a few ops, one pass")
    args = parser.parse_args(argv)
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.quick,
                                        bool(args.trace))
    try:
        result = measure(workload, args.seconds, bool(args.trace), args.t0,
                         args.setup_only, 1 if args.quick else MIN_PASSES)
    finally:
        workload.close()
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
