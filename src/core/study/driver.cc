#include "core/study/driver.hh"

#include <bit>
#include <chrono>

#include "sim/exec.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace ilp {

CompileOptions
defaultCompileOptions(const Workload &workload)
{
    CompileOptions o;
    o.level = OptLevel::RegAlloc;
    o.unroll.factor = workload.defaultUnroll;
    o.unroll.careful = false;
    o.alias = AliasLevel::Arrays;
    o.layout.numTemp = 16;
    o.layout.numHome = 26;
    return o;
}

OptimizeOptions
optimizeOptions(const CompileOptions &options)
{
    OptimizeOptions oo;
    oo.level = options.level;
    oo.layout = options.layout;
    oo.alias = options.alias;
    oo.reassociate = options.unroll.careful;
    return oo;
}

Result<Module>
compilePrefixChecked(const std::string &source,
                     const CompileOptions &options,
                     CompileTelemetry *telemetry,
                     const std::string &unit)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    Result<Module> compiled =
        compileToIrChecked(source, options.unroll, unit);
    if (!compiled.ok())
        return compiled;
    Module module = compiled.take();
    const Clock::time_point t1 = Clock::now();
    if (telemetry) {
        PhaseStat &fe = telemetry->phase("frontend");
        fe.wallMs +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        fe.runs += 1;
        for (const auto &func : module.functions()) {
            fe.instrsAfter += func.instrCount();
            fe.blocksAfter += func.blocks.size();
        }
    }
    try {
        allocateModule(module, optimizeOptions(options), telemetry);
    } catch (const DiagException &e) {
        // Register-file limits (a temp register file too small for
        // the workload) surface as diagnostics.
        return Result<Module>::failure(e.diags());
    }
    return Result<Module>::success(std::move(module));
}

Result<Module>
compileWorkloadChecked(const std::string &source,
                       const MachineConfig &machine,
                       const CompileOptions &options,
                       CompileTelemetry *telemetry,
                       const std::string &unit)
{
    Result<Module> r =
        compilePrefixChecked(source, options, telemetry, unit);
    if (r.ok())
        scheduleModule(r.value(), machine, optimizeOptions(options),
                       telemetry);
    return r;
}

Module
compileWorkload(const std::string &source, const MachineConfig &machine,
                const CompileOptions &options,
                CompileTelemetry *telemetry)
{
    Result<Module> r =
        compileWorkloadChecked(source, machine, options, telemetry);
    if (!r.ok())
        SS_FATAL(r.formatErrors());
    return r.take();
}

namespace {

/**
 * Shared tail of the streaming (runOnMachine) and replay (timeTrace)
 * paths: fold the functional results and the timed engine into a
 * RunOutcome.  Keeping this in one place is what guarantees the two
 * paths produce byte-identical outcomes and stats trees.
 *
 * A trapped run's returnValue is documented as meaningless, so the
 * checksum (and fpChecksum, which the caller must not have read) stay
 * at their zero defaults.
 */
/** Replays one packed stream into the engine and the data cache. */
struct TimedWithCache
{
    IssueEngine &engine;
    CacheSink &dcache;

    void
    emitBatch(const PackedInstr *records, std::size_t n)
    {
        engine.emitBatch(records, n);
        dcache.emitBatch(records, n);
    }
};

RunOutcome
assembleOutcome(const RunResult &r, double fpChecksum,
                IssueEngine &engine, CacheSink &dcache,
                const RunTelemetryOptions &telemetry,
                const CompileTelemetry *compile)
{
    RunOutcome out;
    if (!r.trapped()) {
        out.checksum = static_cast<std::int64_t>(r.returnValue);
        out.fpChecksum = fpChecksum;
    }
    out.instructions = r.instructions;
    out.cycles = engine.baseCycles();
    out.trap = r.trap;

    if (telemetry.timelineLimit > 0) {
        out.issueTimeline = engine.timeline();
        out.timelineDropped = engine.timelineDropped();
    }
    if (telemetry.collectProfile) {
        out.pcCounters = engine.profileCounters();
        out.stalls = engine.stallBreakdown();
        out.issueSlotsTotal =
            engine.issuePeriodMinorCycles() *
            static_cast<std::uint64_t>(engine.config().issueWidth);
    }
    if (compile)
        out.compile = *compile;

    if (telemetry.collectStats) {
        stats::Registry registry;
        stats::Group &run = registry.group("run", "headline numbers");
        run.counter("instructions", "dynamic instructions")
            .inc(out.instructions);
        run.scalar("base_cycles", "elapsed base cycles")
            .set(out.cycles);
        run.scalar("ipc", "instructions per base cycle")
            .set(out.ipc());
        run.scalar("checksum", "main()'s return value")
            .set(static_cast<double>(out.checksum));

        engine.exportStats(
            registry.group("issue", "in-order issue engine"));
        dcache.exportStats(
            registry.group("cache", "data-cache model"));
        exportClassMix(
            registry.group("mix", "dynamic instruction mix"),
            r.classCounts);
        if (compile) {
            compile->exportStats(
                registry.group("compile", "compile pipeline"));
        }
        out.stats = registry.snapshot();
    }
    return out;
}

} // namespace

RunOutcome
runOnMachine(const Module &module, const MachineConfig &machine,
             const RunTelemetryOptions &telemetry,
             const CompileTelemetry *compile)
{
    trace::ScopedSpan span("live_run", "execute");
    if (span.armed())
        span.detail(module.sourceName);
    std::unique_ptr<Executor> exec = makeExecutor(module);
    IssueEngine engine(machine);
    if (telemetry.timelineLimit > 0)
        engine.recordTimeline(telemetry.timelineLimit);
    if (telemetry.collectProfile)
        engine.enableProfile(module.pcCount());

    // Fused: the backend stages records for the engine's batch core
    // (and the data cache when stats are on).
    CacheSink dcache(telemetry.cache);
    RunResult r = exec->runTimed(
        "main", engine, telemetry.collectStats ? &dcache : nullptr);

    double fpChecksum = 0.0;
    if (!r.trapped() && module.findGlobal("result_fp")) {
        fpChecksum = std::bit_cast<double>(
            exec->memory().readGlobal(module, "result_fp"));
    }
    return assembleOutcome(r, fpChecksum, engine, dcache, telemetry,
                           compile);
}

TraceArtifact
executeWorkload(const Module &module, std::size_t maxTraceBytes)
{
    trace::ScopedSpan span("execute", "execute");
    if (span.armed())
        span.detail(module.sourceName);
    TraceArtifact art;
    art.pcCount = module.pcCount();
    std::unique_ptr<Executor> exec = makeExecutor(module);
    PackedSink sink(art.trace, maxTraceBytes);
    art.result = exec->runPacked("main", sink);
    if (!art.result.trapped() && module.findGlobal("result_fp")) {
        art.fpChecksumBits =
            exec->memory().readGlobal(module, "result_fp");
        art.hasFpChecksum = true;
    }
    art.replayable = sink.complete() && !art.result.trapped();
    if (!art.replayable)
        art.trace.clear();
    return art;
}

RunOutcome
timeTrace(const TraceArtifact &artifact, const MachineConfig &machine,
          const RunTelemetryOptions &telemetry,
          const CompileTelemetry *compile)
{
    SS_ASSERT(artifact.replayable,
              "timeTrace needs a replayable artifact; trapped or "
              "lossy executions must go through runOnMachine");
    trace::ScopedSpan span("replay", "replay");
    IssueEngine engine(machine);
    if (telemetry.timelineLimit > 0)
        engine.recordTimeline(telemetry.timelineLimit);
    if (telemetry.collectProfile)
        engine.enableProfile(artifact.pcCount);

    CacheSink dcache(telemetry.cache);
    if (telemetry.collectStats) {
        TimedWithCache both{engine, dcache};
        artifact.trace.replay(both);
    } else {
        artifact.trace.replay(engine);
    }

    const double fpChecksum =
        artifact.hasFpChecksum
            ? std::bit_cast<double>(artifact.fpChecksumBits)
            : 0.0;
    return assembleOutcome(artifact.result, fpChecksum, engine, dcache,
                           telemetry, compile);
}

RunOutcome
runWorkload(const Workload &workload, const MachineConfig &machine,
            const CompileOptions &options,
            const RunTelemetryOptions &telemetry)
{
    const bool want = telemetry.collectStats ||
                      telemetry.timelineLimit > 0;
    CompileTelemetry compile;
    Module module = compileWorkload(workload.source, machine, options,
                                    want ? &compile : nullptr);
    return runOnMachine(module, machine, telemetry,
                        want ? &compile : nullptr);
}

ClassFrequencies
profileWorkload(const Workload &workload, const CompileOptions &options)
{
    MachineConfig base = MachineConfig{};
    Module module = compileWorkload(workload.source, base, options);
    std::unique_ptr<Executor> exec = makeExecutor(module);
    ClassProfileSink profile;
    RunResult r = exec->run("main", &profile);
    if (r.trapped())
        SS_FATAL(r.trap.format());
    return profile.frequencies();
}

} // namespace ilp
