#include "core/study/experiment.hh"

#include "core/machine/models.hh"
#include "support/statistics.hh"

namespace ilp {

std::string
Study::fingerprint(const Workload &workload,
                   const CompileOptions &options)
{
    return workload.name + "/" +
           std::to_string(static_cast<int>(options.level)) + "/" +
           std::to_string(options.unroll.factor) + "/" +
           std::to_string(options.unroll.careful ? 1 : 0) + "/" +
           std::to_string(static_cast<int>(options.alias)) + "/" +
           std::to_string(options.layout.numTemp) + "/" +
           std::to_string(options.layout.numHome);
}

double
Study::baseCycles(const Workload &workload,
                  const CompileOptions &options)
{
    const std::string key = fingerprint(workload, options);

    // One producer per key: the first caller inserts a future and
    // runs the base machine; concurrent callers block on the result
    // instead of re-running it.
    std::shared_future<double> future;
    std::shared_ptr<std::promise<double>> fill;
    {
        std::lock_guard<std::mutex> lock(base_mu_);
        auto it = base_cycles_.find(key);
        if (it == base_cycles_.end()) {
            fill = std::make_shared<std::promise<double>>();
            future = fill->get_future().share();
            base_cycles_.emplace(key, future);
        } else {
            future = it->second;
        }
    }
    if (fill) {
        try {
            RunOutcome out =
                timedRun(workload, baseMachine(), options);
            if (out.trapped())
                throw TrapException(out.trap);
            fill->set_value(out.cycles);
        } catch (...) {
            // Mirror the caches: evict the failed entry before
            // handing the exception to parked waiters, so a
            // transient fault (injected, memory pressure) is not
            // memoized forever — retried cells recompute.
            {
                std::lock_guard<std::mutex> lock(base_mu_);
                base_cycles_.erase(key);
            }
            fill->set_exception(std::current_exception());
        }
    }
    return sharedGet(future);
}

RunOutcome
Study::timedRun(const Workload &workload, const MachineConfig &machine,
                const CompileOptions &options,
                const RunTelemetryOptions &telemetry)
{
    const bool want = telemetry.collectStats ||
                      telemetry.timelineLimit > 0;
    CompileTelemetry compile;
    std::shared_ptr<const Module> module = cache_.compile(
        workload, machine, options, want ? &compile : nullptr);
    // The trace depends only on the compiled module, so it is keyed
    // by the compile key: machines sharing a compilation share one
    // recording once the key is timed again.
    return trace_cache_.timedRun(
        CompileCache::key(workload, machine, options), *module,
        machine, telemetry, want ? &compile : nullptr);
}

prof::Profile
Study::profiledRun(const Workload &workload,
                   const MachineConfig &machine,
                   const CompileOptions &options)
{
    // Resolve the module first (a cache hit when timedRun follows):
    // the code map must come from the exact module that executes.
    std::shared_ptr<const Module> module =
        cache_.compile(workload, machine, options, nullptr);

    RunTelemetryOptions telemetry;
    telemetry.collectProfile = true;
    RunOutcome out = timedRun(workload, machine, options, telemetry);
    if (out.trapped())
        throw TrapException(out.trap);
    return prof::buildProfile(workload.name, machine,
                              prof::CodeMap::build(*module), out);
}

double
Study::speedup(const Workload &workload, const MachineConfig &machine,
               const CompileOptions &options)
{
    double base = baseCycles(workload, options);
    RunOutcome out = timedRun(workload, machine, options);
    if (out.trapped())
        // Re-raise the trap so sweep cells (mapChecked) record a
        // structured CellError instead of a bogus speedup.
        throw TrapException(out.trap);
    return base / out.cycles;
}

double
Study::speedup(const Workload &workload, const MachineConfig &machine)
{
    return speedup(workload, machine, defaultCompileOptions(workload));
}

double
Study::harmonicSpeedup(const MachineConfig &machine)
{
    const auto &suite = allWorkloads();
    std::vector<double> values = runner_.map<double>(
        suite.size(),
        [&](std::size_t i) { return speedup(suite[i], machine); });
    return harmonicMean(values);
}

double
Study::availableParallelism(const Workload &workload,
                            const CompileOptions &options, int degree)
{
    return speedup(workload, idealSuperscalar(degree), options);
}

} // namespace ilp
