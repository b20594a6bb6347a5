/**
 * @file
 * perfbench: OneSpec's end-to-end benchmark.
 *
 *   perfbench --workload timing_orgs|ckpt_sampling|service_preempt
 *             --seed N --seconds S --trace 0|1 [--work-dir DIR]
 *   perfbench --calibrate timing_orgs
 *
 * A run sets up kSetupReps times (the median is setup_s), then measures
 * one phase with tracing off and prints the end-to-end metrics.  With
 * --trace 1 it then sets up and measures again with spans on and prints
 * the per-layer metrics instead, including the tracing overhead
 * (traced minus untraced, for each end-to-end metric).  The last stdout
 * line is the JSON result; the line before it holds diagnostic fields.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "parallel/threadpool.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

constexpr int kSetupReps = 5;

/** Every per-layer metric, in report order.  A workload that bypasses a
 *  layer reports it as 0 (BENCHMARK.json lists the same names). */
const std::pair<const char *, const char *> kPerLayer[] = {
    {"isa.load_ms", "ms"},
    {"workload.build_ms", "ms"},
    {"service.start_ms", "ms"},
    {"timing.func_first.model_ns_per_instr", "ns"},
    {"timing.timing_directed.model_ns_per_instr", "ns"},
    {"timing.timing_first.model_ns_per_instr", "ns"},
    {"timing.spec_func_first.model_ns_per_instr", "ns"},
    {"iface.OneDecNo.run_ns_per_instr", "ns"},
    {"iface.StepAllNo.run_ns_per_instr", "ns"},
    {"iface.OneMinNo.run_ns_per_instr", "ns"},
    {"iface.BlockDecYes.run_ns_per_instr", "ns"},
    {"timing.func_first.self_ns_per_instr", "ns"},
    {"timing.timing_directed.self_ns_per_instr", "ns"},
    {"timing.timing_first.self_ns_per_instr", "ns"},
    {"timing.spec_func_first.self_ns_per_instr", "ns"},
    {"timing.func_first.ipc", "instr/cycle"},
    {"timing.timing_directed.ipc", "instr/cycle"},
    {"timing.timing_first.ipc", "instr/cycle"},
    {"timing.spec_func_first.ipc", "instr/cycle"},
    {"timing.func_first.dcache_misses_per_kinstr", "count"},
    {"timing.timing_directed.dcache_misses_per_kinstr", "count"},
    {"timing.func_first.mispredicts_per_kinstr", "count"},
    {"timing.timing_directed.mispredicts_per_kinstr", "count"},
    {"iface.crossings_per_kinstr", "count"},
    {"iface.instrs_per_crossing", "count"},
    {"runtime.undo_calls_per_kinstr", "count"},
    {"runtime.undone_frac", "fraction"},
    {"parallel.pool_busy_frac", "fraction"},
    {"parallel.tail_ms", "ms"},
    {"parallel.sampling.phase1_ms", "ms"},
    {"parallel.sampling.phase2_ms", "ms"},
    {"iface.BlockMinNo.ff_ns_per_instr", "ns"},
    {"ckpt.capture_ms", "ms"},
    {"ckpt.store_ms", "ms"},
    {"ckpt.restore_ms", "ms"},
    {"ckpt.restores_per_window", "count"},
    {"ckpt.store_dedup_frac", "fraction"},
    {"ckpt.store_bytes_per_kinstr", "B"},
    {"timing.sampled.cpi", "cycle/instr"},
    {"service.submit_ms", "ms"},
    {"service.queue_ms", "ms"},
    {"service.active_run_ms", "ms"},
    {"service.slice_overhead_ms", "ms"},
    {"service.preemptions_per_job", "count"},
    {"service.warm_reuse_frac", "fraction"},
    {"ckpt.store_bytes_per_preemption", "B"},
    {"service.generator_late_ms_p90", "ms"},
    {"trace.overhead.setup_s", "s"},
    {"trace.overhead.mips", "MIPS"},
    {"trace.overhead.job_ms_p50", "ms"},
    {"trace.overhead.job_ms_p90", "ms"},
    {"trace.overhead.cpu_ms_per_minstr", "ms"},
    {"trace.overhead.peak_rss_mb", "MB"},
};

/** The end-to-end metrics of one measured phase. */
void
endToEnd(const PhaseResult &r, double setup_s, Report &rep)
{
    double instrs = static_cast<double>(r.instrs);
    rep.metric("setup_s", setup_s, "s");
    rep.metric("mips", instrs * 1e3 / static_cast<double>(r.wallNs), "MIPS");
    rep.metric("job_ms_p50", quantile(r.jobMs, 0.5), "ms");
    rep.metric("job_ms_p90", quantile(r.jobMs, 0.9), "ms");
    rep.metric("cpu_ms_per_minstr", static_cast<double>(r.cpuNs) / instrs,
               "ms");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
}

double
setupMedian(Workload &w)
{
    std::vector<double> s;
    for (int i = 0; i < kSetupReps; ++i)
        s.push_back(w.setup());
    return median(s);
}

/** Median over set-up repetitions of the summed duration of each
 *  set-up step span, in ms. */
void
setupLayers(const std::vector<Span> &spans, Report &rep)
{
    const std::pair<const char *, const char *> steps[] = {
        {"isa.load", "isa.load_ms"},
        {"workload.build", "workload.build_ms"},
        {"service.start", "service.start_ms"}};
    for (auto [span, metric] : steps) {
        std::map<uint64_t, double> perRep;
        for (const Span &s : spans) {
            if (std::strcmp(s.name, "setup") == 0)
                perRep.emplace(s.id, 0.0);
        }
        for (const Span &s : spans) {
            auto it = perRep.find(s.parent);
            if (it != perRep.end() && std::strcmp(s.name, span) == 0)
                it->second += static_cast<double>(s.end - s.start) / 1e6;
        }
        std::vector<double> v;
        for (auto [id, ms] : perRep)
            v.push_back(ms);
        rep.metric(metric, median(v), "ms");
    }
}

/**
 * The simulated-statistics digest must repeat exactly between runs of
 * the same code and deck; the first run of a deck records it under the
 * work directory and later runs compare against it.
 */
bool
digestRepeats(const std::string &dir, const std::string &key,
              const std::string &digest, std::string &recorded)
{
    std::filesystem::create_directories(dir);
    std::string path = dir + "/" + key;
    std::ifstream in(path);
    if (in >> recorded)
        return recorded == digest;
    std::ofstream(path) << digest << "\n";
    recorded = digest;
    return true;
}

std::string
failuresJson(const PhaseResult &r)
{
    std::string s = "[";
    for (size_t i = 0; i < r.failures.size(); ++i)
        s += (i ? ", \"" : "\"") + jsonEscape(r.failures[i]) + "\"";
    return s + "]";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload timing_orgs|ckpt_sampling|"
                 "service_preempt --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n"
                 "       perfbench --calibrate timing_orgs\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.workDir = ".bench_build/perfbench-work";
    std::string workload;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        auto val = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (std::strcmp(argv[i], "--workload") == 0) {
            workload = val();
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            opt.seed = std::strtoull(val(), nullptr, 10);
        } else if (std::strcmp(argv[i], "--seconds") == 0) {
            int secs = std::atoi(val());
            if (secs <= 0 || secs > 3600)
                return usage();
            opt.seconds = static_cast<unsigned>(secs);
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            trace = std::strcmp(val(), "1") == 0;
        } else if (std::strcmp(argv[i], "--work-dir") == 0) {
            opt.workDir = val();
        } else if (std::strcmp(argv[i], "--calibrate") == 0) {
            if (std::strcmp(val(), "timing_orgs") != 0)
                return usage();
            calibrateTimingOrgs();
            return 0;
        } else {
            return usage();
        }
    }
    if (opt.seconds == 0)
        return usage();
    opt.threads = onespec::parallel::hardwareThreads();

    std::unique_ptr<Workload> w;
    if (workload == "timing_orgs")
        w = makeTimingOrgs(opt);
    else if (workload == "ckpt_sampling")
        w = makeCkptSampling(opt);
    else if (workload == "service_preempt")
        w = makeServicePreempt(opt);
    else
        return usage();

    try {
        std::filesystem::create_directories(opt.workDir);
        Report e2e;
        double setupS = setupMedian(*w);
        PhaseResult base = w->run();
        std::vector<int> threadCpus = threadLastCpus();
        endToEnd(base, setupS, e2e);

        Report rep;
        std::string key = workload + "-seed" + std::to_string(opt.seed) +
                          "-s" + std::to_string(opt.seconds) + "-t" +
                          std::to_string(opt.threads);
        std::string recorded;
        bool repeats = digestRepeats(opt.workDir + "/digests", key,
                                     base.digest, recorded);
        uint64_t attempted = base.attempted, failed = base.failed;
        bool correct = base.mismatched == 0 && repeats;
        PhaseResult traced;
        Report e2eTraced;
        if (!trace) {
            rep = e2e;
        } else {
            tracer().setEnabled(true);
            double setupT = setupMedian(*w);
            traced = w->run();
            endToEnd(traced, setupT, e2eTraced);
            w->layerMetrics(traced, rep);
            setupLayers(tracer().spans(), rep);
            for (const auto &[name, vu] : e2e.metrics())
                rep.metric("trace.overhead." + name,
                           e2eTraced.value(name) - vu.first, vu.second);
            Report full;
            for (auto [name, unit] : kPerLayer)
                full.metric(name, rep.has(name) ? rep.value(name) : 0.0,
                            unit);
            rep = full;
            attempted += traced.attempted;
            failed += traced.failed;
            correct = correct && traced.mismatched == 0 &&
                      traced.digest == base.digest;
            tracer().writeChromeTrace(opt.workDir + "/trace-" + key +
                                      ".json");
        }

        Report fields;
        fields.field("workload", "\"" + workload + "\"");
        fields.field("seed", std::to_string(opt.seed));
        fields.field("threads", std::to_string(opt.threads));
        fields.field("digest", "\"" + base.digest + "\"");
        fields.field("digest_recorded", "\"" + recorded + "\"");
        fields.field("job_samples", std::to_string(base.jobMs.size()));
        fields.field("instrs", std::to_string(base.instrs));
        fields.field("wall_s", std::to_string(base.wallNs / 1e9));
        fields.field("steal_ticks", std::to_string(base.stealTicks));
        fields.field("worker_cpus", cpuHistogramJson(base.cpus));
        fields.field("thread_cpus", cpuHistogramJson(threadCpus));
        fields.field("failures", failuresJson(base));
        if (trace) {
            fields.field("traced_failures", failuresJson(traced));
            fields.field("e2e_untraced", e2e.metricsJson());
            fields.field("e2e_traced", e2eTraced.metricsJson());
        }
        w->describe(fields);
        std::printf("simulated-statistics digest %s (recorded %s); "
                    "the timing models are not validated against "
                    "hardware, so no accuracy figure is given\n",
                    base.digest.c_str(), recorded.c_str());
        std::printf("fields %s\n", fields.fieldsJson().c_str());
        std::printf("%s\n",
                    rep.resultJson(correct, attempted, failed).c_str());
        std::fflush(stdout);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
