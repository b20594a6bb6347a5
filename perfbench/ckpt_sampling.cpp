/**
 * @file
 * ckpt_sampling: a user waiting for one CPI estimate.  A closed loop of
 * one job at a time; each job is a runSampledCheckpointParallel() run
 * with 1% detail (1000-instruction windows every 100000) on a fleet one
 * worker per host CPU wide, capturing into a checkpoint store that is
 * emptied before the job, so every job pays the same store writes.
 *
 * Block fast-forward, delta capture, serial store writes and parallel
 * chain restores do most of the work; the timing pipeline runs only
 * inside the 1% windows.  Each job's merged stats dump is checked
 * byte-for-byte against the serial independent-windows reference
 * computed during set-up.
 */

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "ckpt/store.hpp"
#include "iface/registry.hpp"
#include "parallel/ckpt_sampling.hpp"
#include "timing/sampling.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace onespec;
using parallel::CkptSamplingConfig;
using parallel::CkptSamplingResult;
using parallel::SimFleet;

namespace {

constexpr double kJobMs = 120.0;
constexpr double kParamJitter = 0.04;
constexpr uint64_t kWindowInstrs = 1'000;
constexpr uint64_t kPeriodInstrs = 100'000;
constexpr const char *kDetailed = "StepAllNo";
constexpr const char *kFast = "BlockMinNo";
/** Twin fast-forward runs per cell in a traced run (median taken). */
constexpr int kTwinReps = 3;

/** Programs sampled, two kernels per ISA, sized to ~kJobMs per job on
 *  a 4-vCPU x86-64 host (README.md). */
struct CellRow
{
    const char *isa;
    const char *kernel;
    uint64_t param;
};

const CellRow kCells[] = {
    {"alpha64", "fib", 545000},  {"alpha64", "crc32", 18800},
    {"arm32", "sieve", 40900},   {"arm32", "crc32", 8100},
    {"ppc32", "sieve", 65700},   {"ppc32", "strhash", 35900},
};
constexpr size_t kNumCells = sizeof(kCells) / sizeof(kCells[0]);

SamplingConfig
samplingConfig()
{
    SamplingConfig s;
    s.windowInstrs = kWindowInstrs;
    s.periodInstrs = kPeriodInstrs;
    s.independentWindows = true;
    return s;
}

/** Registry dump of a SamplingStats: the byte-comparable witness the
 *  checkpoint-parallel and serial schedules must agree on. */
std::string
statsDump(const SamplingStats &s)
{
    stats::StatsRegistry reg;
    s.publish(reg.group("sampling"));
    std::ostringstream os;
    reg.dump(os);
    return os.str();
}

struct JobOut
{
    uint64_t latencyNs = 0;
    uint64_t ffNs = 0;
    uint64_t measureNs = 0;
    uint64_t totalInstrs = 0;
    SamplingStats stats;
    ckpt::CkptCounters ckpt;
};

class CkptSampling final : public Workload
{
  public:
    explicit CkptSampling(const Options &o)
        : opt_(o), storeRoot_(o.workDir + "/ckpt-store")
    {
        Rng rng(o.seed);
        for (const CellRow &row : kCells)
            params_.push_back(
                jitterParam(row.kernel, row.param, rng, kParamJitter));
        size_t n = static_cast<size_t>(o.seconds * 1000.0 / kJobMs);
        n = std::max<size_t>(n, 100);
        deck_ = seededDeck(kNumCells, n, rng);
    }

    double
    setup() override
    {
        fleet_.reset();
        programs_.clear();
        specs_.clear();
        uint64_t t0 = nowNs();
        SpanScope s("setup", 0, 0);
        specs_ = loadSpecs(s.id());
        {
            SpanScope b("workload.build", s.id(), 0);
            for (size_t c = 0; c < kNumCells; ++c)
                programs_.push_back(buildProgram(*specs_.at(kCells[c].isa),
                                                 kCells[c].kernel,
                                                 params_[c]));
        }
        fleet_ = std::make_unique<SimFleet>(opt_.threads);
        refDumps_ = serialReferences(s.id());
        {
            SpanScope st("ckpt.store.open", s.id(), 0);
            resetStore();
        }
        return static_cast<double>(nowNs() - t0) / 1e9;
    }

    PhaseResult
    run() override
    {
        PhaseResult r;
        outs_.assign(deck_.size(), JobOut{});
        uint64_t steal0 = stealTicks(), cpu0 = processCpuNs();
        uint64_t t0 = nowNs();
        Digest d;
        for (size_t i = 0; i < deck_.size(); ++i) {
            size_t c = deck_[i];
            JobOut &o = outs_[i];
            {
                SpanScope rs("ckpt.store.reset", 0, i);
                resetStore();
            }
            ++r.attempted;
            uint64_t j0 = nowNs();
            SpanScope js("ckpt.job", 0, i);
            CkptSamplingConfig cfg;
            cfg.sampling = samplingConfig();
            cfg.detailedBuildset = kDetailed;
            cfg.fastBuildset = kFast;
            cfg.store = store_.get();
            CkptSamplingResult res;
            {
                SpanScope s("parallel.sampling.run", js.id(), i);
                res = parallel::runSampledCheckpointParallel(
                    *specs_.at(kCells[c].isa), programs_[c], cfg, *fleet_);
                s.setCount(res.totalInstrs);
            }
            bool clean = std::all_of(res.jobErrors.begin(),
                                     res.jobErrors.end(),
                                     [](const std::string &e) {
                                         return e.empty();
                                     });
            bool same;
            {
                SpanScope v("verify", js.id(), i);
                same = statsDump(res.stats) == refDumps_[c];
            }
            o.latencyNs = nowNs() - j0;
            std::string label = std::string(kCells[c].isa) + "/" +
                                kCells[c].kernel;
            if (!clean) {
                r.fail(label + " window quarantined", false);
                continue;
            }
            if (!same) {
                r.fail(label + " stats differ from the serial reference",
                       true);
                continue;
            }
            o.ffNs = res.ffNs;
            o.measureNs = res.measureNs;
            o.totalInstrs = res.totalInstrs;
            o.stats = res.stats;
            o.ckpt = res.ckpt;
            r.instrs += res.totalInstrs;
            r.jobMs.push_back(static_cast<double>(o.latencyNs) / 1e6);
            r.cpus.push_back(currentCpu());
            const ckpt::CkptCounters &k = res.ckpt;
            for (uint64_t v :
                 {res.stats.windows, res.stats.fastForwarded,
                  res.stats.detailed.cycles, res.stats.detailed.instrs,
                  res.stats.detailed.dcacheMisses,
                  res.stats.detailed.mispredicts, res.totalInstrs,
                  k.fullCaptures, k.deltaCaptures, k.pagesCaptured,
                  k.restores, k.pagesRestored, k.storePagePuts,
                  k.storePageDedupHits, k.storeBytesWritten})
                d.add(v);
        }
        r.wallNs = nowNs() - t0;
        r.cpuNs = processCpuNs() - cpu0;
        r.stealTicks = stealTicks() - steal0;
        r.digest = d.hex();
        return r;
    }

    void
    layerMetrics(const PhaseResult &, Report &rep) override
    {
        // Twin: a bare fastForward() over each whole program on the fast
        // buildset -- phase 1 without capture or store.
        double twinNsPerInstr[kNumCells] = {};
        uint64_t twinNs = 0, twinInstrs = 0;
        for (size_t c = 0; c < kNumCells; ++c) {
            std::vector<double> ns;
            uint64_t n = 0;
            for (int k = 0; k < kTwinReps; ++k) {
                SimContext ctx(*specs_.at(kCells[c].isa));
                ctx.load(programs_[c]);
                auto sim = SimRegistry::instance().create(ctx, kFast);
                RunStatus st = RunStatus::Ok;
                SpanScope s("iface.BlockMinNo.ff_twin", 0, c);
                uint64_t t0 = nowNs();
                n = sim->fastForward(~uint64_t{0}, st);
                ns.push_back(static_cast<double>(nowNs() - t0));
                s.setCount(n);
            }
            twinNsPerInstr[c] = median(ns) / static_cast<double>(n);
            twinNs += static_cast<uint64_t>(median(ns));
            twinInstrs += n;
        }

        std::vector<double> phase1, phase2, capture, store, restore;
        uint64_t windows = 0, restores = 0, puts = 0, hits = 0, bytes = 0,
                 instrs = 0;
        SamplingStats all;
        for (size_t i = 0; i < deck_.size(); ++i) {
            const JobOut &o = outs_[i];
            if (o.totalInstrs == 0)
                continue;
            double twinMs = twinNsPerInstr[deck_[i]] *
                            static_cast<double>(o.totalInstrs) / 1e6;
            double cap = static_cast<double>(o.ckpt.captureNanos) / 1e6;
            double p1 = static_cast<double>(o.ffNs) / 1e6;
            phase1.push_back(p1);
            phase2.push_back(static_cast<double>(o.measureNs) / 1e6);
            capture.push_back(cap);
            store.push_back(p1 - twinMs - cap);
            restore.push_back(static_cast<double>(o.ckpt.restoreNanos) /
                              1e6);
            windows += o.stats.windows;
            restores += o.ckpt.restores;
            puts += o.ckpt.storePagePuts;
            hits += o.ckpt.storePageDedupHits;
            bytes += o.ckpt.storeBytesWritten;
            instrs += o.totalInstrs;
            all.detailed.cycles += o.stats.detailed.cycles;
            all.detailed.instrs += o.stats.detailed.instrs;
        }
        rep.metric("parallel.sampling.phase1_ms", median(phase1), "ms");
        rep.metric("parallel.sampling.phase2_ms", median(phase2), "ms");
        rep.metric("iface.BlockMinNo.ff_ns_per_instr",
                   static_cast<double>(twinNs) /
                       static_cast<double>(std::max<uint64_t>(twinInstrs, 1)),
                   "ns");
        rep.metric("ckpt.capture_ms", median(capture), "ms");
        rep.metric("ckpt.store_ms", median(store), "ms");
        rep.metric("ckpt.restore_ms", median(restore), "ms");
        rep.metric("ckpt.restores_per_window",
                   static_cast<double>(restores) /
                       static_cast<double>(std::max<uint64_t>(windows, 1)),
                   "count");
        rep.metric("ckpt.store_dedup_frac",
                   static_cast<double>(hits) /
                       static_cast<double>(std::max<uint64_t>(puts, 1)),
                   "fraction");
        rep.metric("ckpt.store_bytes_per_kinstr",
                   static_cast<double>(bytes) * 1e3 /
                       static_cast<double>(std::max<uint64_t>(instrs, 1)),
                   "B");
        rep.metric("timing.sampled.cpi", all.estimatedCpi(), "cycle/instr");
    }

    void
    describe(Report &rep) const override
    {
        std::ostringstream os;
        os << "{";
        for (size_t c = 0; c < kNumCells; ++c) {
            std::vector<double> ms;
            for (size_t i = 0; i < deck_.size() && i < outs_.size(); ++i)
                if (deck_[i] == c && outs_[i].latencyNs)
                    ms.push_back(static_cast<double>(outs_[i].latencyNs) /
                                 1e6);
            os << (c ? ", " : "") << "\"" << kCells[c].isa << "/"
               << kCells[c].kernel << "\": " << median(ms);
        }
        os << "}";
        rep.field("jobs", std::to_string(deck_.size()));
        rep.field("job_ms_p50_by_program", os.str());
    }

  private:
    void
    resetStore()
    {
        store_.reset();
        std::filesystem::remove_all(storeRoot_);
        store_ = std::make_unique<ckpt::CkptStore>(storeRoot_);
    }

    /** Serial sampled run of every program with independent windows,
     *  as one fleet batch (one program per job). */
    std::vector<std::string>
    serialReferences(uint64_t parent)
    {
        SpanScope s("setup.reference", parent, 0);
        std::vector<SamplingStats> ref(kNumCells);
        std::vector<parallel::FleetJob> jobs(kNumCells);
        for (size_t c = 0; c < kNumCells; ++c) {
            parallel::FleetJob &j = jobs[c];
            j.spec = specs_.at(kCells[c].isa).get();
            j.program = &programs_[c];
            j.buildset = kFast;
            j.name = kCells[c].kernel;
            j.body = [&ref, c, spec = j.spec](SimContext &ctx,
                                              FunctionalSimulator &fast,
                                              parallel::FleetResult &out,
                                              stats::StatsRegistry &) {
                auto det = SimRegistry::instance().create(ctx, kDetailed);
                ref[c] = runSampled(*spec, *det, fast, samplingConfig(),
                                    ~uint64_t{0});
                out.run.instrs = ref[c].fastForwarded +
                                 ref[c].detailed.instrs;
            };
        }
        parallel::FleetReport rep = fleet_->run(jobs);
        std::vector<std::string> dumps;
        for (size_t c = 0; c < kNumCells; ++c) {
            if (rep.results[c].quarantined)
                throw std::runtime_error("serial reference for " +
                                         std::string(kCells[c].kernel) +
                                         " failed: " +
                                         rep.results[c].error);
            dumps.push_back(statsDump(ref[c]));
        }
        return dumps;
    }

    Options opt_;
    std::string storeRoot_;
    std::vector<uint64_t> params_; ///< per cell, jittered by the seed
    std::vector<size_t> deck_;     ///< cell index per job
    std::map<std::string, std::unique_ptr<Spec>> specs_;
    std::vector<Program> programs_;
    std::vector<std::string> refDumps_;
    std::unique_ptr<SimFleet> fleet_;
    std::unique_ptr<ckpt::CkptStore> store_;
    std::vector<JobOut> outs_;
};

} // namespace

std::unique_ptr<Workload>
makeCkptSampling(const Options &o)
{
    return std::make_unique<CkptSampling>(o);
}

} // namespace perfbench
