/**
 * @file
 * timing_orgs: the paper's own use case.  A closed loop of one SimFleet
 * batch, one worker per host CPU; each job runs one of the four
 * decoupled organisations over one kernel to completion:
 *
 *   functional-first              FunctionalFirstModel on OneDecNo
 *   timing-directed               TimingDirectedPipeline on StepAllNo
 *   timing-first                  TimingFirstModel on a OneMinNo pair
 *   speculative functional-first  SpecFunctionalFirstModel on BlockDecYes
 *
 * (SpecFunctionalFirstModel drives executeBlock(), which One-level
 * buildsets do not provide, so the speculative jobs use the Block-level
 * BlockDecYes with the same Decode detail and undo journal.)
 *
 * Each (ISA, kernel, organisation) cell has its own kernel parameter,
 * sized so a job takes about kJobMs on the reference host: job time has
 * one mode, and the percentiles do not sit on boundaries between kinds
 * of job.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>
#include <thread>

#include "iface/registry.hpp"
#include "timing/functional_first.hpp"
#include "timing/spec_ff.hpp"
#include "timing/timing_directed.hpp"
#include "timing/timing_first.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace onespec;
using parallel::FleetJob;
using parallel::FleetResult;
using parallel::SimFleet;

namespace {

constexpr double kJobMs = 150.0;
constexpr double kParamJitter = 0.04;

enum Org : unsigned { FuncFirst, TimingDirected, TimingFirst, SpecFF, kOrgs };

struct OrgInfo
{
    const char *name;
    const char *buildset;
    const char *jobSpan;
    const char *runSpan;
    const char *twinSpan;
};

constexpr OrgInfo kOrgInfo[kOrgs] = {
    {"func_first", "OneDecNo", "timing.func_first.job",
     "timing.func_first.run", "iface.OneDecNo.twin"},
    {"timing_directed", "StepAllNo", "timing.timing_directed.job",
     "timing.timing_directed.run", "iface.StepAllNo.twin"},
    {"timing_first", "OneMinNo", "timing.timing_first.job",
     "timing.timing_first.run", "iface.OneMinNo.twin"},
    {"spec_func_first", "BlockDecYes", "timing.spec_func_first.job",
     "timing.spec_func_first.run", "iface.BlockDecYes.twin"},
};

/** Timing-first injects a register corruption this often, so the
 *  checker's flush-and-reload path runs in every job. */
constexpr uint64_t kTfBugEvery = 50'000;
/** Speculative FF declares a violation this often, squashing this deep. */
constexpr uint64_t kSpecViolationEvery = 25'000;
constexpr uint64_t kSpecSquashDepth = 32;

/**
 * Kernel parameter per (ISA, kernel) and organisation, in kOrgInfo
 * order, sized to ~kJobMs per job on a 4-vCPU x86-64 host (see
 * README.md).  Regenerate with `perfbench --calibrate timing_orgs`.
 */
struct CellRow
{
    const char *isa;
    const char *kernel;
    uint64_t param[kOrgs];
};

const CellRow kCells[] = {
    {"alpha64", "fib", {585398, 227595, 321356, 312273}},
    {"alpha64", "sieve", {157290, 60614, 93954, 102309}},
    {"alpha64", "matmul", {58, 41, 48, 48}},
    {"alpha64", "shellsort", {7747, 3153, 4996, 5230}},
    {"alpha64", "strhash", {45410, 17714, 25764, 29620}},
    {"alpha64", "crc32", {26042, 11098, 14716, 15399}},
    {"alpha64", "listsum", {27164, 12922, 16492, 20895}},
    {"arm32", "fib", {199292, 115296, 100950, 171189}},
    {"arm32", "sieve", {58736, 38028, 30176, 43638}},
    {"arm32", "matmul", {43, 34, 32, 35}},
    {"arm32", "shellsort", {3291, 2050, 1783, 2416}},
    {"arm32", "strhash", {16752, 9684, 8608, 13551}},
    {"arm32", "crc32", {10036, 5604, 5494, 7546}},
    {"arm32", "listsum", {12690, 7506, 6574, 10278}},
    {"ppc32", "fib", {415383, 161900, 198014, 259446}},
    {"ppc32", "sieve", {94086, 46419, 54142, 75420}},
    {"ppc32", "matmul", {56, 39, 43, 45}},
    {"ppc32", "shellsort", {5579, 2705, 3307, 3613}},
    {"ppc32", "strhash", {49923, 19280, 26102, 31164}},
    {"ppc32", "crc32", {19544, 9069, 9981, 13918}},
    {"ppc32", "listsum", {29674, 13572, 15849, 21357}},
};

/** One (ISA, kernel, organisation) cell of the seeded deck. */
struct Cell
{
    const CellRow *row = nullptr;
    Org org = FuncFirst;
    uint64_t param = 0;
};

/** Everything one job produced, written by its worker only. */
struct JobOut
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    size_t worker = 0;
    int cpu = -1;
    TimingStats st;
    IfaceCounters counters;
    uint64_t stateHash = 0;
    std::string output;
    bool verified = false; ///< matched the set-up reference
};

/** Run @p org over the context the fleet loaded; fills @p o. */
void
runOrganisation(Org org, const Spec &spec, const Program &prog,
                SimContext &ctx, FunctionalSimulator &sim, JobOut &o,
                uint64_t parent, uint64_t job)
{
    SpanScope s(kOrgInfo[org].runSpan, parent, job);
    switch (org) {
      case FuncFirst: {
        FunctionalFirstModel m(spec);
        o.st = m.run(sim, ~uint64_t{0});
        break;
      }
      case TimingDirected: {
        TimingDirectedPipeline m(spec);
        o.st = m.run(sim, ~uint64_t{0});
        break;
      }
      case TimingFirst: {
        // The fleet's simulator is the integrated "timing" side; the
        // trusted checker gets its own context.  The architectural
        // result is the checker's.
        SimContext cctx(spec);
        cctx.load(prog);
        auto checker = SimRegistry::instance().create(cctx, "OneMinNo");
        TimingFirstConfig cfg;
        cfg.injectBugEvery = kTfBugEvery;
        TimingFirstModel m(cfg);
        o.st = m.run(sim, *checker, ~uint64_t{0});
        o.counters = checker->ifaceCounters();
        o.output = cctx.os().output();
        o.stateHash = parallel::contextStateHash(cctx, o.output);
        break;
      }
      case SpecFF: {
        SpecFFConfig cfg;
        cfg.violationEvery = kSpecViolationEvery;
        cfg.squashDepth = kSpecSquashDepth;
        SpecFunctionalFirstModel m(cfg);
        o.st = m.run(sim, ~uint64_t{0});
        break;
      }
      case kOrgs:
        break;
    }
    s.setCount(o.st.instrs);
    o.counters += sim.ifaceCounters();
    if (org != TimingFirst) {
        o.output = ctx.os().output();
        o.stateHash = parallel::contextStateHash(ctx, o.output);
    }
}

size_t
workerIndex()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

class TimingOrgs final : public Workload
{
  public:
    explicit TimingOrgs(const Options &o) : opt_(o)
    {
        Rng rng(o.seed);
        // One jittered parameter per cell for this seed.
        std::vector<Cell> cells;
        for (const CellRow &row : kCells)
            for (unsigned g = 0; g < kOrgs; ++g)
                cells.push_back({&row, static_cast<Org>(g),
                                 jitterParam(row.kernel, row.param[g], rng,
                                             kParamJitter)});
        // Enough jobs to keep every worker busy for the whole phase;
        // at least 100 so p90 has ten samples beyond it.
        size_t n = static_cast<size_t>(static_cast<double>(o.threads) *
                                       o.seconds * 1000.0 / kJobMs);
        n = std::max<size_t>(n, 100);
        for (size_t c : seededDeck(cells.size(), n, rng))
            deck_.push_back(cells[c]);
        cells_ = std::move(cells);
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
            for (const Cell &c : cells_)
                programs_.push_back(buildProgram(*specs_.at(c.row->isa),
                                                 c.row->kernel, c.param));
        }
        fleet_ = std::make_unique<SimFleet>(opt_.threads);
        std::vector<RefInput> in;
        for (size_t i = 0; i < cells_.size(); ++i)
            in.push_back({specs_.at(cells_[i].row->isa).get(),
                          &programs_[i], cells_[i].row->kernel,
                          cells_[i].param});
        refs_ = computeReferences(*fleet_, in, s.id());
        return static_cast<double>(nowNs() - t0) / 1e9;
    }

    PhaseResult
    run() override
    {
        PhaseResult r;
        outs_.assign(deck_.size(), JobOut{});
        std::vector<FleetJob> jobs = makeJobs(false);
        uint64_t steal0 = stealTicks(), cpu0 = processCpuNs();
        uint64_t t0 = nowNs();
        parallel::FleetReport rep;
        {
            SpanScope s("parallel.fleet.run", 0, 0);
            batchSpan_ = s.id();
            rep = fleet_->run(jobs);
        }
        batchEnd_ = nowNs();
        r.wallNs = batchEnd_ - t0;
        r.cpuNs = processCpuNs() - cpu0;
        r.stealTicks = stealTicks() - steal0;

        Digest d;
        for (size_t i = 0; i < deck_.size(); ++i) {
            const Cell &c = deck_[i];
            const JobOut &o = outs_[i];
            const FleetResult &fr = rep.results[i];
            ++r.attempted;
            std::string label = std::string(c.row->isa) + "/" +
                                c.row->kernel + "/" + kOrgInfo[c.org].name;
            if (fr.quarantined) {
                r.fail(label + " quarantined: " + fr.error, false);
                continue;
            }
            if (!o.verified) {
                r.fail(label + " result differs from the reference", true);
                continue;
            }
            r.instrs += o.st.instrs;
            r.jobMs.push_back(static_cast<double>(o.endNs - o.startNs) /
                              1e6);
            r.cpus.push_back(o.cpu);
            d.add(c.org);
            for (uint64_t v :
                 {o.st.cycles, o.st.instrs, o.st.icacheMisses,
                  o.st.dcacheMisses, o.st.branches, o.st.mispredicts,
                  o.st.mismatches, o.st.rollbacks, o.st.rolledBackInstrs,
                  o.counters.crossings(), o.counters.undoCalls,
                  o.counters.undoneInstrs, o.stateHash})
                d.add(v);
        }
        r.digest = d.hex();
        return r;
    }

    void
    layerMetrics(const PhaseResult &r, Report &rep) override
    {
        // Twins: the same deck, each job a bare sim.run() to halt on the
        // job's buildset -- what the interface costs without a model.
        std::vector<FleetJob> twins = makeJobs(true);
        {
            SpanScope s("parallel.fleet.twins", 0, 0);
            batchSpan_ = s.id();
            fleet_->run(twins);
        }
        auto totals = spanTotals(tracer().spans());

        uint64_t instrsAll = 0;
        IfaceCounters ic;
        double busyNs = 0;
        std::map<size_t, uint64_t> lastEnd;
        for (size_t i = 0; i < deck_.size(); ++i) {
            const JobOut &o = outs_[i];
            instrsAll += o.st.instrs;
            ic += o.counters;
            busyNs += static_cast<double>(o.endNs - o.startNs);
            lastEnd[o.worker] = std::max(lastEnd[o.worker], o.endNs);
        }
        for (unsigned g = 0; g < kOrgs; ++g) {
            const OrgInfo &oi = kOrgInfo[g];
            TimingStats sum;
            for (size_t i = 0; i < deck_.size(); ++i) {
                if (deck_[i].org != g)
                    continue;
                const TimingStats &st = outs_[i].st;
                sum.cycles += st.cycles;
                sum.instrs += st.instrs;
                sum.dcacheMisses += st.dcacheMisses;
                sum.mispredicts += st.mispredicts;
            }
            const SpanTotals &run = totals[oi.runSpan];
            const SpanTotals &twin = totals[oi.twinSpan];
            double model = run.count ? static_cast<double>(run.selfNs) /
                                           static_cast<double>(run.count)
                                     : 0.0;
            double bare = twin.count ? static_cast<double>(twin.selfNs) /
                                           static_cast<double>(twin.count)
                                     : 0.0;
            std::string p = std::string("timing.") + oi.name + ".";
            rep.metric(p + "model_ns_per_instr", model, "ns");
            rep.metric(std::string("iface.") + oi.buildset +
                           ".run_ns_per_instr",
                       bare, "ns");
            rep.metric(p + "self_ns_per_instr", model - bare, "ns");
            rep.metric(p + "ipc", sum.ipc(), "instr/cycle");
            // Only these two organisations model caches and a branch
            // predictor; the other two would report constant zeros.
            if (g == FuncFirst || g == TimingDirected) {
                double kinstr = static_cast<double>(sum.instrs) / 1e3;
                rep.metric(p + "dcache_misses_per_kinstr",
                           static_cast<double>(sum.dcacheMisses) / kinstr,
                           "count");
                rep.metric(p + "mispredicts_per_kinstr",
                           static_cast<double>(sum.mispredicts) / kinstr,
                           "count");
            }
        }
        double kinstr = static_cast<double>(instrsAll) / 1e3;
        rep.metric("iface.crossings_per_kinstr",
                   static_cast<double>(ic.crossings()) / kinstr, "count");
        rep.metric("iface.instrs_per_crossing", ic.instrsPerCrossing(),
                   "count");

        IfaceCounters spec;
        uint64_t specInstrs = 0;
        for (size_t i = 0; i < deck_.size(); ++i) {
            if (deck_[i].org == SpecFF) {
                spec += outs_[i].counters;
                specInstrs += outs_[i].st.instrs;
            }
        }
        rep.metric("runtime.undo_calls_per_kinstr",
                   static_cast<double>(spec.undoCalls) * 1e3 /
                       static_cast<double>(std::max<uint64_t>(specInstrs, 1)),
                   "count");
        rep.metric("runtime.undone_frac",
                   static_cast<double>(spec.undoneInstrs) /
                       static_cast<double>(std::max<uint64_t>(spec.instrs, 1)),
                   "fraction");

        uint64_t firstIdle = batchEnd_;
        for (auto [w, e] : lastEnd)
            firstIdle = std::min(firstIdle, e);
        rep.metric("parallel.pool_busy_frac",
                   busyNs / (static_cast<double>(opt_.threads) *
                             static_cast<double>(r.wallNs)),
                   "fraction");
        rep.metric("parallel.tail_ms",
                   static_cast<double>(batchEnd_ - firstIdle) / 1e6,
                   "ms");
    }

    void
    describe(Report &rep) const override
    {
        std::vector<double> perOrg[kOrgs];
        for (size_t i = 0; i < deck_.size() && i < outs_.size(); ++i)
            if (outs_[i].endNs)
                perOrg[deck_[i].org].push_back(
                    static_cast<double>(outs_[i].endNs - outs_[i].startNs) /
                    1e6);
        std::ostringstream os;
        os << "{";
        for (unsigned g = 0; g < kOrgs; ++g)
            os << (g ? ", " : "") << "\"" << kOrgInfo[g].name
               << "\": " << median(perOrg[g]);
        os << "}";
        rep.field("jobs", std::to_string(deck_.size()));
        rep.field("cells", std::to_string(cells_.size()));
        rep.field("job_ms_p50_by_org", os.str());
    }

  private:
    size_t
    cellIndex(size_t job) const
    {
        return static_cast<size_t>(deck_[job].row - kCells) * kOrgs +
               deck_[job].org;
    }

    std::vector<FleetJob>
    makeJobs(bool twin)
    {
        std::vector<FleetJob> jobs(deck_.size());
        for (size_t i = 0; i < deck_.size(); ++i) {
            const Cell &c = deck_[i];
            size_t ci = cellIndex(i);
            const Spec &spec = *specs_.at(c.row->isa);
            const Program &prog = programs_[ci];
            FleetJob &j = jobs[i];
            j.spec = &spec;
            j.program = &prog;
            j.buildset = kOrgInfo[c.org].buildset;
            j.name = std::string(c.row->isa) + "/" + c.row->kernel;
            if (twin) {
                j.body = [this, i, org = c.org](SimContext &,
                                                FunctionalSimulator &sim,
                                                FleetResult &out,
                                                stats::StatsRegistry &) {
                    SpanScope s(kOrgInfo[org].twinSpan, batchSpan_, i);
                    out.run = sim.run(~uint64_t{0});
                    s.setCount(out.run.instrs);
                };
                continue;
            }
            j.body = [this, i, org = c.org, &spec, &prog,
                      &ref = refs_[ci]](SimContext &ctx,
                                        FunctionalSimulator &sim,
                                        FleetResult &out,
                                        stats::StatsRegistry &) {
                JobOut &o = outs_[i];
                o.startNs = nowNs();
                {
                    SpanScope js(kOrgInfo[org].jobSpan, batchSpan_, i);
                    runOrganisation(org, spec, prog, ctx, sim, o, js.id(),
                                    i);
                    out.run.instrs = o.st.instrs;
                    out.run.status = RunStatus::Halted;
                    // The reference output was checked against
                    // goldenOutput() during set-up.
                    SpanScope v("verify", js.id(), i);
                    o.verified = o.output == ref.output &&
                                 o.stateHash == ref.stateHash &&
                                 o.st.instrs == ref.instrs;
                }
                o.endNs = nowNs();
                o.worker = workerIndex();
                o.cpu = currentCpu();
            };
        }
        return jobs;
    }

    Options opt_;
    std::vector<Cell> cells_;  ///< one per (row, org), row-major
    std::vector<Cell> deck_;
    std::map<std::string, std::unique_ptr<Spec>> specs_;
    std::vector<Program> programs_; ///< indexed like cells_
    std::vector<Reference> refs_;   ///< indexed like cells_
    std::unique_ptr<SimFleet> fleet_;
    std::vector<JobOut> outs_;
    uint64_t batchSpan_ = 0;
    uint64_t batchEnd_ = 0;
};

} // namespace

void
calibrateTimingOrgs()
{
    auto specs = loadSpecs(0);
    std::printf("const CellRow kCells[] = {\n");
    for (const CellRow &row : kCells) {
        const Spec &spec = *specs.at(row.isa);
        uint64_t next[kOrgs];
        for (unsigned g = 0; g < kOrgs; ++g) {
            // Best of three at the current parameter, then rescale the
            // parameter so the dynamic instruction count hits kJobMs.
            Program prog = buildProgram(spec, row.kernel, row.param[g]);
            double best = 1e300;
            for (int rep = 0; rep < 3; ++rep) {
                SimContext ctx(spec);
                ctx.load(prog);
                auto sim = SimRegistry::instance().create(
                    ctx, kOrgInfo[g].buildset);
                JobOut o;
                uint64_t t0 = nowNs();
                runOrganisation(static_cast<Org>(g), spec, prog, ctx, *sim,
                                o, 0, 0);
                best = std::min(best, static_cast<double>(nowNs() - t0) /
                                          1e6);
            }
            next[g] = static_cast<uint64_t>(
                static_cast<double>(row.param[g]) *
                std::pow(kJobMs / best, 1.0 / kernelExponent(row.kernel)));
            std::fprintf(stderr, "%s/%s/%s %.1f ms\n", row.isa, row.kernel,
                         kOrgInfo[g].name, best);
        }
        std::printf("    {\"%s\", \"%s\", {%llu, %llu, %llu, %llu}},\n",
                    row.isa, row.kernel,
                    static_cast<unsigned long long>(next[0]),
                    static_cast<unsigned long long>(next[1]),
                    static_cast<unsigned long long>(next[2]),
                    static_cast<unsigned long long>(next[3]));
    }
    std::printf("};\n");
}

std::unique_ptr<Workload>
makeTimingOrgs(const Options &o)
{
    return std::make_unique<TimingOrgs>(o);
}

} // namespace perfbench
