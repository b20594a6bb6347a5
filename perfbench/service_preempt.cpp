/**
 * @file
 * service_preempt: independent users of the simulation service.  An
 * open loop over one client connection to an in-process ServiceDaemon
 * with one worker per host CPU.  Jobs are BlockMinNo runs of mixed ISAs
 * whose slice forces three checkpoint-and-requeue cycles each;
 * arrivals follow a seeded schedule at a fixed mean rate of about half
 * the service's capacity on the reference host.
 *
 * Latency is timed from each job's due time, so a stall that delays
 * later submissions counts against them; how late the generator itself
 * ran is reported.  Wire, admission, queue, warm pool and the job
 * lifecycle do the work; the checkpoint store is written once and read
 * once per slice, on a running job's critical path.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "parallel/fleet.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "stats/json.hpp"
#include "workload.hpp"
#include "workload/kernels.hpp"

namespace perfbench {

using namespace onespec;
using namespace onespec::service;

namespace {

/** Mean arrival rate, about half the measured capacity (README.md). */
constexpr double kArrivalsPerSec = 16.0;
constexpr double kParamJitter = 0.04;
/** Each job's slice is a quarter of its length: three preemptions. */
constexpr uint64_t kSlicesPerJob = 4;

/** Programs served, two kernels per ISA, sized to ~100 ms of active
 *  BlockMinNo run time on a 4-vCPU x86-64 host (README.md). */
struct CellRow
{
    const char *isa;
    const char *kernel;
    uint64_t param;
};

const CellRow kCells[] = {
    {"alpha64", "fib", 637000},   {"alpha64", "strhash", 31800},
    {"arm32", "sieve", 45500},    {"arm32", "listsum", 11300},
    {"ppc32", "crc32", 17100},    {"ppc32", "fib", 328000},
};
constexpr size_t kNumCells = sizeof(kCells) / sizeof(kCells[0]);

/** Client-side timeline of one job (steady-clock ns). */
struct JobOut
{
    uint64_t due = 0;
    uint64_t submitStart = 0;
    uint64_t accepted = 0;
    uint64_t firstRunning = 0;
    uint64_t result = 0;
    JobResult res;
    bool verified = false;
};

class ServicePreempt final : public Workload
{
  public:
    explicit ServicePreempt(const Options &o)
        : opt_(o), storeDir_(o.workDir + "/service-store"),
          socketPath_(o.workDir + "/service.sock")
    {
        Rng rng(o.seed);
        for (const CellRow &row : kCells)
            params_.push_back(
                jitterParam(row.kernel, row.param, rng, kParamJitter));
        size_t n = static_cast<size_t>(kArrivalsPerSec * o.seconds);
        n = std::max<size_t>(n, 100);
        deck_ = seededDeck(kNumCells, n, rng);
        // Seeded arrivals at a fixed mean rate; gaps are uniform in
        // [0.5, 1.5) of the mean, which bounds bursts.
        double gapNs = 1e9 / kArrivalsPerSec;
        uint64_t t = 0;
        for (size_t i = 0; i < n; ++i) {
            offsets_.push_back(t);
            t += static_cast<uint64_t>(gapNs * (0.5 + rng.uniform()));
        }
    }

    ~ServicePreempt() override
    {
        try {
            teardown();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: daemon shutdown: %s\n",
                         e.what());
        }
    }

    double
    setup() override
    {
        teardown();
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
        {
            parallel::SimFleet fleet(opt_.threads);
            std::vector<RefInput> in;
            for (size_t c = 0; c < kNumCells; ++c)
                in.push_back({specs_.at(kCells[c].isa).get(),
                              &programs_[c], kCells[c].kernel, params_[c]});
            refs_ = computeReferences(fleet, in, s.id());
        }
        {
            SpanScope st("service.start", s.id(), 0);
            std::filesystem::remove_all(storeDir_);
            ServiceConfig cfg;
            cfg.socketPath = socketPath_;
            cfg.storeDir = storeDir_;
            cfg.workers = opt_.threads;
            // Backlog shows as latency, never as rejections.
            cfg.queueDepth = static_cast<uint32_t>(deck_.size());
            cfg.tenantQuota = static_cast<uint32_t>(deck_.size());
            daemon_ = std::make_unique<ServiceDaemon>(cfg);
            daemon_->start();
            client_ = std::make_unique<ServiceClient>();
            client_->connect(socketPath_, "perfbench");
        }
        return static_cast<double>(nowNs() - t0) / 1e9;
    }

    PhaseResult
    run() override
    {
        PhaseResult r;
        const size_t n = deck_.size();
        outs_.assign(n, JobOut{});
        std::map<uint64_t, size_t> byId;
        uint64_t steal0 = stealTicks(), cpu0 = processCpuNs();
        const uint64_t t0 = nowNs();
        for (size_t i = 0; i < n; ++i)
            outs_[i].due = t0 + offsets_[i];
        size_t next = 0, finished = 0;
        while (finished < n) {
            uint64_t now = nowNs();
            if (next < n && now >= outs_[next].due) {
                JobOut &o = outs_[next];
                size_t c = deck_[next];
                JobSpec spec;
                spec.name = std::string(kCells[c].isa) + "/" +
                            kCells[c].kernel;
                spec.isa = kCells[c].isa;
                spec.kernel = kCells[c].kernel;
                spec.param = params_[c];
                spec.buildset = "BlockMinNo";
                spec.sliceInstrs = refs_[c].instrs / kSlicesPerJob + 1;
                o.submitStart = now;
                SubmitOutcome so = client_->submit(spec);
                o.accepted = nowNs();
                ++r.attempted;
                if (so.accepted) {
                    byId[so.jobId] = next;
                } else {
                    r.fail(spec.name + " rejected: " + so.reject.reason,
                           false);
                    ++finished;
                }
                ++next;
                continue;
            }
            // Sleep until the next due time (rounded up to the poll's
            // millisecond granularity) rather than spin.
            int timeoutMs =
                next < n ? static_cast<int>((outs_[next].due - now +
                                             999'999) /
                                            1'000'000)
                         : 100;
            ClientEvent ev;
            if (!client_->poll(ev, timeoutMs))
                continue;
            now = nowNs();
            if (ev.kind == ClientEvent::Kind::Status) {
                auto it = byId.find(ev.status.jobId);
                if (it != byId.end() &&
                    ev.status.phase == JobPhase::Running &&
                    outs_[it->second].firstRunning == 0)
                    outs_[it->second].firstRunning = now;
            } else if (ev.kind == ClientEvent::Kind::Result) {
                auto it = byId.find(ev.result.jobId);
                if (it == byId.end())
                    continue;
                JobOut &o = outs_[it->second];
                o.result = now;
                o.res = std::move(ev.result);
                ++finished;
            }
        }
        const uint64_t t1 = nowNs();
        r.wallNs = t1 - t0;
        r.cpuNs = processCpuNs() - cpu0;
        r.stealTicks = stealTicks() - steal0;
        statsz_ = client_->statsz();

        Digest d;
        for (size_t i = 0; i < n; ++i) {
            JobOut &o = outs_[i];
            if (o.result == 0)
                continue; // rejected, already counted
            const size_t c = deck_[i];
            const Reference &ref = refs_[c];
            SpanScope v("verify", 0, i);
            if (o.res.quarantined) {
                r.fail(o.res.name + " quarantined: " + o.res.error, false);
                continue;
            }
            if (o.res.output != goldenOutput(kCells[c].kernel, params_[c]) ||
                o.res.stateHash != ref.stateHash ||
                o.res.instrs != ref.instrs) {
                r.fail(o.res.name + " result differs from the reference",
                       true);
                continue;
            }
            o.verified = true;
            r.instrs += o.res.instrs;
            r.jobMs.push_back(static_cast<double>(o.result - o.due) / 1e6);
            for (uint64_t x : {o.res.instrs, o.res.stateHash,
                               o.res.preemptions, o.res.counters.crossings(),
                               o.res.counters.instrs})
                d.add(x);
            uint64_t job = tracer().add("service.job", 0, i, o.due, o.result,
                                        o.res.instrs);
            tracer().add("service.submit", job, i, o.submitStart,
                         o.accepted);
            if (o.firstRunning) {
                tracer().add("service.queue", job, i, o.accepted,
                             o.firstRunning);
                tracer().add("service.run", job, i, o.firstRunning,
                             o.result, o.res.instrs);
            }
        }
        r.digest = d.hex();
        return r;
    }

    void
    layerMetrics(const PhaseResult &, Report &rep) override
    {
        std::vector<double> submit, queue, active, overhead, late;
        uint64_t preemptions = 0, jobs = 0;
        for (const JobOut &o : outs_) {
            late.push_back(static_cast<double>(o.submitStart - o.due) / 1e6);
            if (!o.verified)
                continue;
            ++jobs;
            preemptions += o.res.preemptions;
            submit.push_back(static_cast<double>(o.accepted - o.submitStart) /
                             1e6);
            queue.push_back(static_cast<double>(o.firstRunning - o.accepted) /
                            1e6);
            double run = static_cast<double>(o.res.ns) / 1e6;
            active.push_back(run);
            overhead.push_back(
                static_cast<double>(o.result - o.firstRunning) / 1e6 - run);
        }
        stats::Json js;
        std::string err;
        if (!stats::Json::parse(statsz_, js, &err))
            throw std::runtime_error("bad /statsz reply: " + err);
        auto num = [&js](const char *group, const char *key) {
            const stats::Json *g = js.find(group);
            const stats::Json *v = g ? g->find(key) : nullptr;
            return v ? static_cast<double>(v->asUint()) : 0.0;
        };
        double acquires = num("warm", "acquires");
        double preempted = num("jobs", "preempted");
        rep.metric("service.submit_ms", median(submit), "ms");
        rep.metric("service.queue_ms", median(queue), "ms");
        rep.metric("service.active_run_ms", median(active), "ms");
        rep.metric("service.slice_overhead_ms", median(overhead), "ms");
        rep.metric("service.preemptions_per_job",
                   static_cast<double>(preemptions) /
                       static_cast<double>(std::max<uint64_t>(jobs, 1)),
                   "count");
        rep.metric("service.warm_reuse_frac",
                   acquires ? (acquires - num("warm", "creates")) / acquires
                            : 0.0,
                   "fraction");
        rep.metric("ckpt.store_bytes_per_preemption",
                   preempted ? num("ckpt", "store_bytes_written") / preempted
                             : 0.0,
                   "B");
        rep.metric("service.generator_late_ms_p90", quantile(late, 0.9),
                   "ms");
    }

    void
    describe(Report &rep) const override
    {
        std::vector<double> late, active;
        for (const JobOut &o : outs_) {
            if (o.submitStart)
                late.push_back(static_cast<double>(o.submitStart - o.due) /
                               1e6);
            if (o.verified)
                active.push_back(static_cast<double>(o.res.ns) / 1e6);
        }
        std::ostringstream os;
        os << kArrivalsPerSec;
        rep.field("jobs", std::to_string(deck_.size()));
        rep.field("arrivals_per_s", os.str());
        rep.field("generator_late_ms_p90", std::to_string(quantile(late, 0.9)));
        rep.field("active_run_ms_p50", std::to_string(median(active)));
    }

  private:
    void
    teardown()
    {
        if (client_) {
            client_->shutdownServer();
            client_.reset();
        }
        if (daemon_) {
            daemon_->waitShutdown();
            daemon_.reset();
        }
    }

    Options opt_;
    std::string storeDir_;
    std::string socketPath_;
    std::vector<uint64_t> params_;
    std::vector<size_t> deck_;
    std::vector<uint64_t> offsets_; ///< due time of each job from start
    std::map<std::string, std::unique_ptr<Spec>> specs_;
    std::vector<Program> programs_;
    std::vector<Reference> refs_;
    std::unique_ptr<ServiceDaemon> daemon_;
    std::unique_ptr<ServiceClient> client_;
    std::vector<JobOut> outs_;
    std::string statsz_;
};

} // namespace

std::unique_ptr<Workload>
makeServicePreempt(const Options &o)
{
    return std::make_unique<ServicePreempt>(o);
}

} // namespace perfbench
