/**
 * @file
 * Shared pieces of the end-to-end benchmark: the seeded deck generator,
 * the in-memory span tracer, host measurements (CPU time, peak RSS,
 * steal ticks, worker CPUs), order statistics, and the report printed
 * as the run's last line.
 *
 * Every timing here is taken by the benchmark's own code around public
 * OneSpec calls; nothing is instrumented inside the library.
 */

#ifndef ONESPEC_PERFBENCH_COMMON_HPP
#define ONESPEC_PERFBENCH_COMMON_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
uint64_t nowNs();

/** Process CPU time, user + system, in nanoseconds (getrusage). */
uint64_t processCpuNs();

/** Peak resident set size of the process in MiB (getrusage). */
double peakRssMb();

/** Sum of the steal column over all CPUs in /proc/stat (0 if absent). */
uint64_t stealTicks();

/** CPU the calling thread runs on now (-1 if unknown). */
int currentCpu();

/** splitmix64: the seeded source of every deck and schedule. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t next();
    /** Uniform double in [0, 1). */
    double uniform();
    /** Uniform integer in [0, n). */
    uint64_t below(uint64_t n);

  private:
    uint64_t s_;
};

/** Linear-interpolated quantile (q in [0,1]) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/** One recorded interval: what the benchmark was doing, for which job,
 *  under which enclosing span.  Ids start at 1; parent 0 is a root. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t job = 0;
    const char *name = "";
    uint64_t start = 0;
    uint64_t end = 0;
    uint64_t count = 0; ///< work the span covered (instructions, ...)
    int cpu = -1;
};

/**
 * Span sink.  Disabled, begin() returns 0 and end() ignores it, so an
 * untraced run pays one branch per boundary.  Spans stay in memory until
 * writeChromeTrace() at exit.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    /** Open a span; returns its id (0 when disabled). */
    uint64_t begin(const char *name, uint64_t parent, uint64_t job);
    /** Close span @p id, recording @p count units of work. */
    void end(uint64_t id, uint64_t count = 0);
    /** Record an interval measured elsewhere (e.g. between two events). */
    uint64_t add(const char *name, uint64_t parent, uint64_t job,
                 uint64_t start, uint64_t end, uint64_t count = 0);

    /** Closed spans, in closing order. */
    std::vector<Span> spans() const;

    /** Write the spans as Chrome trace-event JSON (Perfetto opens it). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    uint64_t nextId_ = 1;
    std::map<uint64_t, Span> open_;
    std::vector<Span> closed_;
};

/** Process-wide tracer used by every workload. */
Tracer &tracer();

/** RAII span on tracer(). */
class SpanScope
{
  public:
    SpanScope(const char *name, uint64_t parent, uint64_t job)
        : id_(tracer().begin(name, parent, job))
    {}
    ~SpanScope() { tracer().end(id_, count_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint64_t id() const { return id_; }
    void setCount(uint64_t n) { count_ = n; }

  private:
    uint64_t id_;
    uint64_t count_ = 0;
};

/** Per-name totals over a span set: self time (duration minus the
 *  union of the direct children's intervals) and summed work counts. */
struct SpanTotals
{
    uint64_t selfNs = 0;
    uint64_t count = 0;
};
std::map<std::string, SpanTotals> spanTotals(const std::vector<Span> &spans);

/** Minimal JSON string escaping for report fields. */
std::string jsonEscape(const std::string &s);

/** Metrics by name, in insertion order, plus diagnostic fields. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Free-form diagnostic (raw JSON value text); never a metric. */
    void field(const std::string &name, const std::string &json);

    bool has(const std::string &name) const;
    double value(const std::string &name) const;
    const std::vector<std::pair<std::string, std::pair<double, std::string>>> &
    metrics() const
    {
        return metrics_;
    }

    /** The metrics as one JSON object {"name": value, ...}. */
    std::string metricsJson() const;
    /** The fields as one JSON object. */
    std::string fieldsJson() const;
    /** {"correct":..,"attempted":..,"failed":..,"metrics":{..}} */
    std::string resultJson(bool correct, uint64_t attempted,
                           uint64_t failed) const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** FNV-1a accumulator for the simulated-statistics digest. */
class Digest
{
  public:
    void add(uint64_t v);
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Histogram of CPU numbers as a JSON object {"cpu": jobs, ...}. */
std::string cpuHistogramJson(const std::vector<int> &cpus);

/** The CPU each thread of this process last ran on (/proc/self/task),
 *  so threads the benchmark does not own (a daemon's workers) show. */
std::vector<int> threadLastCpus();

} // namespace perfbench

#endif // ONESPEC_PERFBENCH_COMMON_HPP
