/**
 * @file
 * The benchmark's workloads.  Each one builds its inputs from the seed
 * (the program under test sees only the generated jobs), sets up once
 * per repetition, runs one measured phase, and -- in a traced run --
 * derives its per-layer metrics from the spans the phase recorded.
 */

#ifndef ONESPEC_PERFBENCH_WORKLOAD_HPP
#define ONESPEC_PERFBENCH_WORKLOAD_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adl/spec.hpp"
#include "common.hpp"
#include "parallel/fleet.hpp"
#include "runtime/program.hpp"

namespace perfbench {

struct Options
{
    uint64_t seed = 1;
    unsigned seconds = 10;  ///< intended length of the measured phase
    unsigned threads = 1;   ///< pool width: one worker per host CPU
    std::string workDir;    ///< scratch space inside the checkout
};

/** What one measured phase produced. */
struct PhaseResult
{
    uint64_t wallNs = 0;
    uint64_t cpuNs = 0;        ///< process user+sys over the phase
    uint64_t instrs = 0;       ///< simulated instructions retired
    std::vector<double> jobMs; ///< latency of every verified job
    uint64_t attempted = 0;
    uint64_t failed = 0;       ///< rejected, quarantined or mismatched
    uint64_t mismatched = 0;   ///< finished with a wrong result
    std::vector<std::string> failures; ///< first few reasons
    std::string digest;        ///< simulated-statistics digest (hex)
    std::vector<int> cpus;     ///< CPU each job finished on
    uint64_t stealTicks = 0;   ///< /proc/stat steal during the phase

    void fail(const std::string &why, bool mismatch);
};

/** Expected outcome of one program, run to halt on BlockMinNo. */
struct Reference
{
    uint64_t instrs = 0;
    uint64_t stateHash = 0;
    std::string output;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Set up from scratch (the previous set-up is torn down first,
     *  untimed); returns the seconds the set-up itself took. */
    virtual double setup() = 0;

    /** The measured phase. */
    virtual PhaseResult run() = 0;

    /** Traced runs: per-layer metrics from the traced phase @p r and the
     *  spans it recorded, plus any twin runs the workload needs. */
    virtual void layerMetrics(const PhaseResult &r, Report &rep) = 0;

    /** Diagnostic fields (deck shape, rates); never metrics. */
    virtual void describe(Report &rep) const = 0;
};

std::unique_ptr<Workload> makeTimingOrgs(const Options &o);
std::unique_ptr<Workload> makeCkptSampling(const Options &o);
std::unique_ptr<Workload> makeServicePreempt(const Options &o);

/** Time every timing_orgs cell once per organisation and print a
 *  parameter table rescaled to the target job time. */
void calibrateTimingOrgs();

// ---- shared set-up steps (each records its own span) ----

/** The three shipped ISAs, loaded through loadIsa(). */
std::map<std::string, std::unique_ptr<onespec::Spec>>
loadSpecs(uint64_t parent_span);

/** Build kernel @p kernel at @p param for @p spec. */
onespec::Program buildProgram(const onespec::Spec &spec,
                              const std::string &kernel, uint64_t param);

/**
 * Run every program to halt on BlockMinNo as one fleet batch and check
 * its output against goldenOutput(); throws std::runtime_error if a
 * reference itself is wrong (the set-up cannot vouch for anything then).
 */
struct RefInput
{
    const onespec::Spec *spec = nullptr;
    const onespec::Program *program = nullptr;
    std::string kernel;
    uint64_t param = 0;
};
std::vector<Reference> computeReferences(onespec::parallel::SimFleet &fleet,
                                         const std::vector<RefInput> &in,
                                         uint64_t parent_span);

/** A deck of @p n jobs over @p cells kinds of job: seeded permutations
 *  of all kinds, repeated, so every run has the same mix. */
std::vector<size_t> seededDeck(size_t cells, size_t n, Rng &rng);

/** How a kernel's dynamic instruction count grows with its parameter:
 *  p^exponent (matmul 3, shellsort ~1.3, the rest linear). */
double kernelExponent(const std::string &kernel);

/** Scale a base kernel parameter by a seeded jitter of +-@p frac in
 *  dynamic instructions. */
uint64_t jitterParam(const std::string &kernel, uint64_t base, Rng &rng,
                     double frac);

} // namespace perfbench

#endif // ONESPEC_PERFBENCH_WORKLOAD_HPP
