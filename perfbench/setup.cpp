#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "isa/isa.hpp"
#include "workload.hpp"
#include "workload/kernels.hpp"

namespace perfbench {

using namespace onespec;

void
PhaseResult::fail(const std::string &why, bool mismatch)
{
    ++failed;
    if (mismatch)
        ++mismatched;
    if (failures.size() < 8)
        failures.push_back(why);
}

std::map<std::string, std::unique_ptr<Spec>>
loadSpecs(uint64_t parent_span)
{
    std::map<std::string, std::unique_ptr<Spec>> specs;
    for (const std::string &isa : shippedIsas()) {
        SpanScope s("isa.load", parent_span, 0);
        specs[isa] = loadIsa(isa);
    }
    return specs;
}

Program
buildProgram(const Spec &spec, const std::string &kernel, uint64_t param)
{
    auto b = makeBuilder(spec);
    return buildKernel(*b, kernel, param);
}

std::vector<Reference>
computeReferences(parallel::SimFleet &fleet, const std::vector<RefInput> &in,
                  uint64_t parent_span)
{
    SpanScope s("setup.reference", parent_span, 0);
    std::vector<parallel::FleetJob> jobs(in.size());
    for (size_t i = 0; i < in.size(); ++i) {
        jobs[i].spec = in[i].spec;
        jobs[i].program = in[i].program;
        jobs[i].buildset = "BlockMinNo";
        jobs[i].name = in[i].kernel;
    }
    parallel::FleetReport rep = fleet.run(jobs);
    std::vector<Reference> out(in.size());
    uint64_t instrs = 0;
    for (size_t i = 0; i < in.size(); ++i) {
        const parallel::FleetResult &r = rep.results[i];
        const std::string name = in[i].spec->props.name + "/" +
                                 in[i].kernel + "@" +
                                 std::to_string(in[i].param);
        if (r.quarantined || r.run.status != RunStatus::Halted ||
            r.output != goldenOutput(in[i].kernel, in[i].param))
            throw std::runtime_error("reference run of " + name +
                                     " is wrong: " + r.error);
        out[i] = {r.run.instrs, r.stateHash, r.output};
        instrs += r.run.instrs;
    }
    s.setCount(instrs);
    return out;
}

std::vector<size_t>
seededDeck(size_t cells, size_t n, Rng &rng)
{
    std::vector<size_t> deck;
    std::vector<size_t> perm(cells);
    for (size_t i = 0; i < cells; ++i)
        perm[i] = i;
    while (deck.size() < n) {
        for (size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1], perm[rng.below(i)]);
        for (size_t i = 0; i < perm.size() && deck.size() < n; ++i)
            deck.push_back(perm[i]);
    }
    return deck;
}

double
kernelExponent(const std::string &kernel)
{
    return kernel == "matmul" ? 3.0 : kernel == "shellsort" ? 1.3 : 1.0;
}

uint64_t
jitterParam(const std::string &kernel, uint64_t base, Rng &rng, double frac)
{
    double scale = 1.0 + frac * (2.0 * rng.uniform() - 1.0);
    double p = static_cast<double>(base) *
               std::pow(scale, 1.0 / kernelExponent(kernel));
    return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(p)));
}

} // namespace perfbench
