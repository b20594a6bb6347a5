#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
processCpuNs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ns = [](const timeval &tv) {
        return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
               static_cast<uint64_t>(tv.tv_usec) * 1'000ull;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

uint64_t
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string tag;
    uint64_t v[8] = {};
    if (!(in >> tag) || tag != "cpu")
        return 0;
    // user nice system idle iowait irq softirq steal
    for (uint64_t &x : v)
        if (!(in >> x))
            return 0;
    return v[7];
}

int
currentCpu()
{
    return sched_getcpu();
}

uint64_t
Rng::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
Rng::below(uint64_t n)
{
    return n ? next() % n : 0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

uint64_t
Tracer::begin(const char *name, uint64_t parent, uint64_t job)
{
    if (!enabled_.load(std::memory_order_relaxed))
        return 0;
    uint64_t start = nowNs();
    std::lock_guard<std::mutex> g(mu_);
    uint64_t id = nextId_++;
    Span &s = open_[id];
    s.id = id;
    s.parent = parent;
    s.job = job;
    s.name = name;
    s.start = start;
    return id;
}

void
Tracer::end(uint64_t id, uint64_t count)
{
    if (id == 0)
        return;
    uint64_t end = nowNs();
    int cpu = currentCpu();
    std::lock_guard<std::mutex> g(mu_);
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    Span s = it->second;
    open_.erase(it);
    s.end = end;
    s.count = count;
    s.cpu = cpu;
    closed_.push_back(s);
}

uint64_t
Tracer::add(const char *name, uint64_t parent, uint64_t job,
            uint64_t start, uint64_t end, uint64_t count)
{
    if (!enabled_.load(std::memory_order_relaxed))
        return 0;
    std::lock_guard<std::mutex> g(mu_);
    Span s;
    s.id = nextId_++;
    s.parent = parent;
    s.job = job;
    s.name = name;
    s.start = start;
    s.end = std::max(start, end);
    s.count = count;
    closed_.push_back(s);
    return s.id;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> g(mu_);
    return closed_;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::vector<Span> all = spans();
    std::ofstream out(path);
    if (!out)
        return false;
    uint64_t t0 = ~uint64_t{0};
    for (const Span &s : all)
        t0 = std::min(t0, s.start);
    out << "{\"traceEvents\":[";
    bool first = true;
    char buf[512];
    for (const Span &s : all) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                      ",\"job\":%" PRIu64 ",\"count\":%" PRIu64 "}}",
                      first ? "" : ",", s.name, s.cpu,
                      static_cast<double>(s.start - t0) / 1e3,
                      static_cast<double>(s.end - s.start) / 1e3, s.id,
                      s.parent, s.job, s.count);
        out << buf;
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

std::map<std::string, SpanTotals>
spanTotals(const std::vector<Span> &spans)
{
    // Children of each span, as intervals, so self time subtracts the
    // union of what the children covered (fleet children overlap).
    std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> kids;
    for (const Span &s : spans)
        if (s.parent)
            kids[s.parent].push_back({s.start, s.end});
    std::map<std::string, SpanTotals> out;
    for (const Span &s : spans) {
        uint64_t wall = s.end - s.start;
        uint64_t covered = 0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            uint64_t cs = 0, ce = 0;
            bool have = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start);
                b = std::min(b, s.end);
                if (b <= a)
                    continue;
                if (have && a <= ce) {
                    ce = std::max(ce, b);
                } else {
                    if (have)
                        covered += ce - cs;
                    cs = a;
                    ce = b;
                    have = true;
                }
            }
            if (have)
                covered += ce - cs;
        }
        SpanTotals &t = out[s.name];
        t.selfNs += wall - std::min(wall, covered);
        t.count += s.count;
    }
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        switch (c) {
          case '"': o += "\\\""; break;
          case '\\': o += "\\\\"; break;
          case '\n': o += "\\n"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char b[8];
                std::snprintf(b, sizeof(b), "\\u%04x", c);
                o += b;
            } else {
                o += c;
            }
        }
    }
    return o;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    for (auto &m : metrics_) {
        if (m.first == name) {
            m.second = {value, unit};
            return;
        }
    }
    metrics_.push_back({name, {value, unit}});
}

void
Report::field(const std::string &name, const std::string &json)
{
    fields_.push_back({name, json});
}

bool
Report::has(const std::string &name) const
{
    for (const auto &m : metrics_)
        if (m.first == name)
            return true;
    return false;
}

double
Report::value(const std::string &name) const
{
    for (const auto &m : metrics_)
        if (m.first == name)
            return m.second.first;
    return 0.0;
}

static std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char b[64];
    std::snprintf(b, sizeof(b), "%.17g", v);
    return b;
}

std::string
Report::metricsJson() const
{
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < metrics_.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(metrics_[i].first)
           << "\": " << number(metrics_[i].second.first);
    os << "}";
    return os.str();
}

std::string
Report::fieldsJson() const
{
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < fields_.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(fields_[i].first)
           << "\": " << fields_[i].second;
    os << "}";
    return os.str();
}

std::string
Report::resultJson(bool correct, uint64_t attempted, uint64_t failed) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const auto &m = metrics_[i];
        os << (i ? ", " : "") << "\"" << jsonEscape(m.first)
           << "\": {\"value\": " << number(m.second.first)
           << ", \"unit\": \"" << jsonEscape(m.second.second) << "\"}";
    }
    os << "}}";
    return os.str();
}

void
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
}

std::string
Digest::hex() const
{
    char b[32];
    std::snprintf(b, sizeof(b), "%016" PRIx64, h_);
    return b;
}

std::string
cpuHistogramJson(const std::vector<int> &cpus)
{
    std::map<int, uint64_t> h;
    for (int c : cpus)
        ++h[c];
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (auto [c, n] : h) {
        os << (first ? "" : ", ") << "\"" << c << "\": " << n;
        first = false;
    }
    os << "}";
    return os.str();
}

std::vector<int>
threadLastCpus()
{
    std::vector<int> cpus;
    std::error_code ec;
    for (const auto &e :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
        std::ifstream in(e.path() / "stat");
        std::string line;
        if (!std::getline(in, line))
            continue;
        // Fields after the parenthesised command name start at field 3
        // (state); "processor" is field 39.
        size_t close = line.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(line.substr(close + 1));
        std::string tok;
        for (int field = 3; field <= 39 && (rest >> tok); ++field)
            if (field == 39)
                cpus.push_back(std::atoi(tok.c_str()));
    }
    return cpus;
}

} // namespace perfbench
