#include "perf_util.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace thermctl::perf
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(nowNs());
#endif
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

std::size_t
Tracer::begin(std::string name, std::uint64_t id, std::size_t parent)
{
    const std::int64_t t = nowNs();
    return record(std::move(name), id, parent, t, t);
}

void
Tracer::end(std::size_t span)
{
    spans_[span].end_ns = nowNs();
}

std::size_t
Tracer::record(std::string name, std::uint64_t id, std::size_t parent,
               std::int64_t start_ns, std::int64_t end_ns)
{
    spans_.push_back({std::move(name), id, parent, start_ns, end_ns});
    return spans_.size() - 1;
}

void
Tracer::counters(std::string name, std::uint64_t id,
                 std::vector<Metric> values)
{
    counters_.push_back({std::move(name), id, std::move(values)});
}

std::string
formatNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeMetricsJson(std::ostream &out, const std::vector<Metric> &ms)
{
    out << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
            << formatNumber(ms[i].value) << ", \"unit\": \"" << ms[i].unit
            << "\"}";
    }
    out << "}";
}

void
Tracer::write(const std::string &path, const std::string &workload,
              const std::vector<Metric> &summary) const
{
    std::ofstream out(path);
    if (!out)
        return;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"workload\": \"" << workload << "\",\n\"summary\": ";
    writeMetricsJson(out, summary);
    out << ",\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"i\": " << i << ", \"name\": \""
            << s.name << "\", \"id\": " << s.id << ", \"parent\": "
            << (s.parent == kNoParent ? -1
                                      : static_cast<long long>(s.parent))
            << ", \"start_ns\": " << (s.start_ns - t0)
            << ", \"end_ns\": " << (s.end_ns - t0) << "}";
    }
    out << "\n],\n\"counters\": [\n";
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        const Counters &c = counters_[i];
        out << (i ? ",\n" : "") << "{\"name\": \"" << c.name
            << "\", \"id\": " << c.id << ", \"values\": ";
        writeMetricsJson(out, c.values);
        out << "}";
    }
    out << "\n]}\n";
}

bool
lookupGolden(const std::string &path, std::string_view mode,
             std::string_view workload, std::uint64_t seed,
             std::uint64_t &out)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string m, w, hex;
        std::uint64_t s = 0;
        if (!(fields >> m >> w >> s >> hex) || m != mode || w != workload
            || s != seed)
            continue;
        out = std::stoull(hex, nullptr, 16);
        return true;
    }
    return false;
}

double
peakRssMiB()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return 1;
}

double
medianSetupSeconds(unsigned reps, const std::function<void()> &setup)
{
    std::vector<double> times;
    for (unsigned i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        setup();
        times.push_back(secondsSince(t0));
    }
    return median(times);
}

} // namespace thermctl::perf
