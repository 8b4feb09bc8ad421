#include "arrival.h"

#include <climits>
#include <cmath>

#include "common/logging.h"
#include "common/spec_reader.h"

namespace g10 {

const char*
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Bursty: return "bursty";
      case ArrivalKind::Trace: return "trace";
    }
    return "?";
}

bool
arrivalKindFromName(const std::string& name, ArrivalKind* out)
{
    if (name == "poisson")
        *out = ArrivalKind::Poisson;
    else if (name == "bursty")
        *out = ArrivalKind::Bursty;
    else if (name == "trace")
        *out = ArrivalKind::Trace;
    else
        return false;
    return true;
}

double
unitInterval(std::mt19937_64& engine)
{
    // Top 53 bits of one draw, shifted into (0, 1]: the +1 excludes 0
    // so -log(u) is always finite. mt19937_64's output sequence is
    // fully specified by the standard, so this is portable.
    return static_cast<double>((engine() >> 11) + 1) * 0x1p-53;
}

std::vector<TimeNs>
generateArrivals(const ArrivalSpec& spec, double rate_per_sec,
                 int count, std::uint64_t seed)
{
    if (spec.kind == ArrivalKind::Trace)
        fatal("generateArrivals: trace arrivals replay the parsed "
              "file; they are not generated");
    if (rate_per_sec <= 0.0)
        fatal("arrival rate must be > 0, got %g", rate_per_sec);
    if (count < 1)
        fatal("arrival count must be >= 1, got %d", count);
    if (spec.kind == ArrivalKind::Bursty &&
        (spec.burstOnSec <= 0.0 || spec.burstOffSec < 0.0))
        fatal("bursty arrivals need burst_on > 0 and burst_off >= 0");

    std::mt19937_64 engine(seed);
    std::vector<TimeNs> out;
    out.reserve(static_cast<std::size_t>(count));

    // Exponential inter-arrival gaps accumulate on the process's
    // *active* clock; Bursty then maps active time onto the wall
    // clock by inserting the OFF windows.
    double active_sec = 0.0;
    for (int i = 0; i < count; ++i) {
        active_sec += -std::log(unitInterval(engine)) / rate_per_sec;
        double wall_sec = active_sec;
        if (spec.kind == ArrivalKind::Bursty) {
            double cycles = std::floor(active_sec / spec.burstOnSec);
            wall_sec = cycles * (spec.burstOnSec + spec.burstOffSec) +
                       (active_sec - cycles * spec.burstOnSec);
        }
        out.push_back(static_cast<TimeNs>(wall_sec * 1e9));
    }
    return out;
}

namespace {

const SpecKey<TraceRequest> kRequestAttributes[] = {
    {"batch",
     [](const SpecEntry& e, TraceRequest* r) {
         r->batchSize = static_cast<int>(e.integer(1, INT_MAX));
     }},
    {"iterations",
     [](const SpecEntry& e, TraceRequest* r) {
         r->iterations = static_cast<int>(e.integer(1, INT_MAX));
     }},
    {"priority",
     [](const SpecEntry& e, TraceRequest* r) {
         r->priority = static_cast<int>(e.integer(1, 1000));
     }},
};

}  // namespace

std::vector<TraceRequest>
parseArrivalTrace(const std::string& path)
{
    SpecReader in(path, "arrival trace", {"req"}, {"req"});
    std::vector<TraceRequest> out;
    while (in.next()) {
        const SpecEntry& e = in.entry();
        std::vector<std::string> words;
        auto attrs = e.attributes(2, &words, "'<arrival_ms> <Model>'",
                                  "request");
        SpecEntry time = e;
        time.key = "arrival time";
        time.value = words[0];

        TraceRequest req;
        req.arrivalNs = time.millis(0.0);
        req.model = modelKindAt(e, words[1]);
        applyAttributes(attrs, kRequestAttributes, &req);
        if (!out.empty() && req.arrivalNs < out.back().arrivalNs)
            e.fail("arrival times must be non-decreasing");
        out.push_back(req);
    }

    if (out.empty())
        fatal("%s: arrival trace defines no requests", path.c_str());
    return out;
}

}  // namespace g10
