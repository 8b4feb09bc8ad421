#include "serve_spec.h"

#include <climits>

#include "common/logging.h"
#include "common/spec_reader.h"
#include "policies/registry.h"

namespace g10 {

ServeJobClass
resolvedClass(ServeJobClass cls)
{
    if (cls.batchSize <= 0)
        cls.batchSize = paperBatchSize(cls.model);
    if (cls.name.empty())
        cls.name = std::string(modelName(cls.model)) + "-" +
                   std::to_string(cls.batchSize);
    return cls;
}

namespace {

const SpecKey<ServeJobClass> kClassAttributes[] = {
    {"batch",
     [](const SpecEntry& e, ServeJobClass* c) {
         c->batchSize = static_cast<int>(e.integer(1, INT_MAX));
     }},
    {"iterations",
     [](const SpecEntry& e, ServeJobClass* c) {
         c->iterations = static_cast<int>(e.integer(1, INT_MAX));
     }},
    {"priority",
     [](const SpecEntry& e, ServeJobClass* c) {
         c->priority = static_cast<int>(e.integer(1, 1000));
     }},
    {"weight",
     [](const SpecEntry& e, ServeJobClass* c) {
         c->weight = e.positive();
     }},
    {"name", [](const SpecEntry& e, ServeJobClass* c) { c->name = e.value; }},
};

/** The keys serve and fleet files share (platform keys aside). */
const SpecKey<ServeScenario> kScenarioKeys[] = {
    {"class",
     [](const SpecEntry& e, ServeScenario* s) {
         std::vector<std::string> words;
         auto attrs = e.attributes(1, &words, "at least a model name",
                                   "class");
         ServeJobClass cls;
         cls.model = modelKindAt(e, words[0]);
         applyAttributes(attrs, kClassAttributes, &cls);
         s->classes.push_back(resolvedClass(cls));
     }},
    {"scale",
     [](const SpecEntry& e, ServeScenario* s) {
         s->scaleDown = static_cast<unsigned>(e.integer(1, UINT_MAX));
     }},
    {"seed",
     [](const SpecEntry& e, ServeScenario* s) {
         s->seed = static_cast<std::uint64_t>(e.integer());
     }},
    {"slots",
     [](const SpecEntry& e, ServeScenario* s) {
         s->slots = static_cast<int>(e.integer(1, INT_MAX));
     }},
    {"queue",
     [](const SpecEntry& e, ServeScenario* s) {
         s->queueCapacity = static_cast<std::size_t>(e.integer(0));
     }},
    {"partition_policy",
     [](const SpecEntry& e, ServeScenario* s) {
         s->partitionPolicy = e.named(partitionPolicyFromName,
                                      "static | proportional | ondemand");
     }},
    {"resize_hysteresis",
     [](const SpecEntry& e, ServeScenario* s) {
         s->resizeHysteresis = e.number();
         if (s->resizeHysteresis < 0.0 || s->resizeHysteresis >= 1.0)
             e.fail("resize_hysteresis must be in [0, 1), got %g",
                    s->resizeHysteresis);
     }},
    {"admission",
     [](const SpecEntry& e, ServeScenario* s) {
         s->admit = e.named(admitPolicyFromName, "fifo | sjf | priority");
     }},
    {"starvation_ms",
     [](const SpecEntry& e, ServeScenario* s) {
         s->starvationNs = e.millis(-kMaxSpecMillis);
     }},
    {"slo_factor",
     [](const SpecEntry& e, ServeScenario* s) {
         s->sloFactor = e.positive();
     }},
    {"requests",
     [](const SpecEntry& e, ServeScenario* s) {
         s->requests = static_cast<int>(e.integer(1, INT_MAX));
     }},
    {"arrival",
     [](const SpecEntry& e, ServeScenario* s) {
         s->arrival.kind =
             e.named(arrivalKindFromName, "poisson | bursty | trace");
     }},
    {"burst_on_ms",
     [](const SpecEntry& e, ServeScenario* s) {
         s->arrival.burstOnSec = e.positive() / 1e3;
     }},
    {"burst_off_ms",
     [](const SpecEntry& e, ServeScenario* s) {
         s->arrival.burstOffSec = e.number(0.0) / 1e3;
     }},
    {"rate_lo",
     [](const SpecEntry& e, ServeScenario* s) {
         s->rateLo = e.positive();
     }},
    {"rate_hi",
     [](const SpecEntry& e, ServeScenario* s) {
         s->rateHi = e.positive();
     }},
    {"rate_probes",
     [](const SpecEntry& e, ServeScenario* s) {
         s->rateProbes = static_cast<int>(e.integer(2, INT_MAX));
     }},
    {"speculate",
     [](const SpecEntry& e, ServeScenario* s) {
         s->speculativeProbes = e.onOff();
     }},
};

/** The keys only serve files accept. */
const SpecKey<ServeSpec> kServeKeys[] = {
    {"max_active",
     [](const SpecEntry& e, ServeSpec* s) {
         s->maxActive = static_cast<int>(e.integer(0, INT_MAX));
     }},
    {"trace",
     [](const SpecEntry& e, ServeSpec* s) {
         s->arrival.tracePath = e.value;
     }},
    {"rates",
     [](const SpecEntry& e, ServeSpec* s) {
         if (e.value == "auto") {
             s->ratesAuto = true;
             return;
         }
         for (const SpecEntry& item : e.list())
             s->rates.push_back(item.positive());
     }},
    {"sweep_cache",
     [](const SpecEntry& e, ServeSpec* s) {
         s->sweepPlanCache = e.onOff();
     }},
    {"designs",
     [](const SpecEntry& e, ServeSpec* s) {
         for (const SpecEntry& item : e.list()) {
             if (!PolicyRegistry::instance().contains(item.value))
                 item.fail("unknown design '%s' (registered: %s)",
                           item.value.c_str(),
                           PolicyRegistry::instance().knownNames().c_str());
             s->designs.push_back(item.value);
         }
     }},
};

}  // namespace

bool
applyScenarioKey(const SpecEntry& entry, ServeScenario* out)
{
    return applySpecKey(kScenarioKeys, entry, out) ||
           applyPlatformKey(entry, &out->sys);
}

const std::vector<std::string>&
scenarioKeyNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        appendKeyNames(kScenarioKeys, &out);
        for (const std::string& k : platformKeyNames())
            out.push_back(k);
        return out;
    }();
    return names;
}

const std::vector<std::string>&
serveFileKeys()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out = scenarioKeyNames();
        appendKeyNames(kServeKeys, &out);
        return out;
    }();
    return names;
}

const char*
partitionPolicyName(PartitionPolicy policy)
{
    switch (policy) {
      case PartitionPolicy::Static:
        return "static";
      case PartitionPolicy::Proportional:
        return "proportional";
      case PartitionPolicy::OnDemand:
        return "ondemand";
    }
    return "?";
}

bool
partitionPolicyFromName(const std::string& name, PartitionPolicy* out)
{
    if (name == "static")
        *out = PartitionPolicy::Static;
    else if (name == "proportional")
        *out = PartitionPolicy::Proportional;
    else if (name == "ondemand")
        *out = PartitionPolicy::OnDemand;
    else
        return false;
    return true;
}

ServeSpec
parseServeFile(const std::string& path)
{
    SpecReader in(path, "serve file", serveFileKeys(), {"class"});
    ServeSpec spec;
    while (in.next())
        if (!applySpecKey(kServeKeys, in.entry(), &spec))
            applyScenarioKey(in.entry(), &spec);

    // Cross-key consistency.
    if (spec.rates.empty() && !spec.ratesAuto)
        fatal("%s: serve file needs 'rates = ...'", path.c_str());
    if (spec.maxActive > 0 && spec.maxActive < spec.slots)
        fatal("%s: max_active (%d) must be >= slots (%d)",
              path.c_str(), spec.maxActive, spec.slots);
    if (spec.rateLo > 0.0 && spec.rateHi > 0.0 &&
        spec.rateHi < spec.rateLo)
        fatal("%s: rate_hi must be >= rate_lo", path.c_str());
    if (spec.designs.empty())
        fatal("%s: serve file needs 'designs = ...'", path.c_str());
    if (spec.arrival.kind == ArrivalKind::Trace) {
        if (!in.seen("trace"))
            fatal("%s: 'arrival = trace' needs 'trace = <file>'",
                  path.c_str());
        if (!spec.classes.empty())
            fatal("%s: 'class =' lines are only for poisson/bursty "
                  "arrivals (trace files carry their own requests)",
                  path.c_str());
    } else if (spec.classes.empty()) {
        fatal("%s: serve file defines no job classes", path.c_str());
    }
    return spec;
}

std::vector<ServeJobClass>
demoServeClasses()
{
    ServeJobClass big;
    big.model = ModelKind::ResNet152;
    big.batchSize = 512;
    big.weight = 1.0;
    ServeJobClass small;
    small.model = ModelKind::ResNet152;
    small.batchSize = 256;
    small.weight = 2.0;
    ServeJobClass bert;
    bert.model = ModelKind::BertBase;
    bert.weight = 1.0;
    return {resolvedClass(big), resolvedClass(small), resolvedClass(bert)};
}

ServeSpec
demoServeSpec(unsigned scale)
{
    ServeSpec spec;
    spec.scaleDown = scale;
    spec.slots = 2;
    spec.queueCapacity = 4;
    spec.requests = 12;
    spec.rates = {0.2, 0.6, 1.8};
    spec.designs = {"baseuvm", "deepum", "g10"};
    spec.classes = demoServeClasses();
    return spec;
}

}  // namespace g10
