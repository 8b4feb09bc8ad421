#include "workload_mix.h"

#include <climits>

#include "common/logging.h"
#include "common/spec_reader.h"

namespace g10 {

const char*
mixSchedName(MixSched sched)
{
    switch (sched) {
      case MixSched::RoundRobin: return "round-robin";
      case MixSched::Priority: return "priority";
    }
    return "?";
}

namespace {

bool
mixSchedFromName(const std::string& name, MixSched* out)
{
    if (name == "roundrobin" || name == "round-robin")
        *out = MixSched::RoundRobin;
    else if (name == "priority")
        *out = MixSched::Priority;
    else
        return false;
    return true;
}

const SpecKey<JobSpec> kJobAttributes[] = {
    {"batch",
     [](const SpecEntry& e, JobSpec* j) {
         j->batchSize = static_cast<int>(e.integer(1, INT_MAX));
     }},
    {"design",
     [](const SpecEntry& e, JobSpec* j) {
         if (!PolicyRegistry::instance().contains(e.value))
             e.fail("unknown design '%s' (registered: %s)",
                    e.value.c_str(),
                    PolicyRegistry::instance().knownNames().c_str());
         j->design = e.value;
     }},
    {"priority",
     [](const SpecEntry& e, JobSpec* j) {
         j->priority = static_cast<int>(e.integer(1, 1000));
     }},
    {"arrival_ms",
     [](const SpecEntry& e, JobSpec* j) {
         j->arrivalNs = e.millis(0.0);
     }},
    {"iterations",
     [](const SpecEntry& e, JobSpec* j) {
         j->iterations = static_cast<int>(e.integer(1, INT_MAX));
     }},
    {"weight",
     [](const SpecEntry& e, JobSpec* j) { j->memWeight = e.positive(); }},
    {"name", [](const SpecEntry& e, JobSpec* j) { j->name = e.value; }},
};

const SpecKey<WorkloadMix> kMixKeys[] = {
    {"job",
     [](const SpecEntry& e, WorkloadMix* m) {
         std::vector<std::string> words;
         auto attrs =
             e.attributes(1, &words, "at least a model name", "job");
         JobSpec job;
         job.model = modelKindAt(e, words[0]);
         applyAttributes(attrs, kJobAttributes, &job);
         if (job.batchSize == 0)
             job.batchSize = paperBatchSize(job.model);
         m->jobs.push_back(job);
     }},
    {"scale",
     [](const SpecEntry& e, WorkloadMix* m) {
         m->scaleDown = static_cast<unsigned>(e.integer(1, UINT_MAX));
     }},
    {"sched",
     [](const SpecEntry& e, WorkloadMix* m) {
         m->sched = e.named(mixSchedFromName, "roundrobin | priority");
     }},
    {"seed",
     [](const SpecEntry& e, WorkloadMix* m) {
         m->seed = static_cast<std::uint64_t>(e.integer());
     }},
    {"isolated",
     [](const SpecEntry& e, WorkloadMix* m) {
         m->isolatedBaseline = e.integer(0, 1) == 1;
     }},
};

}  // namespace

const std::vector<std::string>&
mixFileKeys()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        appendKeyNames(kMixKeys, &out);
        for (const std::string& k : platformKeyNames())
            out.push_back(k);
        return out;
    }();
    return names;
}

WorkloadMix
parseMixFile(const std::string& path)
{
    SpecReader in(path, "mix file", mixFileKeys(), {"job"});
    WorkloadMix mix;
    while (in.next())
        if (!applySpecKey(kMixKeys, in.entry(), &mix))
            applyPlatformKey(in.entry(), &mix.sys);

    if (mix.jobs.empty())
        fatal("%s: mix defines no jobs", path.c_str());
    return mix;
}

}  // namespace g10
