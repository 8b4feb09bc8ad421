/** @file The shared spec reader: one table-driven malformed-input suite
 *  over every file kind (each case exits 1 naming its path:line), the
 *  key set each file kind accepts, and parity of the parsed example
 *  files with pinned fingerprints. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/spec_reader.h"
#include "engine/workload_mix.h"
#include "fleet/fleet_spec.h"
#include "serve/arrival.h"
#include "serve/probe_scheduler.h"
#include "serve/serve_spec.h"

namespace g10 {
namespace {

enum class FileKind { Serve, Fleet, Mix, Trace };

const char*
extension(FileKind kind)
{
    switch (kind) {
      case FileKind::Serve: return "serve";
      case FileKind::Fleet: return "fleet";
      case FileKind::Mix: return "mix";
      case FileKind::Trace: return "arr";
    }
    return "?";
}

void
parse(FileKind kind, const std::string& path)
{
    switch (kind) {
      case FileKind::Serve: parseServeFile(path); break;
      case FileKind::Fleet: parseFleetFile(path); break;
      case FileKind::Mix: parseMixFile(path); break;
      case FileKind::Trace: parseArrivalTrace(path); break;
    }
}

/** Escape the POSIX extended-regex metacharacters of @p text. */
std::string
regexEscape(const std::string& text)
{
    std::string out;
    for (char c : text) {
        if (std::string(".[]{}()\\*+?^$|").find(c) != std::string::npos)
            out += '\\';
        out += c;
    }
    return out;
}

/** One malformed input and the diagnostic it must exit 1 with. */
struct BadInput
{
    std::string name;
    FileKind kind;
    std::string body;
    int line;
    std::string message;
};

void
PrintTo(const BadInput& c, std::ostream* os)
{
    *os << c.name;
}

/** A scalar key, a value of the wrong type, a value below its range
 *  (empty: the key has no lower bound), and a valid value. */
struct ScalarKey
{
    std::string key;
    std::string malformed;
    std::string malformedMessage;
    std::string belowRange;
    std::string valid;
};

/** The keys serve and fleet files share. */
const std::vector<ScalarKey> kScenarioScalars = {
    {"scale", "x", "needs an integer", "0", "32"},
    {"seed", "4.5", "needs an integer", "", "7"},
    {"slots", "two", "needs an integer", "0", "2"},
    {"queue", "q", "needs an integer", "-1", "4"},
    {"partition_policy", "elastic", "unknown partition_policy", "",
     "ondemand"},
    {"resize_hysteresis", "x", "needs a number", "-0.1", "0.5"},
    {"admission", "lifo", "unknown admission", "", "sjf"},
    {"starvation_ms", "soon", "needs a number", "", "100"},
    {"slo_factor", "x", "needs a number", "0", "2"},
    {"requests", "x", "needs an integer", "0", "8"},
    {"arrival", "uniform", "unknown arrival", "", "poisson"},
    {"burst_on_ms", "x", "needs a number", "0", "50"},
    {"burst_off_ms", "x", "needs a number", "-1", "50"},
    {"rate_lo", "x", "needs a number", "0", "0.1"},
    {"rate_hi", "x", "needs a number", "-2", "9"},
    {"rate_probes", "x", "needs an integer", "1", "5"},
    {"speculate", "maybe", "must be 'on' or 'off'", "", "off"},
};

/** The platform keys every file kind shares. */
const std::vector<ScalarKey> kPlatformScalars = {
    {"gpu_mem_gb", "x", "needs a number", "0", "20"},
    {"host_mem_gb", "x", "needs a number", "-1", "64"},
    {"ssd_gbps", "x", "needs a number", "-3", "6.4"},
    {"pcie_gbps", "nan", "needs a number", "0", "32"},
};

const std::vector<ScalarKey> kServeScalars = {
    {"max_active", "x", "needs an integer", "-1", "4"},
    {"trace", "", "", "", "requests.arr"},
    {"rates", "5,,10", "empty list item", "0", "auto"},
    {"sweep_cache", "maybe", "must be 'on' or 'off'", "", "on"},
    {"designs", "nope", "unknown design 'nope'", "", "g10"},
};

const std::vector<ScalarKey> kFleetScalars = {
    {"rate", "x", "needs a number", "0", "1.5"},
    {"design", "nope", "unknown design 'nope'", "", "g10"},
    {"placements", "roundrobin", "unknown placement 'roundrobin'", "",
     "jsq"},
};

const std::vector<ScalarKey> kMixScalars = {
    {"scale", "x", "needs an integer", "0", "16"},
    {"sched", "fair", "unknown sched", "", "priority"},
    {"seed", "x", "needs an integer", "", "7"},
    {"isolated", "yes", "needs an integer", "-1", "1"},
};

void
addScalarCases(FileKind kind, const std::vector<ScalarKey>& keys,
               std::vector<BadInput>* out)
{
    const std::string prefix = std::string(extension(kind)) + "_";
    for (const ScalarKey& k : keys) {
        const std::string line = k.key + " = ";
        if (!k.malformed.empty())
            out->push_back({prefix + k.key + "_malformed", kind,
                            line + k.malformed + "\n", 1,
                            k.malformedMessage});
        if (!k.belowRange.empty())
            out->push_back({prefix + k.key + "_below_range", kind,
                            "# below range\n" + line + k.belowRange + "\n",
                            2, k.key + " must be"});
        out->push_back({prefix + k.key + "_duplicate", kind,
                        line + k.valid + "\n" + line + k.valid + "\n", 2,
                        "duplicate key '" + k.key + "'"});
    }
}

/** The grammar errors every file kind shares. */
void
addGrammarCases(FileKind kind, const std::string& payload,
                std::vector<BadInput>* out)
{
    const std::string prefix = std::string(extension(kind)) + "_";
    out->push_back({prefix + "unknown_key", kind, "bogus = 1\n", 1,
                    "unknown key 'bogus' (expected "});
    out->push_back({prefix + "missing_equals", kind, "\n" + payload, 2,
                    "expected 'key = value'"});
    out->push_back({prefix + "missing_value", kind, "# x\n\nscale =\n", 3,
                    kind == FileKind::Trace ? "unknown key 'scale'"
                                            : "'scale =' is missing"});
}

std::vector<BadInput>
allBadInputs()
{
    std::vector<BadInput> out;
    for (FileKind kind : {FileKind::Serve, FileKind::Fleet}) {
        addScalarCases(kind, kScenarioScalars, &out);
        addScalarCases(kind, kPlatformScalars, &out);
        addGrammarCases(kind, "class ResNet152\n", &out);
    }
    addScalarCases(FileKind::Serve, kServeScalars, &out);
    addScalarCases(FileKind::Fleet, kFleetScalars, &out);
    addScalarCases(FileKind::Mix, kMixScalars, &out);
    addScalarCases(FileKind::Mix, kPlatformScalars, &out);
    addGrammarCases(FileKind::Mix, "job BERT\n", &out);
    addGrammarCases(FileKind::Trace, "req 1 BERT\n", &out);

    const FileKind S = FileKind::Serve, F = FileKind::Fleet,
                   M = FileKind::Mix, T = FileKind::Trace;
    std::vector<BadInput> more = {
        // Trailing garbage after a one-value key.
        {"serve_trailing_garbage", S, "scale = 4 extra\n", 1,
         "trailing garbage 'extra'"},
        {"fleet_trailing_garbage", F, "rate = 1 2\n", 1,
         "trailing garbage '2'"},
        {"mix_trailing_garbage", M, "seed = 4 extra\n", 1,
         "trailing garbage 'extra'"},
        // Values outside their bounds; a negative or huge capacity
        // would otherwise be cast to an out-of-range byte count.
        {"serve_gpu_mem_above_range", S, "gpu_mem_gb = 1e7\n", 1,
         "gpu_mem_gb must be in [0.001, 1e+06]"},
        {"fleet_host_mem_nan", F, "host_mem_gb = nan\n", 1,
         "needs a number, got 'nan'"},
        {"mix_gpu_mem_above_range", M, "gpu_mem_gb = 1e7\n", 1,
         "gpu_mem_gb must be in [0.001, 1e+06]"},
        {"fleet_node_gpu_above_range", F, "node = n0 gpu_gb=1e7\n", 1,
         "gpu_gb must be in [0.001, 1e+06]"},
        {"fleet_node_host_above_range", F, "node = n0 host_gb=1e300\n", 1,
         "host_gb must be in (0, 1e+06]"},
        {"serve_starvation_above_range", S, "starvation_ms = 1e300\n", 1,
         "starvation_ms must be in [-1e+12, 1e+12]"},
        {"serve_isolated_not_a_key", S, "isolated = 1\n", 1,
         "unknown key 'isolated'"},
        {"mix_isolated_above_range", M, "isolated = 2\n", 1,
         "isolated must be in [0, 1], got 2"},
        {"serve_slots_overflow", S, "slots = 4294967297\n", 1,
         "slots must be in [1, 2147483647]"},
        // Class attributes.
        {"serve_class_no_model", S, "class =\n", 1,
         "'class =' needs at least a model name"},
        {"serve_class_bad_token", S, "class = BERT batch\n", 1,
         "class attribute 'batch' is not key=value"},
        {"serve_class_unknown_attr", S, "class = BERT turbo=1\n", 1,
         "unknown class attribute 'turbo' (expected batch, iterations, "
         "priority, weight, name)"},
        {"serve_class_batch_malformed", S, "class = BERT batch=1x\n", 1,
         "'batch' needs an integer"},
        {"fleet_class_batch_below", F, "class = BERT batch=0\n", 1,
         "batch must be >= 1"},
        {"serve_class_iterations_below", S,
         "class = BERT iterations=0\n", 1, "iterations must be >= 1"},
        {"serve_class_priority_above", S, "class = BERT priority=1001\n",
         1, "priority must be in [1, 1000]"},
        {"fleet_class_weight_below", F, "class = BERT weight=0\n", 1,
         "weight must be > 0"},
        // Node attributes.
        {"fleet_node_no_name", F, "node =\n", 1,
         "'node =' needs at least a node name"},
        {"fleet_node_bad_token", F, "node = n0 =4\n", 1,
         "node attribute '=4' is not key=value"},
        {"fleet_node_unknown_attr", F, "node = n0 gpu_mem_gb=4\n", 1,
         "unknown node attribute 'gpu_mem_gb'"},
        {"fleet_node_gpu_malformed", F, "node = n0 gpu_gb=big\n", 1,
         "'gpu_gb' needs a number"},
        {"fleet_node_host_below", F, "node = n0 host_gb=0\n", 1,
         "host_gb must be in (0, 1e+06]"},
        {"fleet_node_ssd_below", F, "node = n0 ssd_gbps=-1\n", 1,
         "ssd_gbps must be in [0.001, 1e+06]"},
        {"fleet_node_pcie_below", F, "node = n0 pcie_gbps=0\n", 1,
         "pcie_gbps must be in [0.001, 1e+06]"},
        {"fleet_node_slots_below", F, "node = n0 slots=0\n", 1,
         "slots must be >= 1"},
        {"fleet_node_queue_below", F, "node = n0 queue=-1\n", 1,
         "queue must be >= 0"},
        {"fleet_node_families_empty_item", F,
         "node = n0 families=BERT,\n", 1,
         "'families' needs a comma-separated list"},
        // Job attributes.
        {"mix_job_no_model", M, "job =\n", 1,
         "'job =' needs at least a model name"},
        {"mix_job_bad_token", M, "job = BERT batch=\n", 1,
         "job attribute 'batch=' is not key=value"},
        {"mix_job_unknown_attr", M, "job = BERT turbo=1\n", 1,
         "unknown job attribute 'turbo'"},
        {"mix_job_batch_zero", M, "job = BERT batch=0\n", 1,
         "batch must be >= 1, got 0"},
        {"mix_job_batch_negative", M, "job = BERT batch=-5\n", 1,
         "batch must be >= 1, got -5"},
        {"mix_job_design_unknown", M, "job = BERT design=nope\n", 1,
         "unknown design 'nope'"},
        {"mix_job_priority_below", M, "job = BERT priority=0\n", 1,
         "priority must be in [1, 1000]"},
        {"mix_job_arrival_below", M, "job = BERT arrival_ms=-1\n", 1,
         "arrival_ms must be in [0, 1e+12]"},
        {"mix_job_arrival_above", M, "job = BERT arrival_ms=1e300\n", 1,
         "arrival_ms must be in [0, 1e+12]"},
        {"mix_job_iterations_below", M, "job = BERT iterations=0\n", 1,
         "iterations must be >= 1"},
        {"mix_job_weight_below", M, "job = BERT weight=-1\n", 1,
         "weight must be > 0"},
        // Arrival-trace request lines.
        {"trace_req_no_model", T, "req = 1.0\n", 1,
         "'req =' needs '<arrival_ms> <Model>'"},
        {"trace_req_time_malformed", T, "req = soon BERT\n", 1,
         "'arrival time' needs a number"},
        {"trace_req_time_below", T, "req = -1 BERT\n", 1,
         "arrival time must be in [0, 1e+12]"},
        {"trace_req_bad_token", T, "req = 1 BERT 4\n", 1,
         "request attribute '4' is not key=value"},
        {"trace_req_unknown_attr", T, "req = 1 BERT weight=2\n", 1,
         "unknown request attribute 'weight'"},
        {"trace_req_batch_below", T, "req = 1 BERT batch=0\n", 1,
         "batch must be >= 1"},
        {"trace_req_decreasing", T, "req = 2 BERT\nreq = 1 BERT\n", 2,
         "non-decreasing"},
        // Unknown model names in payload lines.
        {"serve_class_unknown_model", S, "class = AlexNet\n", 1,
         "unknown model 'AlexNet' (expected BERT/ViT/"},
        {"fleet_class_unknown_model", F, "# x\nclass = AlexNet batch=4\n",
         2, "unknown model 'AlexNet'"},
        {"fleet_node_families_unknown_model", F,
         "node = n0 families=BERT,AlexNet\n", 1, "unknown model 'AlexNet'"},
        {"mix_job_unknown_model", M, "job = AlexNet\n", 1,
         "unknown model 'AlexNet'"},
        {"trace_req_unknown_model", T, "req = 1 AlexNet\n", 1,
         "unknown model 'AlexNet'"},
    };
    out.insert(out.end(), more.begin(), more.end());
    return out;
}

class MalformedSpecDeathTest : public ::testing::TestWithParam<BadInput>
{
};

TEST_P(MalformedSpecDeathTest, ExitsWithPathAndLine)
{
    const BadInput& c = GetParam();
    const std::string base = "g10_bad_" + c.name + "_" +
                             std::to_string(::getpid()) + "." +
                             extension(c.kind);
    const std::string path = ::testing::TempDir() + base;
    {
        std::ofstream f(path);
        f << c.body;
    }
    EXPECT_EXIT(parse(c.kind, path), ::testing::ExitedWithCode(1),
                regexEscape(base + ":" + std::to_string(c.line) + ": ") +
                    ".*" + regexEscape(c.message));
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    EveryFileKind, MalformedSpecDeathTest,
    ::testing::ValuesIn(allBadInputs()),
    [](const ::testing::TestParamInfo<BadInput>& info) {
        return info.param.name;
    });

// ---- Accepted key sets ---------------------------------------------

std::set<std::string>
asSet(const std::vector<std::string>& keys)
{
    std::set<std::string> out(keys.begin(), keys.end());
    EXPECT_EQ(out.size(), keys.size()) << "a key is listed twice";
    return out;
}

TEST(SpecKeySets, ServeFileKeys)
{
    EXPECT_EQ(asSet(serveFileKeys()),
              (std::set<std::string>{
                  "class", "scale", "seed", "slots", "partition_policy",
                  "resize_hysteresis", "max_active", "queue", "admission",
                  "starvation_ms", "slo_factor", "requests", "arrival",
                  "burst_on_ms", "burst_off_ms", "trace", "rates",
                  "rate_lo", "rate_hi", "rate_probes", "sweep_cache",
                  "speculate", "designs", "gpu_mem_gb", "host_mem_gb",
                  "ssd_gbps", "pcie_gbps"}));
}

TEST(SpecKeySets, FleetFileKeys)
{
    EXPECT_EQ(asSet(fleetFileKeys()),
              (std::set<std::string>{
                  "class", "node", "scale", "seed", "slots", "queue",
                  "partition_policy", "resize_hysteresis", "admission",
                  "starvation_ms", "slo_factor", "requests", "arrival",
                  "burst_on_ms", "burst_off_ms", "rate", "rate_lo",
                  "rate_hi", "rate_probes", "speculate", "design",
                  "placements", "gpu_mem_gb", "host_mem_gb", "ssd_gbps",
                  "pcie_gbps"}));
}

TEST(SpecKeySets, MixFileKeys)
{
    EXPECT_EQ(asSet(mixFileKeys()),
              (std::set<std::string>{"job", "scale", "sched", "seed",
                                     "isolated", "gpu_mem_gb",
                                     "host_mem_gb", "ssd_gbps",
                                     "pcie_gbps"}));
}

TEST(SpecKeySets, ServeAndFleetShareTheScenarioKeys)
{
    const std::set<std::string> serve = asSet(serveFileKeys());
    const std::set<std::string> fleet = asSet(fleetFileKeys());
    for (const std::string& k : scenarioKeyNames()) {
        EXPECT_TRUE(serve.count(k)) << k;
        EXPECT_TRUE(fleet.count(k)) << k;
    }
    for (const std::string& k : platformKeyNames())
        EXPECT_TRUE(asSet(mixFileKeys()).count(k)) << k;
}

// ---- Parity with the example files ---------------------------------

TEST(SpecParity, ElasticServeFingerprintIsPinned)
{
    ServeSpec spec = parseServeFile(G10_EXAMPLES_DIR "/elastic.serve");
    EXPECT_EQ(fingerprintServeSpec(spec), 0xd6431de6df0742a3ULL);
}

TEST(SpecParity, FleetNodeFingerprintsArePinned)
{
    const std::uint64_t pinned[] = {
        0xba0b43af743ab869ULL, 0xd829d18fd8adaf05ULL,
        0xe5e7eb1e97b56e45ULL, 0x138a9b3e3fdd8a67ULL};
    FleetSpec spec = parseFleetFile(G10_EXAMPLES_DIR "/fleet.serve");
    ASSERT_EQ(spec.nodes.size(), 4u);
    for (std::size_t i = 0; i < spec.nodes.size(); ++i)
        EXPECT_EQ(fingerprintServeSpec(spec.nodeServeSpec(i)), pinned[i])
            << spec.nodes[i].name;
    // The demo fleet is the example file's fleet.
    FleetSpec demo = demoFleetSpec(64);
    for (std::size_t i = 0; i < demo.nodes.size(); ++i)
        EXPECT_EQ(fingerprintServeSpec(demo.nodeServeSpec(i)), pinned[i])
            << demo.nodes[i].name;
}

TEST(SpecParity, DemoServeFingerprintIsPinned)
{
    EXPECT_EQ(fingerprintServeSpec(demoServeSpec(32)),
              0xf54f82488062831cULL);
}

TEST(SpecParity, PlatformKeysAcceptTheirBounds)
{
    // The bounds are inclusive: the extremes parse, and host memory
    // may be zero (the no-host-staging platform).
    const std::string path = ::testing::TempDir() + "g10_bounds_" +
                             std::to_string(::getpid()) + ".mix";
    {
        std::ofstream f(path);
        f << "gpu_mem_gb = 1e6\nhost_mem_gb = 0\nssd_gbps = 0.001\n"
             "pcie_gbps = 1e6\njob = BERT\n";
    }
    WorkloadMix mix = parseMixFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(mix.sys.gpuMemBytes, static_cast<Bytes>(1e6 * 1e9));
    EXPECT_EQ(mix.sys.hostMemBytes, 0u);
    EXPECT_DOUBLE_EQ(mix.sys.ssdReadGBps, 0.001);
    EXPECT_DOUBLE_EQ(mix.sys.pcieGBps, 1e6);
}

TEST(SpecEntryDeath, CliValuesNameTheFlag)
{
    SpecEntry e;
    e.key = "--workers";
    e.value = "0";
    EXPECT_EXIT(e.integer(1), ::testing::ExitedWithCode(1),
                "--workers must be >= 1, got 0");
    e.key = "--speculate";
    e.value = "maybe";
    EXPECT_EXIT(e.onOff(), ::testing::ExitedWithCode(1),
                "--speculate must be 'on' or 'off'");
}

}  // namespace
}  // namespace g10
