#include "spec_reader.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "common/logging.h"
#include "common/parse_util.h"

namespace g10 {

void
SpecEntry::fail(const char* fmt, ...) const
{
    char msg[1024];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(msg, sizeof(msg), fmt, args);
    va_end(args);
    if (path.empty())
        fatal("%s", msg);
    fatal("%s:%zu: %s", path.c_str(), line, msg);
}

long long
SpecEntry::integer(long long lo, long long hi) const
{
    long long v = 0;
    if (!parseIntStrict(value, &v))
        fail("'%s' needs an integer, got '%s'", key.c_str(),
             value.c_str());
    if (v >= lo && v <= hi)
        return v;
    // A bound at a type limit only guards overflow: name the real one.
    if (v < lo && hi >= INT_MAX)
        fail("%s must be >= %lld, got %lld", key.c_str(), lo, v);
    fail("%s must be in [%lld, %lld], got %lld", key.c_str(), lo, hi, v);
}

double
SpecEntry::number(double lo, double hi) const
{
    double v = 0.0;
    if (!parseDoubleStrict(value, &v) || std::isnan(v))
        fail("'%s' needs a number, got '%s'", key.c_str(),
             value.c_str());
    if (v >= lo && v <= hi)
        return v;
    if (hi == HUGE_VAL)
        fail("%s must be >= %g, got %g", key.c_str(), lo, v);
    fail("%s must be in [%g, %g], got %g", key.c_str(), lo, hi, v);
}

double
SpecEntry::positive(double hi) const
{
    double v = number();
    if (v > 0.0 && v <= hi)
        return v;
    if (hi == HUGE_VAL)
        fail("%s must be > 0, got %g", key.c_str(), v);
    fail("%s must be in (0, %g], got %g", key.c_str(), hi, v);
}

TimeNs
SpecEntry::millis(double lo) const
{
    return static_cast<TimeNs>(number(lo, kMaxSpecMillis) *
                               static_cast<double>(MSEC));
}

bool
SpecEntry::onOff() const
{
    if (value == "on")
        return true;
    if (value != "off")
        fail("%s must be 'on' or 'off', got '%s'", key.c_str(),
             value.c_str());
    return false;
}

std::vector<SpecEntry>
SpecEntry::list() const
{
    std::vector<SpecEntry> out;
    std::string item;
    std::stringstream ss(value);
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            fail("'%s' has an empty list item", key.c_str());
        SpecEntry e = *this;
        e.value = item;
        out.push_back(e);
    }
    if (out.empty() || value.back() == ',')
        fail("'%s' needs a comma-separated list", key.c_str());
    return out;
}

std::vector<SpecEntry>
SpecEntry::attributes(std::size_t n, std::vector<std::string>* words,
                      const char* usage, const char* noun) const
{
    std::stringstream ss(value);
    words->assign(n, "");
    for (std::string& w : *words)
        if (!(ss >> w))
            fail("'%s =' needs %s", key.c_str(), usage);

    std::vector<SpecEntry> out;
    std::string tok;
    while (ss >> tok) {
        auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size())
            fail("%s attribute '%s' is not key=value", noun,
                 tok.c_str());
        SpecEntry a = *this;
        a.key = tok.substr(0, eq);
        a.value = tok.substr(eq + 1);
        a.noun = std::string(noun) + " attribute";
        out.push_back(a);
    }
    return out;
}

void
SpecEntry::unknown(const std::vector<std::string>& expected) const
{
    std::string list;
    for (const std::string& k : expected)
        list += (list.empty() ? "" : ", ") + k;
    fail("unknown %s '%s' (expected %s)", noun.c_str(), key.c_str(),
         list.c_str());
}

SpecReader::SpecReader(const std::string& path, const char* what,
                       std::vector<std::string> keys,
                       std::set<std::string> payloadKeys)
    : in_(path), keys_(std::move(keys)),
      payloadKeys_(std::move(payloadKeys))
{
    if (!in_)
        fatal("cannot open %s '%s'", what, path.c_str());
    entry_.path = path;
}

bool
SpecReader::next()
{
    std::string line;
    while (std::getline(in_, line)) {
        ++entry_.line;
        std::stringstream ss(line.substr(0, line.find('#')));
        std::string eq;
        if (!(ss >> entry_.key))
            continue;  // blank / comment-only line
        entry_.value.clear();
        if (!(ss >> eq) || eq != "=")
            entry_.fail("expected 'key = value'");
        if (std::find(keys_.begin(), keys_.end(), entry_.key) ==
            keys_.end())
            entry_.unknown(keys_);
        if (payloadKeys_.count(entry_.key)) {
            std::getline(ss, entry_.value);
            return true;
        }

        std::string extra;
        if (!(ss >> entry_.value))
            entry_.fail("'%s =' is missing a value", entry_.key.c_str());
        if (ss >> extra)
            entry_.fail("trailing garbage '%s' after value",
                        extra.c_str());
        if (!seen_.insert(entry_.key).second)
            entry_.fail("duplicate key '%s'", entry_.key.c_str());
        return true;
    }
    return false;
}

namespace {

const SpecKey<SystemConfig> kPlatformKeys[] = {
    {"gpu_mem_gb",
     [](const SpecEntry& e, SystemConfig* sys) {
         sys->gpuMemBytes = static_cast<Bytes>(
             e.number(kMinPlatformValue, kMaxPlatformValue) * 1e9);
     }},
    // host_mem_gb = 0 is a meaningful platform (Fig. 17's no-host
    // -staging point), so it keeps a zero lower bound.
    {"host_mem_gb",
     [](const SpecEntry& e, SystemConfig* sys) {
         sys->hostMemBytes = static_cast<Bytes>(
             e.number(0.0, kMaxPlatformValue) * 1e9);
     }},
    {"ssd_gbps",
     [](const SpecEntry& e, SystemConfig* sys) {
         sys->setSsdBandwidthGBps(
             e.number(kMinPlatformValue, kMaxPlatformValue));
     }},
    {"pcie_gbps",
     [](const SpecEntry& e, SystemConfig* sys) {
         sys->pcieGBps = e.number(kMinPlatformValue, kMaxPlatformValue);
     }},
};

}  // namespace

const std::vector<std::string>&
platformKeyNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        appendKeyNames(kPlatformKeys, &out);
        return out;
    }();
    return names;
}

bool
applyPlatformKey(const SpecEntry& entry, SystemConfig* sys)
{
    return applySpecKey(kPlatformKeys, entry, sys);
}

}  // namespace g10
