/**
 * @file
 * The one reader behind every `key = value` spec file (serve, fleet,
 * mix, g10sim config, arrival trace) and the CLI flags that override
 * them.
 *
 * Grammar, shared by every file kind:
 *
 *   # '#' starts a comment; blank lines are ignored
 *   key = value                # one-value key: at most once per file
 *   class = <words> k=v ...    # payload key: takes the rest of the
 *                              # line, may repeat
 *
 * Every diagnostic is fatal (exit 1) and names its `path:line`.
 */

#ifndef G10_COMMON_SPEC_READER_H
#define G10_COMMON_SPEC_READER_H

#include <climits>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/system_config.h"
#include "common/types.h"

namespace g10 {

/** Largest millisecond value a spec accepts: about 31 years. */
constexpr double kMaxSpecMillis = 1e12;

/**
 * One value with the place it came from: a `key = value` line, one
 * `k=v` attribute of a payload line, one item of a comma list, or a
 * CLI flag (no path). The parsers are strict: the whole value must
 * parse and lie in range, or the program exits with a diagnostic.
 */
struct SpecEntry
{
    /** Source file; empty for a CLI flag (diagnostics then carry no
     *  location). */
    std::string path;
    std::size_t line = 0;

    std::string key;

    /** The value; for payload keys, the rest of the line. */
    std::string value;

    /** What `key` is called in diagnostics: "key", "class attribute",
     *  ... */
    std::string noun = "key";

    /** Report a malformed value at this entry's location; exit 1. */
    [[noreturn]] void fail(const char* fmt, ...) const
        __attribute__((format(printf, 2, 3)));

    /** The value as an integer in [@p lo, @p hi]. */
    long long integer(long long lo = LLONG_MIN,
                      long long hi = LLONG_MAX) const;

    /** The value as a double in [@p lo, @p hi]; NaN is malformed. */
    double number(double lo = -HUGE_VAL, double hi = HUGE_VAL) const;

    /** The value as a double in (0, @p hi]. */
    double positive(double hi = HUGE_VAL) const;

    /** The value as milliseconds in [@p lo, kMaxSpecMillis], converted
     *  to nanoseconds (the bound keeps the conversion in range). */
    TimeNs millis(double lo) const;

    /** `on` -> true, `off` -> false. */
    bool onOff() const;

    /** The value parsed by a `xxxFromName` function; @p choices lists
     *  the accepted names for the diagnostic ("fifo | sjf"). */
    template <typename E>
    E
    named(bool (*fromName)(const std::string&, E*),
          const char* choices) const
    {
        E out{};
        if (!fromName(value, &out))
            fail("unknown %s '%s' (%s)", key.c_str(), value.c_str(),
                 choices);
        return out;
    }

    /** The items of a comma list ("a,b,c"), each an entry at this
     *  location; empty items are malformed. */
    std::vector<SpecEntry> list() const;

    /**
     * Split a payload value into exactly @p n leading words (fatal
     * "'<key> =' needs <usage>" when fewer) and the `k=v` attribute
     * tokens after them. Attribute entries are called
     * "<noun> attribute" in diagnostics.
     */
    std::vector<SpecEntry> attributes(std::size_t n,
                                      std::vector<std::string>* words,
                                      const char* usage,
                                      const char* noun) const;

    /** Report this entry's key as unknown, listing @p expected. */
    [[noreturn]] void unknown(const std::vector<std::string>& expected) const;
};

/** A key a spec file accepts and how its value lands in a @p T. */
template <typename T>
struct SpecKey
{
    const char* name;
    void (*apply)(const SpecEntry& entry, T* out);
};

/** Apply @p entry through the row of @p keys that names its key;
 *  false when no row does. */
template <typename T, std::size_t N>
bool
applySpecKey(const SpecKey<T> (&keys)[N], const SpecEntry& entry, T* out)
{
    for (const SpecKey<T>& k : keys) {
        if (entry.key == k.name) {
            k.apply(entry, out);
            return true;
        }
    }
    return false;
}

/** Append the names of @p keys to @p out. */
template <typename T, std::size_t N>
void
appendKeyNames(const SpecKey<T> (&keys)[N], std::vector<std::string>* out)
{
    for (const SpecKey<T>& k : keys)
        out->push_back(k.name);
}

/** Apply every attribute through @p keys; unknown ones are fatal. */
template <typename T, std::size_t N>
void
applyAttributes(const std::vector<SpecEntry>& attrs,
                const SpecKey<T> (&keys)[N], T* out)
{
    std::vector<std::string> names;
    appendKeyNames(keys, &names);
    for (const SpecEntry& a : attrs)
        if (!applySpecKey(keys, a, out))
            a.unknown(names);
}

/**
 * Reads a spec file entry by entry. Keys outside @p keys are fatal
 * before their value is looked at; keys in @p payloadKeys take the
 * rest of their line and may repeat; every other key takes exactly
 * one value and may appear once.
 */
class SpecReader
{
  public:
    /** Open @p path; fatal "cannot open <what> '<path>'" on failure. */
    SpecReader(const std::string& path, const char* what,
               std::vector<std::string> keys,
               std::set<std::string> payloadKeys = {});

    /** Advance to the next entry; false at end of file. */
    bool next();

    const SpecEntry& entry() const { return entry_; }

    /** Whether the one-value key @p key has been read. */
    bool seen(const std::string& key) const { return seen_.count(key); }

  private:
    std::ifstream in_;
    std::vector<std::string> keys_;
    std::set<std::string> payloadKeys_;
    std::set<std::string> seen_;
    SpecEntry entry_;
};

/** The platform keys every file kind accepts: gpu_mem_gb, host_mem_gb,
 *  ssd_gbps, pcie_gbps. */
const std::vector<std::string>& platformKeyNames();

/** Bounds of a platform value: capacities in GB and bandwidths in
 *  GB/s lie in [kMinPlatformValue, kMaxPlatformValue]; host memory may
 *  also be 0 (no host staging). */
constexpr double kMinPlatformValue = 1e-3;
constexpr double kMaxPlatformValue = 1e6;

/** Apply @p entry to @p sys when it is a platform key; false when it is
 *  not one. */
bool applyPlatformKey(const SpecEntry& entry, SystemConfig* sys);

}  // namespace g10

#endif  // G10_COMMON_SPEC_READER_H
