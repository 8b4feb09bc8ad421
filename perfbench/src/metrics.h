/**
 * @file
 * Every metric the benchmark reports, with its unit and the mode
 * (--trace 0 or 1) that reports it. This is the program's only copy of
 * the metric list; the self-test checks it against BENCHMARK.json, and
 * a run that would print a metric missing from it (or miss one listed
 * for its mode) fails instead of printing a result.
 */

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef
{
    const char* name;
    const char* unit;
    bool traced;  ///< reported by --trace 1 (per-layer), else --trace 0
};

/** Every metric, end-to-end first, in BENCHMARK.json order. */
const std::vector<MetricDef>& metricDefs();

/** The metric named @p name, or nullptr when it is not listed. */
const MetricDef* findMetric(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H
