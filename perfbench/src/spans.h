/**
 * @file
 * Host-time spans the benchmark places around calls into each layer's
 * public functions. A span's self time is its duration minus the part
 * covered by spans opened inside it, so the self times of one op's
 * spans plus an explicit residual add up to the op's wall-clock.
 *
 * Spans live in memory only; the benchmark reads the per-layer totals
 * when the run ends. The recorder is single-threaded: the benchmark
 * opens spans only on its own thread, around calls that may fan out
 * to engine workers internally.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds from @p a to @p b. */
inline std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Accumulates per-layer self time over any number of spans. */
class SpanRecorder
{
  public:
    /** Open a span for @p layer, nested in the innermost open span. */
    void open(const std::string& layer);

    /** Close the innermost open span. */
    void close();

    /** Self nanoseconds per layer, summed over every closed span. */
    const std::map<std::string, std::int64_t>& selfNs() const
    {
        return self_;
    }

    /** Spans closed so far, per layer. */
    const std::map<std::string, std::uint64_t>& count() const
    {
        return count_;
    }

    /** Sum of selfNs() over all layers. */
    std::int64_t totalSelfNs() const;

  private:
    struct Open
    {
        std::string layer;
        Clock::time_point start;
        std::int64_t childNs = 0;
    };
    std::vector<Open> stack_;
    std::map<std::string, std::int64_t> self_;
    std::map<std::string, std::uint64_t> count_;
};

/**
 * RAII span on an optional recorder: a null recorder records nothing,
 * which is how the untraced ops run the same code path.
 */
class Span
{
  public:
    Span(SpanRecorder* rec, const char* layer) : rec_(rec)
    {
        if (rec_)
            rec_->open(layer);
    }
    ~Span()
    {
        if (rec_)
            rec_->close();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    SpanRecorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
