#include "spans.h"

#include "common/logging.h"

namespace perfbench {

void
SpanRecorder::open(const std::string& layer)
{
    stack_.push_back({layer, Clock::now(), 0});
}

void
SpanRecorder::close()
{
    if (stack_.empty())
        g10::panic("SpanRecorder::close with no open span");
    const auto end = Clock::now();
    Open top = std::move(stack_.back());
    stack_.pop_back();
    const std::int64_t dur = nsBetween(top.start, end);
    self_[top.layer] += dur - top.childNs;
    count_[top.layer] += 1;
    if (!stack_.empty())
        stack_.back().childNs += dur;
}

std::int64_t
SpanRecorder::totalSelfNs() const
{
    std::int64_t sum = 0;
    for (const auto& [layer, ns] : self_)
        sum += ns;
    return sum;
}

}  // namespace perfbench
