/**
 * @file
 * Chunked bump allocator behind the std::pmr interface.
 *
 * Probe-scoped simulation state (runtime scratch vectors, LRU arrays,
 * schedule staging) is allocated and thrown away once per rate probe of
 * a sweep; under bisection that is hundreds of construct/destruct
 * cycles whose malloc churn dominates the short per-probe sims. An
 * Arena turns all of it into pointer bumps: allocations come from
 * geometrically grown chunks, deallocation is a no-op, and reset()
 * recycles the capacity for the next probe while keeping the largest
 * chunk so a steady-state sweep stops touching malloc entirely.
 *
 * Not thread-safe: one Arena per engine task (probe chain / sweep
 * cell), never shared across concurrent sims. Containers using it must
 * be destroyed (or never touched again) before reset() runs.
 */

#ifndef G10_COMMON_ARENA_H
#define G10_COMMON_ARENA_H

#include <cstddef>
#include <memory>
#include <memory_resource>
#include <vector>

namespace g10 {

class Arena : public std::pmr::memory_resource
{
  public:
    explicit Arena(std::size_t firstChunkBytes = 64 * 1024)
        : nextChunkBytes_(firstChunkBytes)
    {
    }

    /**
     * Drop every allocation and recycle capacity. Only the largest
     * chunk is kept, so repeated reset() converges to one chunk sized
     * for the steady-state working set.
     */
    void
    reset()
    {
        if (chunks_.size() > 1) {
            std::size_t largest = 0;
            for (std::size_t i = 1; i < chunks_.size(); ++i)
                if (chunks_[i].size > chunks_[largest].size)
                    largest = i;
            Chunk keep = std::move(chunks_[largest]);
            chunks_.clear();
            chunks_.push_back(std::move(keep));
        }
        cur_ = chunks_.empty() ? nullptr : chunks_.back().data.get();
        end_ = chunks_.empty() ? nullptr
                               : chunks_.back().data.get() +
                chunks_.back().size;
    }

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
    };

    void*
    do_allocate(std::size_t bytes, std::size_t alignment) override
    {
        auto p = reinterpret_cast<std::uintptr_t>(cur_);
        std::uintptr_t aligned = (p + alignment - 1) & ~(alignment - 1);
        if (cur_ == nullptr ||
            aligned + bytes > reinterpret_cast<std::uintptr_t>(end_)) {
            grow(bytes + alignment);
            p = reinterpret_cast<std::uintptr_t>(cur_);
            aligned = (p + alignment - 1) & ~(alignment - 1);
        }
        cur_ = reinterpret_cast<std::byte*>(aligned + bytes);
        return reinterpret_cast<void*>(aligned);
    }

    void
    do_deallocate(void*, std::size_t, std::size_t) override
    {
        // Bump allocator: space is reclaimed wholesale by reset().
    }

    bool
    do_is_equal(const std::pmr::memory_resource& other) const
        noexcept override
    {
        return this == &other;
    }

    void
    grow(std::size_t atLeast)
    {
        std::size_t size = nextChunkBytes_;
        while (size < atLeast)
            size *= 2;
        nextChunkBytes_ = size * 2;
        Chunk c;
        c.data = std::make_unique<std::byte[]>(size);
        c.size = size;
        cur_ = c.data.get();
        end_ = c.data.get() + size;
        chunks_.push_back(std::move(c));
    }

    std::vector<Chunk> chunks_;
    std::byte* cur_ = nullptr;
    std::byte* end_ = nullptr;
    std::size_t nextChunkBytes_;
};

}  // namespace g10

#endif  // G10_COMMON_ARENA_H
