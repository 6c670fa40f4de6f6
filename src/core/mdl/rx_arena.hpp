// Session-scoped receive arena for the zero-copy parse path.
//
// PR 2 pooled the COMPOSE side (`composeScratch_` reuses one growing buffer
// across sessions); this pools the PARSE side. The engine copies each
// incoming datagram into the arena once, and the compiled codec plans parse
// field content as string_views over that stable copy instead of
// heap-allocating a std::string per field. The arena is a chunked bump
// allocator: reset() rewinds the cursor but keeps the chunks, so a
// long-running bridge reaches a steady state with zero parse-path
// allocations per session.
//
// Lifetime contract: views handed out by store()/intern() stay valid until
// reset(). The engine resets only at session boundaries, after the merged
// automaton dropped its stored messages, and nothing keeps an arena-backed
// message past that boundary.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace starlink::mdl {

class RxArena {
public:
    static constexpr std::size_t kDefaultChunkBytes = 16 * 1024;

    explicit RxArena(std::size_t chunkBytes = kDefaultChunkBytes)
        : chunkBytes_(chunkBytes ? chunkBytes : kDefaultChunkBytes) {}

    RxArena(const RxArena&) = delete;
    RxArena& operator=(const RxArena&) = delete;

    /// Copies `data` into the arena and returns a stable view of the copy.
    /// This is the per-datagram entry point: one copy, then every parsed
    /// field borrows from it.
    std::string_view store(const Bytes& data) {
        return intern(std::string_view(reinterpret_cast<const char*>(data.data()), data.size()));
    }

    /// Copies `text` into the arena; the returned view outlives the source.
    std::string_view intern(std::string_view text) {
        if (text.empty()) return std::string_view(reinterpret_cast<const char*>(this), 0);
        char* dst = allocate(text.size());
        std::memcpy(dst, text.data(), text.size());
        return std::string_view(dst, text.size());
    }

    /// Rewinds to empty, keeping every chunk allocation for reuse.
    void reset() {
        chunkIndex_ = 0;
        used_ = 0;
        totalUsed_ = 0;
    }

    /// Bytes handed out since the last reset().
    std::size_t bytesUsed() const { return totalUsed_; }

    /// Total capacity retained across resets.
    std::size_t bytesReserved() const {
        std::size_t total = 0;
        for (const auto& chunk : chunks_) total += chunk.size;
        return total;
    }

    std::size_t chunkCount() const { return chunks_.size(); }

private:
    struct Chunk {
        std::unique_ptr<char[]> data;
        std::size_t size = 0;
    };

    char* allocate(std::size_t bytes) {
        while (chunkIndex_ < chunks_.size() && used_ + bytes > chunks_[chunkIndex_].size) {
            ++chunkIndex_;
            used_ = 0;
        }
        if (chunkIndex_ == chunks_.size()) {
            // Geometric growth: each new chunk at least doubles the largest
            // so pathological inputs settle after O(log n) allocations.
            std::size_t size = chunkBytes_;
            if (!chunks_.empty()) size = chunks_.back().size * 2;
            if (size < bytes) size = bytes;
            chunks_.push_back(Chunk{std::make_unique<char[]>(size), size});
            used_ = 0;
        }
        char* out = chunks_[chunkIndex_].data.get() + used_;
        used_ += bytes;
        totalUsed_ += bytes;
        return out;
    }

    std::size_t chunkBytes_;
    std::vector<Chunk> chunks_;
    std::size_t chunkIndex_ = 0;  // chunk currently being filled
    std::size_t used_ = 0;        // bytes used inside chunks_[chunkIndex_]
    std::size_t totalUsed_ = 0;   // bytes handed out since reset()
};

}  // namespace starlink::mdl
