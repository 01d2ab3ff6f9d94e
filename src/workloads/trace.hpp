/**
 * @file
 * Access-trace capture and replay.
 *
 * TraceWriter wraps any AccessGenerator and records the page-access
 * stream to a compact binary file; TraceReplay loads such a file and
 * plays it back through StreamReplay, the in-memory replay generator. This allows (a) freezing a stochastic workload
 * so different policies see the *identical* access sequence, and
 * (b) importing externally captured page traces into the harness.
 *
 * Format: 16-byte header ("ARTMEMTR", u32 version, u32 page_size_log2)
 * followed by u64 footprint, u64 count, then `count` little-endian u32
 * page ids.
 */
#ifndef ARTMEM_WORKLOADS_TRACE_HPP
#define ARTMEM_WORKLOADS_TRACE_HPP

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "workloads/generator.hpp"

namespace artmem::workloads {

/** Pass-through generator that tees every access into a trace file. */
class TraceWriter final : public AccessGenerator
{
  public:
    /**
     * @param inner     Wrapped generator (ownership taken).
     * @param path      Output file; fatal if unwritable.
     * @param page_size Page size recorded in the header.
     */
    TraceWriter(std::unique_ptr<AccessGenerator> inner, std::string path,
                Bytes page_size);

    /** Flushes and finalizes the header counts. */
    ~TraceWriter() override;

    std::string_view name() const override { return inner_->name(); }
    Bytes footprint() const override { return inner_->footprint(); }
    std::size_t fill(std::span<PageId> out) override;
    std::uint64_t total_accesses() const override
    {
        return inner_->total_accesses();
    }

    /** Accesses written so far. */
    std::uint64_t written() const { return written_; }

  private:
    std::unique_ptr<AccessGenerator> inner_;
    std::string path_;
    std::ofstream out_;
    std::uint64_t written_ = 0;
};

/**
 * Replays an in-memory access stream it does not own: the one replay
 * path behind both trace:FILE (TraceReplay) and the sweep's shared
 * streams (sweep/sweep.cpp). fill() copies min(out.size(), remaining)
 * ids, which is the AccessGenerator batch contract, so a replayed run
 * is bit-identical to one driven by the generator that produced the
 * stream.
 */
class StreamReplay : public AccessGenerator
{
  public:
    /** @p stream must outlive this generator. */
    StreamReplay(std::string name, Bytes footprint,
                 std::span<const PageId> stream);

    std::string_view name() const override { return name_; }
    Bytes footprint() const override { return footprint_; }
    std::size_t fill(std::span<PageId> out) override;
    std::uint64_t total_accesses() const override { return stream_.size(); }

  private:
    std::string name_;
    Bytes footprint_;
    std::span<const PageId> stream_;
    std::size_t cursor_ = 0;
};

/** A trace file produced by TraceWriter, loaded and replayed. */
class TraceReplay final : public StreamReplay
{
  public:
    /** Load the whole trace; fatal on malformed files. */
    explicit TraceReplay(const std::string& path);

    /** Page size the trace was captured at. */
    Bytes page_size() const { return page_size_; }

  private:
    struct Loaded {
        std::vector<PageId> accesses;
        Bytes footprint = 0;
        Bytes page_size = 0;
    };

    static Loaded load(const std::string& path);
    explicit TraceReplay(Loaded loaded);

    /** Backs the base's span; a vector move keeps its buffer. */
    std::vector<PageId> accesses_;
    Bytes page_size_;
};

}  // namespace artmem::workloads

#endif  // ARTMEM_WORKLOADS_TRACE_HPP
