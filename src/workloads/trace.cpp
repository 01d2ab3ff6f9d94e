#include "workloads/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/logging.hpp"

namespace artmem::workloads {

namespace {

constexpr char kMagic[8] = {'A', 'R', 'T', 'M', 'E', 'M', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

struct Header {
    char magic[8];
    std::uint32_t version;
    std::uint32_t page_size_log2;
    std::uint64_t footprint;
    std::uint64_t count;
};

}  // namespace

TraceWriter::TraceWriter(std::unique_ptr<AccessGenerator> inner,
                         std::string path, Bytes page_size)
    : inner_(std::move(inner)),
      path_(std::move(path)),
      out_(path_, std::ios::binary)
{
    if (!inner_)
        fatal("TraceWriter requires a wrapped generator");
    if (!out_)
        fatal("TraceWriter: cannot open ", path_);
    if (!std::has_single_bit(page_size))
        fatal("TraceWriter: page size must be a power of two");
    Header header{};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.version = kVersion;
    header.page_size_log2 =
        static_cast<std::uint32_t>(std::countr_zero(page_size));
    header.footprint = inner_->footprint();
    header.count = 0;  // fixed up in the destructor
    out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
}

TraceWriter::~TraceWriter()
{
    // Seek back and finalize the access count.
    out_.seekp(offsetof(Header, count), std::ios::beg);
    out_.write(reinterpret_cast<const char*>(&written_), sizeof(written_));
    out_.flush();
    if (!out_)
        warn("TraceWriter: failed to finalize ", path_);
}

std::size_t
TraceWriter::fill(std::span<PageId> out)
{
    const std::size_t n = inner_->fill(out);
    if (n > 0) {
        out_.write(reinterpret_cast<const char*>(out.data()),
                   static_cast<std::streamsize>(n * sizeof(PageId)));
        written_ += n;
    }
    return n;
}

StreamReplay::StreamReplay(std::string name, Bytes footprint,
                           std::span<const PageId> stream)
    : name_(std::move(name)), footprint_(footprint), stream_(stream)
{
}

std::size_t
StreamReplay::fill(std::span<PageId> out)
{
    const std::size_t n = std::min(out.size(), stream_.size() - cursor_);
    std::copy_n(stream_.begin() + static_cast<std::ptrdiff_t>(cursor_), n,
                out.begin());
    cursor_ += n;
    return n;
}

TraceReplay::TraceReplay(const std::string& path) : TraceReplay(load(path))
{
}

TraceReplay::TraceReplay(Loaded loaded)
    : StreamReplay("trace", loaded.footprint, loaded.accesses),
      accesses_(std::move(loaded.accesses)),
      page_size_(loaded.page_size)
{
}

TraceReplay::Loaded
TraceReplay::load(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("TraceReplay: cannot open ", path);
    Header header{};
    in.read(reinterpret_cast<char*>(&header), sizeof(header));
    if (!in || std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0)
        fatal("TraceReplay: not an ArtMem trace: ", path);
    if (header.version != kVersion)
        fatal("TraceReplay: unsupported version ", header.version);
    if (header.page_size_log2 >= 64)
        fatal("TraceReplay: page_size_log2 ", header.page_size_log2,
              " out of range (must be < 64): ", path);
    // Check the claimed count against the bytes actually present before
    // allocating, so a corrupt count is a diagnostic, not a huge resize.
    in.seekg(0, std::ios::end);
    const auto payload =
        static_cast<std::uint64_t>(in.tellg()) - sizeof(Header);
    in.seekg(sizeof(Header), std::ios::beg);
    if (header.count > payload / sizeof(PageId))
        fatal("TraceReplay: header claims ", header.count,
              " accesses but only ", payload / sizeof(PageId),
              " fit in the file: ", path);
    Loaded trace;
    trace.footprint = header.footprint;
    trace.page_size = Bytes{1} << header.page_size_log2;
    trace.accesses.resize(header.count);
    in.read(reinterpret_cast<char*>(trace.accesses.data()),
            static_cast<std::streamsize>(header.count * sizeof(PageId)));
    if (!in)
        fatal("TraceReplay: truncated trace: ", path);
    const std::uint64_t pages =
        trace.footprint / trace.page_size +
        (trace.footprint % trace.page_size != 0 ? 1 : 0);
    for (std::size_t i = 0; i < trace.accesses.size(); ++i) {
        if (trace.accesses[i] >= pages)
            fatal("TraceReplay: page id ", trace.accesses[i],
                  " at byte offset ", sizeof(Header) + i * sizeof(PageId),
                  " is outside the ", pages, "-page footprint: ", path);
    }
    return trace;
}

}  // namespace artmem::workloads
