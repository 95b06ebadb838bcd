/**
 * @file
 * Minimal binary serialization for cached results.
 *
 * ByteWriter/ByteReader implement a tiny canonical format — fixed-width
 * little-endian integers, bit-pattern doubles, length-prefixed strings —
 * used by the sweep engine's on-disk result cache (sim/sweep.hh). The
 * format is deliberately exact: a RunResult round-trips bit-identically,
 * which is what the sweep determinism tests assert.
 *
 * Readers are defensive: any truncated or malformed buffer flips the
 * reader into a failed state (checked via ok()) instead of throwing, so
 * a corrupt cache file degrades to a cache miss, never a crash.
 */

#ifndef THERMCTL_COMMON_SERIALIZE_HH
#define THERMCTL_COMMON_SERIALIZE_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace thermctl
{

/** Appends canonical little-endian encodings to a byte buffer. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out_.push_back(static_cast<char>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_.push_back(static_cast<char>(v >> (8 * i)));
    }

    /** Doubles are stored by bit pattern: exact round-trip. */
    void f64(double v);

    /** Length-prefixed string. */
    void
    str(std::string_view s)
    {
        u64(s.size());
        out_.append(s.data(), s.size());
    }

    [[nodiscard]] const std::string &buffer() const { return out_; }
    [[nodiscard]] std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/** Bounds-checked reader over a ByteWriter buffer. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view buf) : buf_(buf) {}

    [[nodiscard]] std::uint8_t u8();
    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    [[nodiscard]] double f64();
    [[nodiscard]] std::string str();

    /** @return false once any read ran past the end of the buffer. */
    [[nodiscard]] bool ok() const { return ok_; }

    /** @return true when the whole buffer was consumed successfully. */
    [[nodiscard]] bool atEnd() const { return ok_ && pos_ == buf_.size(); }

    /**
     * @return bytes left to read (0 once failed).
     *
     * Decoders use this to sanity-bound untrusted element counts before
     * reserving: a container whose elements occupy at least k bytes each
     * cannot legitimately have more than remaining()/k elements, so a
     * hostile count prefix cannot force an oversized allocation.
     */
    [[nodiscard]] std::size_t remaining() const
    {
        return ok_ ? buf_.size() - pos_ : 0;
    }

  private:
    bool take(void *dst, std::size_t n);

    std::string_view buf_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace thermctl

#endif // THERMCTL_COMMON_SERIALIZE_HH
