/**
 * @file
 * Stable content hashing for configuration fingerprints.
 *
 * HashStream is a 64-bit FNV-1a accumulator with typed feeders: every
 * value is reduced to a canonical little-endian byte sequence before
 * being folded in, so a digest depends only on the logical field values
 * — never on struct padding, platform endianness, or field addresses.
 * The sweep engine's content-addressed result cache (sim/sweep.hh) is
 * built on these digests; see DESIGN.md §9 for the key-derivation
 * contract.
 *
 * Floating-point values are hashed by bit pattern (after normalizing
 * -0.0 to 0.0), which is exactly the equality the cache needs: two
 * configurations hash alike iff a simulation cannot distinguish them.
 */

#ifndef THERMCTL_COMMON_HASH_HH
#define THERMCTL_COMMON_HASH_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace thermctl
{

/** 64-bit FNV-1a accumulator with canonical typed feeders. */
class HashStream
{
  public:
    static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;
    static constexpr std::uint64_t kPrime = 1099511628211ULL;

    /** Fold raw bytes into the digest. */
    HashStream &
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            state_ ^= p[i];
            state_ *= kPrime;
        }
        return *this;
    }

    /** Fold an unsigned integer, canonicalized to 8 LE bytes. */
    HashStream &
    u64(std::uint64_t v)
    {
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        return bytes(b, sizeof(b));
    }

    /** Fold a bool as one byte. */
    HashStream &
    b(bool v)
    {
        return u64(v ? 1 : 0);
    }

    /**
     * Fold a double by bit pattern. -0.0 is normalized to 0.0 so the
     * two indistinguishable zeroes share a digest; NaNs keep their
     * payload (a NaN in a config is a bug the invariant layer catches).
     */
    HashStream &
    f64(double v)
    {
        if (v == 0.0)
            v = 0.0; // collapses -0.0
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        return u64(bits);
    }

    /** Fold a string: length prefix + bytes (unambiguous framing). */
    HashStream &
    str(std::string_view s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    /** Fold a fixed array of doubles. */
    template <std::size_t N>
    HashStream &
    f64s(const std::array<double, N> &a)
    {
        u64(N);
        for (double v : a)
            f64(v);
        return *this;
    }

    /** @return the current 64-bit digest. */
    std::uint64_t digest() const { return state_; }

  private:
    std::uint64_t state_ = kOffsetBasis;
};

/** @return one-shot FNV-1a digest of a string (e.g. a sweep-point key). */
inline std::uint64_t
hashString(std::string_view s)
{
    return HashStream{}.str(s).digest();
}

/** @return 16-char lower-case hex rendering of a digest (cache names). */
std::string hashHex(std::uint64_t digest);

} // namespace thermctl

#endif // THERMCTL_COMMON_HASH_HH
