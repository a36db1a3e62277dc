/**
 * @file
 * Byte-wise 64-bit FNV-1a, the fingerprint behind fault-schedule
 * hashes, the check sweep's outcome hash and the bench harness's
 * plan and rank fingerprints. Those values are pinned in committed
 * baselines and repros, so every step here is bit-for-bit stable.
 */

#ifndef SUPERNPU_COMMON_HASH_HH
#define SUPERNPU_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace supernpu {

/** FNV-1a offset basis: the hash of no bytes. */
constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;

/** Mix `len` bytes at `data`, in memory order. */
inline void
fnv1aBytes(std::uint64_t &hash, const void *data, std::size_t len)
{
    const unsigned char *bytes = (const unsigned char *)data;
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
}

/** Mix a word as its eight bytes, least significant first. */
inline void
fnv1aWord(std::uint64_t &hash, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
}

/** Mix a double's bit pattern as a word (bit-exact). */
inline void
fnv1aDouble(std::uint64_t &hash, double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    fnv1aWord(hash, bits);
}

/** Mix a string as its length word, then its bytes. */
inline void
fnv1aText(std::uint64_t &hash, const std::string &text)
{
    fnv1aWord(hash, (std::uint64_t)text.size());
    fnv1aBytes(hash, text.data(), text.size());
}

} // namespace supernpu

#endif // SUPERNPU_COMMON_HASH_HH
