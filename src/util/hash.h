#ifndef FIELDSWAP_UTIL_HASH_H_
#define FIELDSWAP_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace fieldswap {

/// FNV-1a 64-bit state before any byte (the offset basis).
inline constexpr uint64_t kFnv1a64Seed = 0xcbf29ce484222325ULL;

/// Feeds `bytes` into a running FNV-1a 64-bit state, so a hash can stream
/// over pieces without joining them:
///   Fnv1a64Update(Fnv1a64Update(kFnv1a64Seed, a), b) == Fnv1a64(a + b).
inline uint64_t Fnv1a64Update(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a 64-bit hash of a byte string. Used for deterministic vocabulary
/// hashing (feature hashing of token text) and for string-keyed RNG splits.
inline uint64_t Fnv1a64(std::string_view bytes) {
  return Fnv1a64Update(kFnv1a64Seed, bytes);
}

/// Stable bucket id in [0, num_buckets) for feature-hashed embeddings.
inline uint32_t HashBucket(std::string_view text, uint32_t num_buckets) {
  return static_cast<uint32_t>(Fnv1a64(text) % num_buckets);
}

}  // namespace fieldswap

#endif  // FIELDSWAP_UTIL_HASH_H_
