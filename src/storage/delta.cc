#include "storage/delta.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/crc32.h"

namespace onex {
namespace storage {
namespace {

constexpr char kMagic[4] = {'O', 'D', 'L', 'T'};
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4 + 4 + 8 + 4;
constexpr uint8_t kOpCopy = 0x01;
constexpr uint8_t kOpAdd = 0x02;

/// Fingerprint block size: the match granularity of the onepass scan.
/// Matches shorter than this are carried as ADD bytes; every emitted
/// COPY is at least this long (usually much longer after extension).
constexpr size_t kBlock = 32;

// --------------------------------------------- Karp-Rabin fingerprints.
// Rolling polynomial hash mod the Mersenne prime 2^61-1 (base 263) —
// O(1) per scan position, so encoding stays O(n) end to end.

constexpr uint64_t kMod = (1ULL << 61) - 1;
constexpr uint64_t kBase = 263;

uint64_t MulMod(uint64_t a, uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  uint64_t s = static_cast<uint64_t>(p & kMod) + static_cast<uint64_t>(p >> 61);
  if (s >= kMod) s -= kMod;
  return s;
}

uint64_t HashBlock(const char* data) {
  uint64_t h = 0;
  for (size_t i = 0; i < kBlock; ++i) {
    h = MulMod(h, kBase) + static_cast<uint8_t>(data[i]);
    if (h >= kMod) h -= kMod;
  }
  return h;
}

/// base^(kBlock-1) mod p — the weight of the byte leaving the window.
uint64_t OutWeight() {
  uint64_t w = 1;
  for (size_t i = 0; i + 1 < kBlock; ++i) w = MulMod(w, kBase);
  return w;
}

uint64_t Roll(uint64_t h, uint8_t out, uint8_t in, uint64_t out_weight) {
  h = h + kMod - MulMod(out, out_weight);
  if (h >= kMod) h -= kMod;
  h = MulMod(h, kBase) + in;
  if (h >= kMod) h -= kMod;
  return h;
}

/// Open-addressed fingerprint table over the old buffer's block-aligned
/// offsets. Collisions keep the LOWEST offset (first inserted): low src
/// offsets are the ones the in-place rule (src <= target) can use.
class FingerprintTable {
 public:
  explicit FingerprintTable(std::string_view old_bytes) {
    const size_t blocks = old_bytes.size() / kBlock;
    size_t cap = 16;
    while (cap < blocks * 2) cap <<= 1;
    mask_ = cap - 1;
    hashes_.resize(cap, 0);
    offsets_.resize(cap, kEmpty);
    for (size_t off = 0; off + kBlock <= old_bytes.size(); off += kBlock) {
      Insert(HashBlock(old_bytes.data() + off), off);
    }
  }

  /// Returns the stored offset for `hash`, or kEmpty. The caller must
  /// still memcmp: a fingerprint hit is a candidate, not a match.
  uint64_t Lookup(uint64_t hash) const {
    for (size_t probe = 0; probe < kMaxProbe; ++probe) {
      const size_t slot = (hash + probe) & mask_;
      if (offsets_[slot] == kEmpty) return kEmpty;
      if (hashes_[slot] == hash) return offsets_[slot];
    }
    return kEmpty;
  }

  static constexpr uint64_t kEmpty = ~0ULL;

 private:
  static constexpr size_t kMaxProbe = 8;

  void Insert(uint64_t hash, uint64_t offset) {
    for (size_t probe = 0; probe < kMaxProbe; ++probe) {
      const size_t slot = (hash + probe) & mask_;
      if (offsets_[slot] == kEmpty) {
        hashes_[slot] = hash;
        offsets_[slot] = offset;
        return;
      }
      if (hashes_[slot] == hash) return;  // Keep the lowest offset.
    }
    // Table region saturated: drop this block (lossy is fine — a missed
    // fingerprint only costs compression, never correctness).
  }

  size_t mask_ = 0;
  std::vector<uint64_t> hashes_;
  std::vector<uint64_t> offsets_;
};

// ----------------------------------------------------- byte plumbing.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool GetU32(std::string_view in, size_t* at, uint32_t* v) {
  if (in.size() - *at < sizeof(*v)) return false;
  std::memcpy(v, in.data() + *at, sizeof(*v));
  *at += sizeof(*v);
  return true;
}
bool GetU64(std::string_view in, size_t* at, uint64_t* v) {
  if (in.size() - *at < sizeof(*v)) return false;
  std::memcpy(v, in.data() + *at, sizeof(*v));
  *at += sizeof(*v);
  return true;
}

// --------------------------------------------------------- commands.

/// One parsed command. COPY: a = src offset into old, b = length.
/// ADD: a = offset of the literal bytes inside the delta, b = length.
struct Command {
  uint8_t op = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

void EmitCopy(std::string* commands, uint64_t src, uint64_t len,
              uint64_t* copy_bytes) {
  PutU8(commands, kOpCopy);
  PutU64(commands, src);
  PutU64(commands, len);
  *copy_bytes += len;
}

void EmitAdd(std::string* commands, std::string_view bytes,
             uint64_t* add_bytes) {
  if (bytes.empty()) return;
  PutU8(commands, kOpAdd);
  PutU64(commands, bytes.size());
  commands->append(bytes);
  *add_bytes += bytes.size();
}

/// Validates everything about `delta` except the reconstruction CRC:
/// magic, version, CRC of the command region, command grammar, target
/// tiling, COPY bounds, and the in-place invariant (COPY src <= target
/// offset). Fills `info`; when `commands` is non-null also collects the
/// parsed command list for apply.
Status ParseDelta(std::string_view delta, DeltaInfo* info,
                  std::vector<Command>* commands) {
  if (delta.size() < kHeaderBytes ||
      std::memcmp(delta.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not an ONEX delta artifact");
  }
  size_t at = sizeof(kMagic);
  uint32_t version = 0;
  uint64_t command_bytes = 0;
  uint32_t command_crc = 0;
  if (!GetU32(delta, &at, &version) || !GetU64(delta, &at, &info->old_size) ||
      !GetU64(delta, &at, &info->new_size) ||
      !GetU32(delta, &at, &info->old_crc) ||
      !GetU32(delta, &at, &info->new_crc) ||
      !GetU64(delta, &at, &command_bytes) ||
      !GetU32(delta, &at, &command_crc)) {
    return Status::Corruption("truncated delta header");
  }
  if (version != kDeltaFormatVersion) {
    return Status::Corruption("unsupported delta format version " +
                              std::to_string(version));
  }
  if (command_bytes != delta.size() - kHeaderBytes) {
    return Status::Corruption("delta command region size mismatch");
  }
  if (Crc32(delta.data() + at, command_bytes) != command_crc) {
    return Status::Corruption("delta command region CRC mismatch");
  }

  // Command grammar + invariants. Commands tile [0, new_size) in
  // increasing target order.
  uint64_t target = 0;
  info->copy_bytes = 0;
  info->add_bytes = 0;
  while (at < delta.size()) {
    const uint8_t op = static_cast<uint8_t>(delta[at++]);
    if (op == kOpCopy) {
      uint64_t src = 0, len = 0;
      if (!GetU64(delta, &at, &src) || !GetU64(delta, &at, &len)) {
        return Status::Corruption("truncated COPY command");
      }
      if (len == 0 || src > info->old_size || len > info->old_size - src) {
        return Status::Corruption("COPY out of old-buffer bounds");
      }
      if (src > target) {
        return Status::Corruption("COPY violates in-place order (src > tgt)");
      }
      if (commands) commands->push_back({op, src, len});
      target += len;
      info->copy_bytes += len;
    } else if (op == kOpAdd) {
      uint64_t len = 0;
      if (!GetU64(delta, &at, &len)) {
        return Status::Corruption("truncated ADD command");
      }
      if (len == 0 || len > delta.size() - at) {
        return Status::Corruption("ADD literal out of delta bounds");
      }
      if (commands) commands->push_back({op, at, len});
      at += len;
      target += len;
      info->add_bytes += len;
    } else {
      return Status::Corruption("unknown delta command opcode " +
                                std::to_string(op));
    }
    if (target > info->new_size) {
      return Status::Corruption("delta commands overrun new size");
    }
  }
  if (target != info->new_size) {
    return Status::Corruption("delta commands do not tile new size");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeDelta(std::string_view old_bytes, uint32_t old_crc,
                        std::string_view new_bytes, uint32_t* new_crc) {
  std::string commands;
  uint64_t copy_bytes = 0, add_bytes = 0;

  // Common prefix first: the dominant match for append-shaped updates,
  // and cheaper to find with one mismatch scan than via fingerprints.
  const size_t prefix = static_cast<size_t>(
      std::mismatch(new_bytes.begin(), new_bytes.end(), old_bytes.begin(),
                    old_bytes.end())
          .first -
      new_bytes.begin());
  if (prefix > 0) EmitCopy(&commands, 0, prefix, &copy_bytes);

  // Onepass fingerprint scan over the remainder.
  const FingerprintTable table(old_bytes);
  const uint64_t out_weight = OutWeight();
  const size_t n = new_bytes.size();
  size_t t = prefix;          // Scan cursor.
  size_t add_start = prefix;  // Unmatched bytes pending as an ADD.
  uint64_t h = (t + kBlock <= n) ? HashBlock(new_bytes.data() + t) : 0;
  while (t + kBlock <= n) {
    const uint64_t cand = table.Lookup(h);
    // The in-place rule (src <= target) screens candidates up front;
    // a match at a higher old offset would have to ship as ADD anyway.
    if (cand != FingerprintTable::kEmpty && cand <= t &&
        std::memcmp(old_bytes.data() + cand, new_bytes.data() + t, kBlock) ==
            0) {
      size_t src = cand, tgt = t, len = kBlock;
      // Extend forward while both sides agree...
      while (src + len < old_bytes.size() && tgt + len < n &&
             old_bytes[src + len] == new_bytes[tgt + len]) {
        ++len;
      }
      // ...and backward into the pending ADD region (equal decrements
      // keep src <= tgt).
      while (src > 0 && tgt > add_start &&
             old_bytes[src - 1] == new_bytes[tgt - 1]) {
        --src;
        --tgt;
        ++len;
      }
      EmitAdd(&commands, new_bytes.substr(add_start, tgt - add_start),
              &add_bytes);
      EmitCopy(&commands, src, len, &copy_bytes);
      t = tgt + len;
      add_start = t;
      if (t + kBlock <= n) h = HashBlock(new_bytes.data() + t);
      continue;
    }
    if (t + kBlock == n) break;  // Last window: nothing to roll into.
    h = Roll(h, static_cast<uint8_t>(new_bytes[t]),
             static_cast<uint8_t>(new_bytes[t + kBlock]), out_weight);
    ++t;
  }
  EmitAdd(&commands, new_bytes.substr(add_start), &add_bytes);

  std::string delta;
  delta.reserve(kHeaderBytes + commands.size());
  delta.append(kMagic, sizeof(kMagic));
  PutU32(&delta, kDeltaFormatVersion);
  PutU64(&delta, old_bytes.size());
  PutU64(&delta, new_bytes.size());
  *new_crc = Crc32(new_bytes.data(), new_bytes.size());
  PutU32(&delta, old_crc);
  PutU32(&delta, *new_crc);
  PutU64(&delta, commands.size());
  PutU32(&delta, Crc32(commands.data(), commands.size()));
  delta.append(commands);
  return delta;
}

Result<DeltaInfo> InspectDelta(std::string_view delta) {
  DeltaInfo info;
  Status parsed = ParseDelta(delta, &info, nullptr);
  if (!parsed.ok()) return parsed;
  return info;
}

Status ApplyDeltaInPlace(std::string* buffer, uint32_t buffer_crc,
                         std::string_view delta) {
  DeltaInfo info;
  std::vector<Command> commands;
  Status parsed = ParseDelta(delta, &info, &commands);
  if (!parsed.ok()) return parsed;
  if (buffer->size() != info.old_size) {
    return Status::Corruption("delta base size mismatch: have " +
                              std::to_string(buffer->size()) + ", delta wants " +
                              std::to_string(info.old_size));
  }
  if (buffer_crc != info.old_crc) {
    return Status::Corruption("delta base CRC mismatch (wrong base snapshot)");
  }

  // In-place reconstruction: grow to max(old, new), then apply in
  // DECREASING target order. When the command writing [t, t+len)
  // executes, everything below t+len still holds old content, and the
  // parser proved every COPY reads at src <= t — so sources are intact
  // by construction (memmove covers self-overlap).
  buffer->resize(std::max(info.old_size, info.new_size));
  char* buf = buffer->data();
  uint64_t target = info.new_size;
  for (size_t i = commands.size(); i-- > 0;) {
    const Command& cmd = commands[i];
    target -= cmd.b;
    if (cmd.op == kOpCopy) {
      std::memmove(buf + target, buf + cmd.a, cmd.b);
    } else {
      std::memcpy(buf + target, delta.data() + cmd.a, cmd.b);
    }
  }
  buffer->resize(info.new_size);
  if (Crc32(buffer->data(), buffer->size()) != info.new_crc) {
    return Status::Corruption("delta reconstruction CRC mismatch");
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace onex
