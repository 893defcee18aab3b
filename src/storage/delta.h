// Copyright 2026 The ONEX Reproduction Authors.
// Binary differential compression for snapshot shipping and
// incremental checkpoints — the Ajtai/Burns/Long onepass scheme:
// O(n) encode via Karp-Rabin block fingerprints over the old version,
// and IN-PLACE reconstruction on apply, so a follower (or recovery)
// turns old-snapshot + small delta into the new snapshot using
// max(old, new) bytes of buffer, never old + new.
//
// Format (all integers little-endian fixed width):
//
//   [magic "ODLT"][u32 version]
//   [u64 old_size][u64 new_size]
//   [u32 crc32(old)][u32 crc32(new)]
//   [u64 command_bytes][u32 crc32(commands)]
//   [commands...]
//
// Commands tile the new buffer contiguously in target order:
//
//   COPY: [u8 0x01][u64 src_offset][u64 length]   bytes from OLD
//   ADD:  [u8 0x02][u64 length][length bytes]     literal new bytes
//
// In-place safety: commands are APPLIED in decreasing target order
// (last command first), so when a command writes target range
// [t, t+len) every byte below t+len still holds OLD content. A COPY is
// therefore safe exactly when src_offset <= t (content that kept its
// position or shifted right — the shape appends produce); the encoder
// materializes any other match as an ADD, so every delta that encodes
// is in-place applicable by construction.
//
// The three header CRCs make torn or bit-flipped artifacts detectable
// before any byte is trusted: crc32(old) gates apply (wrong base
// snapshot), crc32(commands) validates the delta body itself, and
// crc32(new) confirms the reconstruction. Each snapshot state is
// CRC'd once: the CRC that confirmed one state is the old CRC the next
// link is checked against, on both the encode and the apply side.

#ifndef ONEX_STORAGE_DELTA_H_
#define ONEX_STORAGE_DELTA_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace onex {
namespace storage {

/// Current delta format version; bumped on layout changes.
inline constexpr uint32_t kDeltaFormatVersion = 1;

/// Parsed + validated header of a delta artifact (apply-independent
/// metadata for manifests, chain validation, and stats).
struct DeltaInfo {
  uint64_t old_size = 0;
  uint64_t new_size = 0;
  uint32_t old_crc = 0;  ///< crc32 of the base the delta applies to.
  uint32_t new_crc = 0;  ///< crc32 of the reconstruction.
  uint64_t copy_bytes = 0;  ///< target bytes produced by COPY commands.
  uint64_t add_bytes = 0;   ///< target bytes carried literally (ADDs).
};

/// Encodes `new_bytes` as a delta against `old_bytes`, whose CRC the
/// caller already holds (`old_crc` == Crc32(old_bytes); the leader
/// keeps it from the previous checkpoint). Stores Crc32(new_bytes) in
/// `*new_crc` — the one pass over the new bytes the header needs.
/// Always succeeds (worst case: one ADD carrying new_bytes verbatim,
/// header overhead only); the result applies in place by construction.
std::string EncodeDelta(std::string_view old_bytes, uint32_t old_crc,
                        std::string_view new_bytes, uint32_t* new_crc);

/// Validates the header + command-region CRC of `delta` without
/// applying it. Corruption on bad magic/version/CRC/truncation.
Result<DeltaInfo> InspectDelta(std::string_view delta);

/// Applies `delta` to `*buffer` IN PLACE: on entry `*buffer` holds the
/// old version, whose CRC the caller has already verified or computed
/// (`buffer_crc`; a chain passes the base file's CRC, then each link's
/// verified new_crc). Its size and `buffer_crc` are checked against the
/// header's old_size / old_crc, so a wrong base is still Corruption;
/// the buffer itself is CRC'd once, after reconstruction, against
/// new_crc. The buffer is grown to max(old, new) during application and
/// trimmed to new_size after — peak memory is max(old, new) + |delta|,
/// never old + new. On any error `*buffer` is left unspecified (a
/// failed apply means the caller's chain is corrupt; re-fetch or fall
/// back).
Status ApplyDeltaInPlace(std::string* buffer, uint32_t buffer_crc,
                         std::string_view delta);

}  // namespace storage
}  // namespace onex

#endif  // ONEX_STORAGE_DELTA_H_
