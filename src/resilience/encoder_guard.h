// Self-healing encoder memory: CRC guard + seed-rematerialization scrub.
//
// BlockGuard (block_guard.h) protects the class memory; this is the same
// idea applied to the OTHER large SRAM of the datapath — the encoder's
// level rows and rotating id seed. The encoder memories have a property
// class memory lacks: every row is a pure function of (seed, dims, key)
// (item_memory.h, PR 7 rematerialization), so a corrupted row is not just
// detectable but perfectly repairable — rematerialize it from the seed and
// it comes back bit-identical, no golden blob required.
//
// An EncoderGuard snapshots one CRC32 per stored level row plus one for
// the id seed row at commission time. A scan flags rows whose CRC changed;
// the caller then picks a repair policy:
//
//   kDetect — count + report, keep serving through the damage (the
//             baseline every campaign measures against);
//   kMask   — GenericEncoder::encode_masked() skips every window that
//             touches a corrupted row, the encoder-side mirror of
//             masked predict_reduced(): accuracy degrades by the
//             information the rows carried instead of being poisoned by
//             garbage bits;
//   kScrub  — scrub() rewrites each faulty row from its seed via
//             materialize() and verifies the commissioned CRC afterwards.
//
// A kRematerialized level memory stores nothing, so a scan always comes
// back clean — corruption of rows that do not exist is impossible, which
// is the strongest repair policy of all. The id seed row is stored in both
// modes (it IS the rematerialization source), so it stays guarded.
//
// `seed_available == false` models a deployment that discarded the
// generation seeds after commissioning (stored-mode tables flashed to the
// device, seeds kept only at the factory): detection and masking still
// work, but scrub() refuses, and serving degrades gracefully on masked
// encodings instead (docs/resilience.md).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "encoding/encoders.h"

namespace generic::resilience {

/// What to do about a corrupted encoder row once a scan finds it.
enum class RepairPolicy {
  kDetect,  ///< count and report only; serve through the damage
  kMask,    ///< re-encode skipping windows that touch corrupted rows
  kScrub,   ///< rematerialize corrupted rows from their seeds, CRC-verified
};

/// Stable short name used in reports and flags ("detect", "mask", "scrub").
std::string_view repair_policy_name(RepairPolicy policy);

/// Parse a repair_policy_name(); throws std::invalid_argument on unknowns.
RepairPolicy repair_policy_from_name(std::string_view name);

class EncoderGuard {
 public:
  /// Snapshot per-row CRCs of a trusted encoder. Pass
  /// `seed_available = false` to model a deployment without generation
  /// seeds: scan/mask still work, scrub() refuses.
  static EncoderGuard commission(const enc::GenericEncoder& encoder,
                                 bool seed_available = true);

  /// Per-row verdicts of one scan; feeds straight into encode_masked().
  struct ScanResult {
    std::vector<bool> level_ok;  ///< one flag per level row
    bool id_ok = true;           ///< the rotating id seed row
    std::size_t num_faulty() const;
    bool all_ok() const { return num_faulty() == 0; }
  };

  /// Scan a (possibly corrupted) encoder against the commissioned CRCs.
  /// Rematerialized level memories have no stored rows and always scan
  /// clean; the id seed row is checked in both storage modes. Throws when
  /// the encoder geometry disagrees with the commissioned one.
  ScanResult scan(const enc::GenericEncoder& encoder) const;

  /// Number of rows (levels + id seed) a scan flags as faulty.
  std::size_t count_faulty(const enc::GenericEncoder& encoder) const;

  /// Repair every faulty row in place by rematerializing it from its seed,
  /// then verify each repaired row against the commissioned CRC — the
  /// PR 7 contract says rematerialization is bit-identical, and this is
  /// where that contract is enforced at runtime (std::runtime_error on any
  /// post-scrub mismatch). Returns how many rows were rewritten. Throws
  /// std::logic_error when commissioned with seed_available == false.
  std::size_t scrub(enc::GenericEncoder& encoder) const;

  std::size_t dims() const { return dims_; }
  std::size_t num_levels() const { return num_levels_; }
  bool seed_available() const { return seed_available_; }

 private:
  EncoderGuard() = default;

  std::size_t dims_ = 0;
  std::size_t num_levels_ = 0;
  bool stored_levels_ = false;
  bool seed_available_ = true;
  std::vector<std::uint32_t> level_crcs_;  ///< one per level row
  std::uint32_t id_crc_ = 0;
};

}  // namespace generic::resilience
