// RecordLog: an append-only, segmented, CRC-framed durable record log.
//
// The log is the crash-safety substrate under resumable sessions: a
// sender appends every outgoing record (and fsyncs per policy) *before*
// transmitting it, so a process that dies mid-stream can reopen the
// directory and replay everything it ever acknowledged. The write path
// is write-ahead in the strict sense — a record is only "durable" once
// sync() has succeeded past it, and a failed fsync poisons the log (the
// fsync-gate rule: after fsync fails, nothing previously handed to the
// kernel can be trusted, so every later append refuses until a reopen
// re-derives the truth from disk).
//
// On-disk layout inside the log directory:
//
//   seg-<%016x base_seq>.log   segment: header + frames (framing.hpp)
//   seg-<%016x base_seq>.idx   sparse sidecar index (advisory cache)
//
// Recovery (open) walks segments from the tail: the last segment is
// scanned frame-by-frame and truncated at the last valid CRC boundary —
// torn tails (crash artifacts) are silently cut; corruption (a
// fully-present frame that lies) is also cut but counted and reported
// through stats so an operator can tell rot from a crash. A tail
// segment with zero valid frames is deleted and the previous segment
// becomes the tail. Sealed (non-tail) segments are trusted structurally
// until read — every byte is still CRC-verified on the read path.
//
// Reads go through Cursor: O(log n) to the containing segment (binary
// search over base_seqs), then the sidecar index narrows the scan within
// it. The index is never an authority — entries are CRC-checked and
// verified against the frame they point at, and any lie degrades to a
// linear scan of authenticated frames.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/limits.hpp"
#include "storage/framing.hpp"
#include "storage/io.hpp"

namespace xmit::storage {

enum class FsyncPolicy : std::uint8_t {
  kNone,      // never fsync: fastest, no power-loss guarantee at all
  kInterval,  // fsync every fsync_interval_records appends
  kAlways,    // fsync after every append: every acked record is durable
};

const char* fsync_policy_name(FsyncPolicy policy);

struct LogOptions {
  // Rotate to a fresh segment once the active one would exceed this.
  std::uint64_t segment_bytes = 8u << 20;

  FsyncPolicy fsync = FsyncPolicy::kAlways;
  std::size_t fsync_interval_records = 64;

  // Keep at most this many segments; 0 = unlimited. Rotation unlinks the
  // oldest segments beyond the cap (their records stop being replayable).
  std::size_t retention_segments = 0;

  // Write one sparse index entry per this many segment bytes.
  std::uint64_t index_every_bytes = 64u << 10;
};

class RecordLog {
 public:
  // Opens (creating if needed) the log in `dir`, running recovery on
  // whatever a previous incarnation left behind. Everything on disk is
  // treated as untrusted bytes bounded by `limits`.
  static Result<RecordLog> open(const std::string& dir,
                                const LogOptions& options,
                                const DecodeLimits& limits);

  RecordLog(RecordLog&&) = default;
  RecordLog& operator=(RecordLog&&) = default;

  // Appends one record. `seq` must be exactly last_seq()+1 when the log
  // is non-empty, and any nonzero value when empty. Under
  // FsyncPolicy::kAlways the record is durable when this returns OK; any
  // failure (write or fsync) poisons the log — later appends fail with
  // the original error until the directory is reopened.
  Status append(std::uint64_t seq, std::uint64_t format_id,
                std::span<const IoSlice> payload);
  Status append(std::uint64_t seq, std::uint64_t format_id,
                std::span<const std::uint8_t> payload);

  // Forces everything appended so far to disk. OK => synced_seq() ==
  // last_seq(). Failure poisons the log (fsync-gate rule).
  Status sync();

  bool empty() const { return last_seq_ == 0; }
  std::uint64_t first_seq() const { return first_seq_; }  // 0 when empty
  std::uint64_t last_seq() const { return last_seq_; }    // 0 when empty
  std::uint64_t synced_seq() const { return synced_seq_; }
  bool poisoned() const { return !fail_status_.is_ok(); }

  std::size_t segment_count() const { return segments_.size(); }
  std::uint64_t appended_records() const { return appended_records_; }
  // Bytes cut from the tail during recovery (torn or corrupt), and how
  // the recovery scan classified the cut.
  std::uint64_t recovered_bytes_dropped() const { return recovered_dropped_; }
  ScanStop recovery_stop() const { return recovery_stop_; }

  // Arms one deterministic fault on the write path (crash harness).
  void arm_fault(const StorageFault& fault) { faults_.arm(fault); }

  // One record yielded by a Cursor. `payload` points into the cursor's
  // loaded segment and is valid until the next next() call.
  struct Item {
    std::uint64_t seq = 0;
    std::uint64_t format_id = 0;
    std::span<const std::uint8_t> payload;
  };

  // Forward iterator over [start_seq, last_seq() at creation]. Reads
  // from disk, so it observes only what append() already wrote.
  class Cursor {
   public:
    // Yields the next record. false => past the end of the range (not an
    // error). Errors are real: unreadable file, corrupt sealed segment.
    Result<bool> next(Item* out);

    std::uint64_t stop_seq() const { return stop_seq_; }

    // Where next() resumes. Seeking back to a position taken under the
    // segment image still loaded reads nothing from disk; a position from
    // another image reloads the segment that holds it.
    struct Position {
      std::uint64_t seq = 0;
      std::size_t offset = 0;
      std::size_t segment = SIZE_MAX;
    };
    Position position() const { return {next_seq_, offset_, loaded_}; }
    void seek(const Position& at);

    // True when next() reaches `seq` without loading another segment
    // image, so payload spans it already handed out stay valid.
    bool reaches_in_place(std::uint64_t seq) const;

   private:
    friend class RecordLog;
    struct SegmentRef {
      std::uint64_t base_seq = 0;
      std::string path;
    };

    Status load_segment_for(std::uint64_t seq);

    std::vector<SegmentRef> segments_;
    DecodeLimits limits_;
    std::uint64_t read_budget_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t stop_seq_ = 0;  // inclusive
    std::vector<std::uint8_t> bytes_;  // loaded segment image
    std::size_t loaded_ = SIZE_MAX;    // index into segments_, or SIZE_MAX
    std::size_t offset_ = 0;           // parse position within bytes_
  };

  // Starts a cursor at `seq` (clamped up to first_seq()). The cursor
  // covers records up to last_seq() at the time of this call.
  Cursor read_from(std::uint64_t seq) const;

 private:
  struct Segment {
    std::uint64_t base_seq = 0;
    std::string path;   // .log
    std::string index;  // .idx sidecar
  };

  RecordLog() = default;

  Status create_segment(std::uint64_t base_seq);
  Status rotate(std::uint64_t next_seq);
  void apply_retention();
  Status fail(Status status);  // poison + return
  std::uint64_t read_budget() const;

  std::string dir_;
  LogOptions options_;
  DecodeLimits limits_;
  std::vector<Segment> segments_;  // sorted by base_seq; back() is active
  UniqueFd active_fd_;
  UniqueFd index_fd_;
  std::uint64_t active_bytes_ = 0;
  std::uint64_t bytes_since_index_ = 0;
  std::uint64_t first_seq_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint64_t synced_seq_ = 0;
  std::size_t records_since_sync_ = 0;
  std::uint64_t appended_records_ = 0;
  std::uint64_t recovered_dropped_ = 0;
  ScanStop recovery_stop_ = ScanStop::kEnd;
  Status fail_status_;
  FaultArmer faults_;
  ByteBuffer scratch_;  // reused frame-build buffer: zero steady-state alloc
};

}  // namespace xmit::storage
