// Durable work-unit journal of the distributed coordinator.
//
// The coordinator is the only process that holds a distributed job's
// partial state — the fused sweep accumulator, the fleet outcome ledger —
// so before this journal existed, a coordinator crash lost the whole job.
// The journal makes every completed work unit durable: the coordinator
// appends one record per unit (sweep partial table, or fleet chip outcome
// with its tuned-model snapshot bytes) and fsyncs it BEFORE marking the
// unit done, so a restarted coordinator pointed at the same journal
// directory replays the finished units, re-queues only the unfinished
// ones, and produces an artifact byte-identical to an uninterrupted run
// (work units are idempotent by construction, so the replayed and the
// recomputed halves fuse seamlessly — see docs/protocol.md, "Journal
// format").
//
// ## On-disk format
//
// One append-only file per job, keyed by the job fingerprint:
//
//   <dir>/journal-<fingerprint>.wal
//
// so restarting with different job flags can never replay a foreign
// journal (the header re-validates fingerprint, kind, and unit count as a
// second layer). The file is a sequence of length-prefixed, checksummed
// records:
//
//   +-------------+----------------+---------------------------+
//   | length: u32 | fnv1a-32: u32  | payload: `length` bytes   |
//   | big-endian  | of the payload | of compact JSON           |
//   +-------------+----------------+---------------------------+
//
// Record 0 is the header {type:"journal", version, kind, fingerprint,
// units}; every later record is {type:"unit", unit:<index>, ...} with the
// same members the wire `result` message carries (table | outcome [,
// snapshot]). A torn tail — the signature of a crash mid-append — is
// detected by the length/checksum, logged, and truncated away on open;
// everything before it replays. Appends are fsync'd before returning, so
// a unit the coordinator considers done is always recoverable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "util/json.h"

namespace reduce::dist {

/// Journal schema revision (independent of the wire protocol_version;
/// bumped on any record-format change).
inline constexpr int journal_format_version = 1;

/// Path of the journal file for a job fingerprint inside `dir`.
std::string journal_path(const std::string& dir, const std::string& fingerprint);

/// 32-bit FNV-1a — the record checksum (shared with tests).
std::uint32_t journal_checksum(const std::string& bytes);

/// The append-only journal. Open-or-create plus replay, then append-only;
/// a default-constructed journal is closed and append() on it throws.
class journal {
public:
    journal() = default;
    journal(const journal&) = delete;
    journal& operator=(const journal&) = delete;
    ~journal() { close(); }

    /// Opens (creating directory and file as needed) the journal for this
    /// job and replays it: validates the header against kind/fingerprint/
    /// unit_count (throwing io_error on a mismatched or corrupt header —
    /// the journal belongs to a different job), truncates a torn tail
    /// record with a warning, and returns the unit records in append
    /// order. A fresh file writes the header and returns no records.
    std::vector<json_value> open(const std::string& dir, job_kind kind,
                                 const std::string& fingerprint, std::size_t unit_count);

    bool is_open() const { return fd_ >= 0; }

    /// Appends one record and makes it durable (write + fsync) before
    /// returning; throws io_error when the disk fails — durability is the
    /// journal's whole contract, so a failed append must fail the job.
    void append(const json_value& record);

    void close();

private:
    int fd_ = -1;
};

}  // namespace reduce::dist
