// Parameter snapshot (de)serialization.
//
// Two uses in the Reduce pipeline:
//  * snapshotting the pre-trained model so every per-chip retraining run
//    starts from identical weights (the paper retrains the *given* DNN per
//    chip, not a chain), and
//  * persisting tuned models for distribution to their chips.
//
// The binary format is versioned by its magic line:
//   "RDNN1\n" — u64 parameter count, then per parameter: u32 name length +
//               name bytes, u32 rank, u64 extents, f32 data.
//   "RDNN2\n" — the RDNN1 payload followed by u64 state-buffer count, then
//               per buffer: u32 rank, u64 extents, f32 data (module state
//               buffers in model order — batch-norm running statistics).
// save_snapshot writes RDNN1 when the snapshot carries no state (so
// parameter-only models keep producing files older readers understand) and
// RDNN2 otherwise; load_snapshot reads both, leaving `state` empty for
// RDNN1 files.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/module.h"

namespace reduce {

/// In-memory snapshot of parameter values (no masks/grads) plus — when
/// captured via snapshot_model — the module state buffers (batch-norm
/// running statistics) that restore_parameters does not cover. A deployable
/// BN model is parameters AND running statistics; parameters-only snapshots
/// of normalizing models evaluate with whatever statistics the target model
/// already had (the ROADMAP "snapshots exclude batch-norm statistics" gap).
struct model_snapshot {
    std::vector<std::string> names;
    std::vector<tensor> values;
    /// Module state buffers in model order (empty for parameter-only
    /// captures and for models without stateful layers).
    std::vector<tensor> state;

    /// Number of parameters captured.
    std::size_t size() const { return values.size(); }
};

/// Captures the current values of all parameters (state left empty).
model_snapshot snapshot_parameters(const std::vector<parameter*>& params);

/// Restores values captured by snapshot_parameters into the same model
/// (shapes and order must match; throws io_error otherwise). Masks,
/// gradients, and module state buffers are left untouched.
void restore_parameters(const std::vector<parameter*>& params, const model_snapshot& snapshot);

/// Captures parameters AND module state buffers — the full deployable state
/// of a tuned model (what fleet model sinks receive).
model_snapshot snapshot_model(sequential& model);

/// Restores a snapshot into `model`: parameters always; state buffers when
/// the snapshot carries them (count and shapes must then match — throws
/// io_error otherwise). A parameters-only snapshot — e.g. loaded from an
/// RDNN1 file — leaves the model's current state buffers untouched.
void restore_model(sequential& model, const model_snapshot& snapshot);

/// Writes a snapshot to a binary file; throws io_error on failure. Emits
/// RDNN1 for state-free snapshots, RDNN2 otherwise (see the format note).
void save_snapshot(const std::string& path, const model_snapshot& snapshot);

/// Reads a snapshot from a binary file (RDNN1 or RDNN2); throws io_error on
/// malformed files, including a parameter or state-buffer count the rest of
/// the file cannot hold and an RDNN2 header with no state buffers.
model_snapshot load_snapshot(const std::string& path);

/// Stream overloads sharing the file implementation byte for byte — how
/// RDNN snapshots cross a socket (the distributed worker serializes into a
/// buffer, never a temp file). The stream must be binary-clean; failure
/// states throw io_error.
void save_snapshot(std::ostream& os, const model_snapshot& snapshot);
model_snapshot load_snapshot(std::istream& is);

/// Byte-buffer convenience wrappers over the stream overloads: the exact
/// bytes save_snapshot(path, ...) would put on disk. snapshot_from_bytes
/// also throws io_error when bytes follow the payload.
std::string snapshot_to_bytes(const model_snapshot& snapshot);
model_snapshot snapshot_from_bytes(const std::string& bytes);

}  // namespace reduce
