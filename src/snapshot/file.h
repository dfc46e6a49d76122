/**
 * @file
 * Checkpoint file container: magic, format version, a human-readable
 * JSON manifest, and one opaque binary blob per server.
 *
 * The binary header fields are authoritative; the embedded manifest
 * JSON duplicates them for `jq`-style inspection of a checkpoint
 * without any tooling. Decoding validates the magic and the format
 * version *before* touching anything else, so loading a checkpoint
 * from a different build generation fails with a clear message
 * instead of misparsing bytes.
 */

#ifndef HH_SNAPSHOT_FILE_H
#define HH_SNAPSHOT_FILE_H

#include <cstdint>
#include <string>
#include <vector>

namespace hh::snap {

/** Bumped whenever the serialized layout changes incompatibly. */
inline constexpr std::uint32_t kFormatVersion = 3;

/** 'HHCP' — HardHarvest CheckPoint. */
inline constexpr std::uint32_t kCheckpointMagic = 0x50434848u;

struct CheckpointFile
{
    std::uint32_t version = kFormatVersion;
    /** Canonical fingerprint of the full SystemConfig. */
    std::string configFingerprint;
    std::uint64_t servers = 0;
    std::uint64_t seed = 0;
    /** Simulated time at which every server blob was taken. */
    std::uint64_t savedAtCycles = 0;
    /** Comma-joined batch application names, one per server. */
    std::string batchApps;
    /** One serialized ServerSim per server, in server order. */
    std::vector<std::vector<std::uint8_t>> blobs;
};

/** The manifest JSON text embedded in (and derivable from) @p f. */
std::string manifestJson(const CheckpointFile &f);

/**
 * Serialize the container to bytes. Takes a mutable reference because
 * the bidirectional `Archive::io` calls are spelled once for both
 * directions; save mode leaves @p f unchanged.
 */
std::vector<std::uint8_t> encodeCheckpoint(CheckpointFile &f);

/**
 * Parse a container. Returns false and sets @p error on a bad magic,
 * a format-version mismatch, or truncated/corrupt input.
 */
bool decodeCheckpoint(const std::vector<std::uint8_t> &bytes,
                      CheckpointFile &out, std::string *error);

/** Write/read the container to/from a file (binary). */
bool writeCheckpointFile(const std::string &path, CheckpointFile &f,
                         std::string *error);
bool readCheckpointFile(const std::string &path, CheckpointFile &f,
                        std::string *error);

} // namespace hh::snap

#endif // HH_SNAPSHOT_FILE_H
