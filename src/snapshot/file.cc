#include "snapshot/file.h"

#include <cstdio>

#include "sim/jsonl.h"
#include "snapshot/archive.h"

namespace hh::snap {

std::string
manifestJson(const CheckpointFile &f)
{
    std::string j = "{\n";
    j += "  \"format_version\": " + std::to_string(f.version) + ",\n";
    j += "  \"config_fingerprint\": \"" +
         hh::sim::jsonEscape(f.configFingerprint) + "\",\n";
    j += "  \"servers\": " + std::to_string(f.servers) + ",\n";
    j += "  \"seed\": " + std::to_string(f.seed) + ",\n";
    j += "  \"saved_at_cycles\": " + std::to_string(f.savedAtCycles) +
         ",\n";
    j += "  \"batch_apps\": \"" + hh::sim::jsonEscape(f.batchApps) +
         "\"\n}\n";
    return j;
}

std::vector<std::uint8_t>
encodeCheckpoint(CheckpointFile &f)
{
    Archive ar = Archive::forSave();
    std::uint32_t magic = kCheckpointMagic;
    std::uint32_t version = f.version;
    ar.io(magic);
    ar.io(version);
    std::string manifest = manifestJson(f);
    ar.io(manifest);
    ar.io(f.configFingerprint);
    ar.io(f.servers);
    ar.io(f.seed);
    ar.io(f.savedAtCycles);
    ar.io(f.batchApps);
    ar.io(f.blobs);
    return ar.take();
}

bool
decodeCheckpoint(const std::vector<std::uint8_t> &bytes,
                 CheckpointFile &out, std::string *error)
{
    Archive ar = Archive::forLoad(bytes);
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    ar.io(magic);
    ar.io(version);
    if (!ar.ok() || magic != kCheckpointMagic) {
        if (error)
            *error = "not a HardHarvest checkpoint (bad magic)";
        return false;
    }
    if (version != kFormatVersion) {
        if (error)
            *error = "checkpoint format version " +
                     std::to_string(version) +
                     " is not supported by this build (expects " +
                     std::to_string(kFormatVersion) + ")";
        return false;
    }
    out.version = version;
    std::string manifest;
    ar.io(manifest); // human-readable copy; binary fields authoritative
    ar.io(out.configFingerprint);
    ar.io(out.servers);
    ar.io(out.seed);
    ar.io(out.savedAtCycles);
    ar.io(out.batchApps);
    ar.io(out.blobs);
    if (!ar.ok()) {
        if (error)
            *error = "corrupt checkpoint: " + ar.error();
        return false;
    }
    return true;
}

bool
writeCheckpointFile(const std::string &path, CheckpointFile &f,
                    std::string *error)
{
    const std::vector<std::uint8_t> bytes = encodeCheckpoint(f);
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    if (!fp) {
        if (error)
            *error = "cannot open " + path + " for writing";
        return false;
    }
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), fp) == bytes.size();
    std::fclose(fp);
    if (!ok && error)
        *error = "short write to " + path;
    return ok;
}

bool
readCheckpointFile(const std::string &path, CheckpointFile &f,
                   std::string *error)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (!fp) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t chunk[65536];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, fp)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    std::fclose(fp);
    return decodeCheckpoint(bytes, f, error);
}

} // namespace hh::snap
