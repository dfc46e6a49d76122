/**
 * @file
 * Helpers for the JSONL rows the experiment ledger and the telemetry
 * hub write: JSON string escaping and the FNV-1a row checksum. Both
 * row formats are byte-stable contracts, so they share one copy.
 */

#ifndef HH_SIM_JSONL_H
#define HH_SIM_JSONL_H

#include <cstdint>
#include <cstdio>
#include <string>

namespace hh::sim {

/** Escape a string for embedding in a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** FNV-1a 64-bit hash of @p s (the JSONL row checksum). */
inline std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace hh::sim

#endif // HH_SIM_JSONL_H
