#include "exp/ledger.h"

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <vector>

#include "sim/jsonl.h"

namespace hh::exp {

using hh::sim::fnv1a64;
using hh::sim::jsonEscape;

namespace {

constexpr const char *kMagic = "HHRL";
constexpr unsigned kVersion = 1;

/** Separator that cannot appear inside fingerprints or app names. */
constexpr char kUnit = '\x1f';

std::string
headerLine(const ResultLedger::Meta &m)
{
    std::ostringstream os;
    os << "{\"magic\":\"" << kMagic << "\",\"version\":" << kVersion
       << ",\"command\":\"" << jsonEscape(m.command) << "\""
       << ",\"hardware_threads\":" << m.hardwareThreads
       << ",\"pool_workers\":" << m.poolWorkers
       << ",\"single_core_host\":"
       << (m.singleCoreHost ? "true" : "false") << "}\n";
    return os.str();
}

std::string
rowLine(const JobKey &key, const std::string &payload,
        const ResultLedger::Meta &m)
{
    std::ostringstream os;
    os << "{\"kind\":\"" << jsonEscape(key.kind) << "\""
       << ",\"fp\":\"" << jsonEscape(key.fingerprint) << "\""
       << ",\"app\":\"" << jsonEscape(key.app) << "\""
       << ",\"seed\":" << key.seed
       << ",\"hardware_threads\":" << m.hardwareThreads
       << ",\"pool_workers\":" << m.poolWorkers
       << ",\"single_core_host\":"
       << (m.singleCoreHost ? "true" : "false")
       << ",\"payload\":\"" << jsonEscape(payload) << "\""
       << ",\"crc\":" << fnv1a64(key.canonical() + payload)
       << "}\n";
    return os.str();
}

bool
parseBoolToken(const std::string &tok, bool *out)
{
    if (tok == "true") {
        *out = true;
        return true;
    }
    if (tok == "false") {
        *out = false;
        return true;
    }
    return false;
}

bool
parseUnsignedToken(const std::string &tok, std::uint64_t *out)
{
    char *end = nullptr;
    *out = std::strtoull(tok.c_str(), &end, 10);
    return end != tok.c_str() && *end == '\0';
}

} // namespace

std::string
JobKey::canonical() const
{
    std::string s;
    s += kind;
    s += kUnit;
    s += fingerprint;
    s += kUnit;
    s += app;
    s += kUnit;
    s += std::to_string(seed);
    return s;
}

bool
parseJsonLine(const std::string &line,
              std::map<std::string, std::string> *out)
{
    out->clear();
    std::size_t i = 0;
    const auto skipWs = [&] {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t'))
            ++i;
    };
    const auto parseString = [&](std::string *s) {
        if (i >= line.size() || line[i] != '"')
            return false;
        ++i;
        s->clear();
        while (i < line.size() && line[i] != '"') {
            char c = line[i++];
            if (c == '\\') {
                if (i >= line.size())
                    return false;
                const char esc = line[i++];
                switch (esc) {
                case '"': *s += '"'; break;
                case '\\': *s += '\\'; break;
                case 'n': *s += '\n'; break;
                case 'r': *s += '\r'; break;
                case 't': *s += '\t'; break;
                case 'u': {
                    if (i + 4 > line.size())
                        return false;
                    const std::string hex = line.substr(i, 4);
                    char *end = nullptr;
                    const long v = std::strtol(hex.c_str(), &end, 16);
                    if (end != hex.c_str() + 4 || v < 0 || v > 0xFF)
                        return false; // ledger only emits \u00XX
                    *s += static_cast<char>(v);
                    i += 4;
                    break;
                }
                default: return false;
                }
            } else {
                *s += c;
            }
        }
        if (i >= line.size())
            return false;
        ++i; // closing quote
        return true;
    };

    skipWs();
    if (i >= line.size() || line[i] != '{')
        return false;
    ++i;
    skipWs();
    if (i < line.size() && line[i] == '}')
        return true;
    for (;;) {
        skipWs();
        std::string key;
        if (!parseString(&key))
            return false;
        skipWs();
        if (i >= line.size() || line[i] != ':')
            return false;
        ++i;
        skipWs();
        std::string value;
        if (i < line.size() && line[i] == '"') {
            if (!parseString(&value))
                return false;
        } else {
            // Bare token: number / true / false.
            const std::size_t start = i;
            while (i < line.size() && line[i] != ',' &&
                   line[i] != '}' && line[i] != ' ')
                ++i;
            value = line.substr(start, i - start);
            if (value.empty())
                return false;
        }
        (*out)[key] = std::move(value);
        skipWs();
        if (i < line.size() && line[i] == ',') {
            ++i;
            continue;
        }
        break;
    }
    skipWs();
    if (i >= line.size() || line[i] != '}')
        return false;
    ++i;
    skipWs();
    return i == line.size();
}

std::unique_ptr<ResultLedger>
ResultLedger::open(const std::string &path, const Meta &meta,
                   std::string *error)
{
    auto ledger = std::unique_ptr<ResultLedger>(new ResultLedger);
    ledger->path_ = path;
    ledger->meta_ = meta;

    std::string contents;
    bool exists = false;
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        exists = true;
        char buf[1 << 16];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            contents.append(buf, n);
        std::fclose(f);
    }

    std::size_t good_bytes = 0;
    if (exists && !contents.empty()) {
        // Recover: header first, then rows; stop at the first line
        // that is incomplete (no trailing newline) or fails its CRC —
        // everything after a corrupt row is untrusted.
        std::size_t pos = 0;
        bool have_header = false;
        while (pos < contents.size()) {
            const std::size_t nl = contents.find('\n', pos);
            if (nl == std::string::npos)
                break; // partial trailing line: crash mid-append
            const std::string line = contents.substr(pos, nl - pos);
            std::map<std::string, std::string> obj;
            if (!parseJsonLine(line, &obj))
                break;
            if (!have_header) {
                std::uint64_t version = 0;
                if (obj.count("magic") == 0 || obj["magic"] != kMagic ||
                    !parseUnsignedToken(obj["version"], &version) ||
                    version != kVersion) {
                    if (error)
                        *error = "ledger \"" + path +
                                 "\" has a bad header (magic/version)";
                    return nullptr;
                }
                Meta m;
                m.command = obj["command"];
                std::uint64_t v = 0;
                if (parseUnsignedToken(obj["hardware_threads"], &v))
                    m.hardwareThreads = static_cast<unsigned>(v);
                if (parseUnsignedToken(obj["pool_workers"], &v))
                    m.poolWorkers = static_cast<unsigned>(v);
                parseBoolToken(obj["single_core_host"],
                               &m.singleCoreHost);
                ledger->meta_ = m;
                have_header = true;
            } else {
                JobKey key;
                key.kind = obj["kind"];
                key.fingerprint = obj["fp"];
                key.app = obj["app"];
                std::uint64_t seed = 0;
                std::uint64_t crc = 0;
                if (!parseUnsignedToken(obj["seed"], &seed) ||
                    !parseUnsignedToken(obj["crc"], &crc) ||
                    obj.count("payload") == 0)
                    break;
                key.seed = seed;
                const std::string &payload = obj["payload"];
                if (fnv1a64(key.canonical() + payload) != crc)
                    break;
                ledger->index_[key.canonical()] = payload;
                ++ledger->recovered_;
            }
            pos = nl + 1;
            good_bytes = pos;
        }
        if (!have_header) {
            if (error)
                *error = "ledger \"" + path +
                         "\" exists but has no valid header";
            return nullptr;
        }
        if (good_bytes < contents.size()) {
            ledger->dropped_ = 1;
            std::error_code ec;
            std::filesystem::resize_file(path, good_bytes, ec);
            if (ec) {
                if (error)
                    *error = "cannot truncate partial tail of \"" +
                             path + "\": " + ec.message();
                return nullptr;
            }
        }
    }

    ledger->file_ = std::fopen(path.c_str(), "ab");
    if (!ledger->file_) {
        if (error)
            *error = "cannot open ledger \"" + path +
                     "\" for append";
        return nullptr;
    }
    if (!exists || contents.empty()) {
        const std::string header = headerLine(meta);
        if (std::fwrite(header.data(), 1, header.size(),
                        ledger->file_) != header.size()) {
            if (error)
                *error = "cannot write ledger header to \"" + path +
                         "\"";
            return nullptr;
        }
        std::fflush(ledger->file_);
    }
    return ledger;
}

ResultLedger::~ResultLedger()
{
    if (file_)
        std::fclose(file_);
}

bool
ResultLedger::lookup(const JobKey &key, std::string *payload) const
{
    const auto it = index_.find(key.canonical());
    if (it == index_.end())
        return false;
    if (payload)
        *payload = it->second;
    return true;
}

bool
ResultLedger::append(const JobKey &key, const std::string &payload,
                     std::string *error)
{
    const std::string canon = key.canonical();
    if (index_.count(canon)) {
        if (error)
            *error = "duplicate ledger key: " + canon;
        return false;
    }
    const std::string line = rowLine(key, payload, meta_);
    if (std::fwrite(line.data(), 1, line.size(), file_) !=
            line.size() ||
        std::fflush(file_) != 0) {
        if (error)
            *error = "ledger append to \"" + path_ + "\" failed";
        return false;
    }
    index_[canon] = payload;
    return true;
}

} // namespace hh::exp
