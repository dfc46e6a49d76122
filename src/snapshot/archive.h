/**
 * @file
 * Bidirectional binary archive for deterministic snapshot/restore.
 *
 * One `serialize(Archive &)` method per component both saves and
 * loads, so the two directions cannot drift apart: the archive's mode
 * decides whether each `io()` call writes the value out or reads it
 * back. The encoding is fixed-width little-endian (the simulator only
 * targets little-endian hosts); doubles travel as their IEEE-754 bit
 * pattern so restored values are bit-exact, which the byte-identity
 * contract of the checkpoint subsystem depends on.
 *
 * Unordered containers are serialized in sorted key order so the byte
 * stream is a pure function of the *logical* state, independent of
 * hash-table iteration order.
 *
 * Errors (truncated input, section marker mismatch) latch a flag and
 * message instead of throwing; callers check `ok()` once at the end.
 * The library is dependency-free so the lowest-level simulator code
 * can link it.
 */

#ifndef HH_SNAPSHOT_ARCHIVE_H
#define HH_SNAPSHOT_ARCHIVE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace hh::snap {

class Archive
{
  public:
    /** An archive that serializes into an internal buffer. */
    static Archive forSave() { return Archive(Mode::Save); }

    /** An archive that deserializes from @p bytes. */
    static Archive
    forLoad(std::vector<std::uint8_t> bytes)
    {
        Archive a(Mode::Load);
        a.buf_ = std::move(bytes);
        return a;
    }

    bool saving() const { return mode_ == Mode::Save; }
    bool loading() const { return mode_ == Mode::Load; }

    /** False once any io/section call failed; sticky. */
    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }

    /** Latch the first failure; later io() calls become no-ops. */
    void
    fail(const std::string &msg)
    {
        if (ok_) {
            ok_ = false;
            error_ = msg;
        }
    }

    /** Take the serialized bytes (save mode, after serializing). */
    std::vector<std::uint8_t> take() { return std::move(buf_); }

    /** Unread bytes (load mode). */
    std::size_t remaining() const { return buf_.size() - pos_; }

    /** True when every input byte was consumed (load mode). */
    bool atEnd() const { return pos_ == buf_.size(); }

    /**
     * Structure marker: written on save, verified on load. Sprinkled
     * between component sections so a reader/writer mismatch fails
     * loudly at the boundary instead of silently misparsing the rest
     * of the stream.
     */
    void
    section(std::uint32_t id, const char *what)
    {
        std::uint32_t v = id;
        io(v);
        if (loading() && ok_ && v != id) {
            fail(std::string("snapshot section mismatch at '") +
                 what + "'");
        }
    }

    /** @name Primitive values @{ */
    void
    io(bool &v)
    {
        std::uint8_t b = v ? 1 : 0;
        io(b);
        if (loading())
            v = b != 0;
    }

    void io(std::uint8_t &v) { fixed(v); }
    void io(std::uint16_t &v) { fixed(v); }
    void io(std::uint32_t &v) { fixed(v); }
    void io(std::uint64_t &v) { fixed(v); }
    void io(std::int32_t &v) { fixed(v); }
    void io(std::int64_t &v) { fixed(v); }

    void
    io(double &v)
    {
        std::uint64_t bits;
        if (saving())
            std::memcpy(&bits, &v, sizeof bits);
        io(bits);
        if (loading())
            std::memcpy(&v, &bits, sizeof v);
    }

    void
    io(std::string &s)
    {
        std::uint64_t n = s.size();
        io(n);
        if (loading()) {
            if (!boundCheck(n))
                return;
            s.resize(static_cast<std::size_t>(n));
        }
        if (n > 0)
            bytes(s.data(), static_cast<std::size_t>(n));
    }
    /** @} */

    /** @name Enums (via their underlying integer) @{ */
    template <typename E>
        requires std::is_enum_v<E>
    void
    io(E &e)
    {
        auto v = static_cast<std::int64_t>(
            static_cast<std::underlying_type_t<E>>(e));
        io(v);
        if (loading())
            e = static_cast<E>(
                static_cast<std::underlying_type_t<E>>(v));
    }
    /** @} */

    /** @name Objects exposing serialize(Archive &) @{ */
    template <typename T>
        requires requires(T &t, Archive &a) { t.serialize(a); }
    void
    io(T &t)
    {
        t.serialize(*this);
    }
    /** @} */

    /** @name Containers @{ */
    template <typename T>
    void
    io(std::vector<T> &v)
    {
        std::uint64_t n = v.size();
        io(n);
        if (loading()) {
            if (!boundCheck(n))
                return;
            v.clear();
            v.resize(static_cast<std::size_t>(n));
        }
        for (auto &e : v) {
            if (!ok_)
                return;
            io(e);
        }
    }

    void
    io(std::vector<bool> &v)
    {
        std::uint64_t n = v.size();
        io(n);
        if (loading()) {
            if (!boundCheck(n))
                return;
            v.assign(static_cast<std::size_t>(n), false);
        }
        for (std::size_t i = 0; i < v.size() && ok_; ++i) {
            bool b = v[i];
            io(b);
            if (loading())
                v[i] = b;
        }
    }

    template <typename T>
    void
    io(std::deque<T> &d)
    {
        std::uint64_t n = d.size();
        io(n);
        if (loading()) {
            if (!boundCheck(n))
                return;
            d.clear();
            d.resize(static_cast<std::size_t>(n));
        }
        for (auto &e : d) {
            if (!ok_)
                return;
            io(e);
        }
    }

    template <typename T, std::size_t N>
    void
    io(std::array<T, N> &a)
    {
        for (auto &e : a) {
            if (!ok_)
                return;
            io(e);
        }
    }

    template <typename A, typename B>
    void
    io(std::pair<A, B> &p)
    {
        io(p.first);
        io(p.second);
    }

    template <typename T>
    void
    io(std::optional<T> &o)
    {
        bool has = o.has_value();
        io(has);
        if (loading())
            o = has ? std::optional<T>(T{}) : std::nullopt;
        if (has)
            io(*o);
    }

    /** Unordered set, serialized in ascending key order. */
    template <typename K, typename H, typename Eq>
    void
    io(std::unordered_set<K, H, Eq> &s)
    {
        if (saving()) {
            std::vector<K> keys(s.begin(), s.end());
            std::sort(keys.begin(), keys.end());
            io(keys);
        } else {
            std::vector<K> keys;
            io(keys);
            s.clear();
            s.insert(keys.begin(), keys.end());
        }
    }

    /**
     * Map, ordered or unordered: the count, then key/value pairs in
     * ascending key order.
     */
    template <typename M>
        requires requires { typename M::mapped_type; }
    void
    io(M &m)
    {
        using K = typename M::key_type;
        if (saving()) {
            std::vector<typename M::value_type *> kvs;
            kvs.reserve(m.size());
            for (auto &kv : m)
                kvs.push_back(&kv);
            std::sort(kvs.begin(), kvs.end(),
                      [](const auto *a, const auto *b) {
                          return a->first < b->first;
                      });
            std::uint64_t n = kvs.size();
            io(n);
            for (auto *kv : kvs) {
                K key = kv->first;
                io(key);
                io(kv->second);
            }
        } else {
            std::uint64_t n = 0;
            io(n);
            m.clear();
            for (std::uint64_t i = 0; i < n && ok_; ++i) {
                K k{};
                io(k);
                typename M::mapped_type v{};
                io(v);
                m.emplace(std::move(k), std::move(v));
            }
        }
    }
    /** @} */

    /** Raw byte block (length managed by the caller). */
    void
    bytes(void *p, std::size_t n)
    {
        if (!ok_ || n == 0)
            return;
        if (saving()) {
            const std::size_t at = buf_.size();
            buf_.resize(at + n);
            std::memcpy(buf_.data() + at, p, n);
        } else {
            if (remaining() < n) {
                fail("snapshot truncated: needed " +
                     std::to_string(n) + " bytes, " +
                     std::to_string(remaining()) + " left");
                return;
            }
            std::memcpy(p, buf_.data() + pos_, n);
            pos_ += n;
        }
    }

  private:
    enum class Mode { Save, Load };

    explicit Archive(Mode mode) : mode_(mode) {}

    template <typename T>
    void
    fixed(T &v)
    {
        bytes(&v, sizeof v);
    }

    /** Reject container sizes the remaining input cannot hold. */
    bool
    boundCheck(std::uint64_t n)
    {
        if (!ok_)
            return false;
        if (loading() && n > remaining()) {
            fail("snapshot corrupt: container of " +
                 std::to_string(n) + " elements exceeds " +
                 std::to_string(remaining()) + " remaining bytes");
            return false;
        }
        return true;
    }

    Mode mode_;
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

} // namespace hh::snap

#endif // HH_SNAPSHOT_ARCHIVE_H
