#include "exp/spec.h"

#include <cmath>
#include <sstream>

#include "cache/config.h"
#include "cluster/harvest_policy.h"
#include "sim/log.h"
#include "sim/parse.h"
#include "sim/time.h"

namespace hh::exp {

namespace {

/** Split on whitespace. */
std::vector<std::string>
tokens(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string t;
    while (is >> t)
        out.push_back(t);
    return out;
}

using hh::sim::parseDouble;
using hh::sim::parseUnsigned;

bool
parseBool(const std::string &v, bool *out)
{
    if (v == "true" || v == "1") {
        *out = true;
        return true;
    }
    if (v == "false" || v == "0") {
        *out = false;
        return true;
    }
    return false;
}

/**
 * A harvest-way fraction must carve a non-degenerate region — at
 * least one harvest way AND at least one private way — out of every
 * partitioned structure (the five HarvestMask structures) at the
 * configured way scaling. A fraction that rounds to a 0-way or
 * all-way region would silently disable the partition's isolation
 * (the runtime clamps), so it is rejected at parse time instead.
 */
bool
validHarvestFraction(const hh::cluster::SystemConfig &cfg, double f,
                     std::string *error)
{
    struct Structure
    {
        const char *name;
        hh::cache::Geometry geom;
    };
    static const Structure kMasked[] = {
        {"L1D", hh::cache::kL1D},     {"L1I", hh::cache::kL1I},
        {"L2", hh::cache::kL2},       {"L1TLB", hh::cache::kL1Tlb},
        {"L2TLB", hh::cache::kL2Tlb},
    };
    for (const auto &s : kMasked) {
        const hh::cache::Geometry scaled =
            hh::cache::scaleWays(s.geom, cfg.waysFraction);
        if (scaled.ways < 2)
            continue; // partitioning skips 1-way structures
        const long n =
            std::lround(f * static_cast<double>(scaled.ways));
        if (n >= 1 && n < static_cast<long>(scaled.ways))
            continue;
        if (error) {
            std::ostringstream os;
            os << "harvestWayFraction " << f << " rounds to a "
               << (n < 1 ? "0-way" : "all-way")
               << " harvest region in the " << scaled.ways << "-way "
               << s.name << " (a valid fraction keeps 1.."
               << (scaled.ways - 1) << " harvest ways"
               << (cfg.waysFraction < 1.0 ? " at this waysFraction"
                                          : "")
               << ")";
            *error = os.str();
        }
        return false;
    }
    return true;
}

/**
 * A cache-lend L2 fraction must carve a usable, non-degenerate bonus
 * out of the lender cores' L2 at the configured way scaling: at least
 * one extra harvest way (a fraction that rounds to zero silently
 * leases nothing) while still leaving the owner at least one private
 * way on top of the configured harvestWayFraction region. Mirrors
 * validHarvestFraction's parse-time rejection of silent clamps.
 */
bool
validCacheLendL2Fraction(const hh::cluster::SystemConfig &cfg,
                         double f, std::string *error)
{
    if (f == 0.0)
        return true; // explicit "no L2 bonus"
    const hh::cache::Geometry scaled =
        hh::cache::scaleWays(hh::cache::kL2, cfg.waysFraction);
    if (scaled.ways < 2)
        return true; // partitioning skips 1-way structures
    const long bonus =
        std::lround(f * static_cast<double>(scaled.ways));
    const long base = std::lround(cfg.harvestWayFraction *
                                  static_cast<double>(scaled.ways));
    if (bonus >= 1 && base + bonus < static_cast<long>(scaled.ways)) {
        return true;
    }
    if (error) {
        std::ostringstream os;
        if (bonus < 1) {
            os << "cacheLendL2WayFraction " << f
               << " rounds to a 0-way lease bonus in the "
               << scaled.ways << "-way L2"
               << (cfg.waysFraction < 1.0 ? " at this waysFraction"
                                          : "")
               << " (use 0 to disable the L2 bonus explicitly)";
        } else {
            os << "cacheLendL2WayFraction " << f << " plus "
               << "harvestWayFraction " << cfg.harvestWayFraction
               << " covers all " << scaled.ways
               << " L2 ways (the owner must keep at least one "
                  "private way)";
        }
        *error = os.str();
    }
    return false;
}

} // namespace

bool
systemKindByName(const std::string &name, hh::cluster::SystemKind *out)
{
    using hh::cluster::SystemKind;
    static const std::pair<const char *, SystemKind> kNames[] = {
        {"NoHarvest", SystemKind::NoHarvest},
        {"Harvest-Term", SystemKind::HarvestTerm},
        {"HarvestTerm", SystemKind::HarvestTerm},
        {"Harvest-Block", SystemKind::HarvestBlock},
        {"HarvestBlock", SystemKind::HarvestBlock},
        {"HardHarvest-Term", SystemKind::HardHarvestTerm},
        {"HardHarvestTerm", SystemKind::HardHarvestTerm},
        {"HardHarvest-Block", SystemKind::HardHarvestBlock},
        {"HardHarvestBlock", SystemKind::HardHarvestBlock},
    };
    for (const auto &[n, k] : kNames) {
        if (name == n) {
            *out = k;
            return true;
        }
    }
    return false;
}

bool
applySpecKey(hh::cluster::SystemConfig &cfg, const std::string &key,
             const std::string &value, std::string *error)
{
    const auto fail = [&](const char *what) {
        if (error)
            *error = "key \"" + key + "\": " + what + " \"" + value +
                     "\"";
        return false;
    };
    // Store a double that inRange accepts. Ranges are written as
    // lo < x && x <= hi and negated, never as x <= lo || x > hi, so
    // that NaN fails them.
    const auto setDouble = [&](double *field, auto inRange,
                               const char *what) {
        double x = 0;
        if (!parseDouble(value, &x))
            return fail("bad double");
        if (!inRange(x))
            return fail(what);
        *field = x;
        return true;
    };
    const auto positiveFinite = [](double x) {
        return 0.0 < x && std::isfinite(x);
    };

    // unsigned fields
    if (key == "requestsPerVm")
        return parseUnsigned(value, &cfg.requestsPerVm) ||
               fail("bad unsigned");
    if (key == "accessSampling")
        return parseUnsigned(value, &cfg.accessSampling) ||
               fail("bad unsigned");
    if (key == "cores")
        return parseUnsigned(value, &cfg.cores) || fail("bad unsigned");
    if (key == "primaryVms")
        return parseUnsigned(value, &cfg.primaryVms) ||
               fail("bad unsigned");
    if (key == "coresPerPrimary")
        return parseUnsigned(value, &cfg.coresPerPrimary) ||
               fail("bad unsigned");
    if (key == "hwEmergencyBuffer")
        return parseUnsigned(value, &cfg.hwEmergencyBuffer) ||
               fail("bad unsigned");

    // double fields
    if (key == "loadScale")
        return setDouble(&cfg.loadScale, positiveFinite,
                         "loadScale must be positive and finite, got");
    if (key == "warmupFraction")
        return setDouble(
            &cfg.warmupFraction,
            [](double x) { return 0.0 <= x && x < 1.0; },
            "warmupFraction must be in [0, 1), got");
    if (key == "candidateFraction")
        return setDouble(
            &cfg.candidateFraction,
            [](double x) { return 0.0 < x && x <= 1.0; },
            "candidateFraction must be in (0, 1], got");
    if (key == "harvestWayFraction") {
        double f = 0;
        if (!parseDouble(value, &f))
            return fail("bad double");
        if (!validHarvestFraction(cfg, f, error))
            return false;
        cfg.harvestWayFraction = f;
        return true;
    }
    if (key == "waysFraction") {
        double f = 0;
        if (!parseDouble(value, &f))
            return fail("bad double");
        if (!(0.0 < f && f <= 1.0))
            return fail("waysFraction must be in (0, 1], got");
        cfg.waysFraction = f;
        // Re-check the fraction already configured: shrinking the
        // structures can make a previously fine region degenerate.
        if (!validHarvestFraction(cfg, cfg.harvestWayFraction, error))
            return false;
        return true;
    }
    if (key == "llcMbPerCore")
        return setDouble(&cfg.llcMbPerCore, positiveFinite,
                         "llcMbPerCore must be positive and finite, "
                         "got");

    // bool fields
    if (key == "harvesting")
        return parseBool(value, &cfg.harvesting) || fail("bad bool");
    if (key == "harvestOnBlock")
        return parseBool(value, &cfg.harvestOnBlock) ||
               fail("bad bool");
    if (key == "adaptiveHarvest")
        return parseBool(value, &cfg.adaptiveHarvest) ||
               fail("bad bool");
    if (key == "hwSched")
        return parseBool(value, &cfg.hwSched) || fail("bad bool");
    if (key == "hwQueue")
        return parseBool(value, &cfg.hwQueue) || fail("bad bool");
    if (key == "hwCtxtSwitch")
        return parseBool(value, &cfg.hwCtxtSwitch) || fail("bad bool");
    if (key == "partitioning")
        return parseBool(value, &cfg.partitioning) || fail("bad bool");
    if (key == "efficientFlush")
        return parseBool(value, &cfg.efficientFlush) ||
               fail("bad bool");
    if (key == "swFlushOnReassign")
        return parseBool(value, &cfg.swFlushOnReassign) ||
               fail("bad bool");
    if (key == "swReassignFree")
        return parseBool(value, &cfg.swReassignFree) ||
               fail("bad bool");
    if (key == "harvestVmIdle")
        return parseBool(value, &cfg.harvestVmIdle) || fail("bad bool");
    if (key == "infiniteCaches")
        return parseBool(value, &cfg.infiniteCaches) ||
               fail("bad bool");

    // harvest policy (PR 8)
    if (key == "policy") {
        if (!hh::cluster::knownHarvestPolicy(value))
            return fail("unknown harvest policy (expected static or "
                        "hysteresis), got");
        cfg.policy = value;
        return true;
    }
    if (key == "policyPeriodMs") {
        double ms = 0;
        if (!parseDouble(value, &ms) || !(ms > 0.0))
            return fail("bad positive double");
        // A 0-cycle period would re-arm the policy tick at delay 0
        // forever, and simulated time would never advance.
        if (hh::sim::msToCycles(ms) == 0)
            return fail("policy period rounds to 0 cycles, got");
        cfg.policyPeriod = hh::sim::msToCycles(ms);
        return true;
    }
    if (key == "policyEwmaAlpha")
        return setDouble(
            &cfg.policyEwmaAlpha,
            [](double a) { return 0.0 < a && a <= 1.0; },
            "EWMA alpha must be in (0, 1], got");
    if (key == "policyLendUtil" || key == "policyHoldUtil")
        return setDouble(
            key == "policyLendUtil" ? &cfg.policyLendUtil
                                    : &cfg.policyHoldUtil,
            [](double u) { return 0.0 <= u && u <= 1.0; },
            "utilization threshold must be in [0, 1], got");

    // cache-capacity leasing (src/lease/)
    if (key == "cacheLendEnabled")
        return parseBool(value, &cfg.cacheLendEnabled) ||
               fail("bad bool");
    if (key == "cacheLendL3Ways") {
        unsigned n = 0;
        if (!parseUnsigned(value, &n))
            return fail("bad unsigned");
        // The per-VM L3 partitions are fixed 16-way; a 0-way lease is
        // no lease and a 16-way lease would evict the owner from its
        // own partition, so both degenerate masks are rejected here.
        if (n < 1 || n > 15) {
            if (error)
                *error = "key \"" + key + "\": leased L3 ways must "
                         "be in 1..15 (the owner keeps the rest of "
                         "its 16-way partition), got \"" + value +
                         "\"";
            return false;
        }
        cfg.cacheLendL3Ways = n;
        return true;
    }
    if (key == "cacheLendL2WayFraction") {
        double f = 0;
        if (!parseDouble(value, &f))
            return fail("bad double");
        if (!(0.0 <= f && f < 1.0))
            return fail("L2 lease fraction must be in [0, 1), got");
        if (!validCacheLendL2Fraction(cfg, f, error))
            return false;
        cfg.cacheLendL2WayFraction = f;
        return true;
    }
    if (key == "cacheLendPeriodMs" || key == "cacheLendTermMs") {
        double ms = 0;
        if (!parseDouble(value, &ms) || !(ms > 0.0))
            return fail("bad positive double");
        // A 0-cycle period would re-arm the lease tick at delay 0
        // forever; a 0-cycle term would expire every lease at grant.
        if (hh::sim::msToCycles(ms) == 0)
            return fail("lease period/term rounds to 0 cycles, got");
        (key == "cacheLendPeriodMs" ? cfg.cacheLendPeriod
                                    : cfg.cacheLendTerm) =
            hh::sim::msToCycles(ms);
        return true;
    }

    // enums
    if (key == "repl") {
        using hh::cache::ReplKind;
        if (value == "LRU")
            cfg.repl = ReplKind::LRU;
        else if (value == "RRIP")
            cfg.repl = ReplKind::RRIP;
        else if (value == "HardHarvest")
            cfg.repl = ReplKind::HardHarvest;
        else if (value == "CDP")
            cfg.repl = ReplKind::CDP;
        else
            return fail("unknown replacement policy");
        return true;
    }

    if (error)
        *error = "unknown config key \"" + key + "\"";
    return false;
}

std::vector<ExperimentPoint>
ExperimentSpec::points() const
{
    using hh::cluster::SystemConfig;
    using hh::cluster::SystemKind;

    const std::vector<std::string> sys =
        systems.empty() ? std::vector<std::string>{"HardHarvestBlock"}
                        : systems;
    const std::vector<std::string> app_list =
        apps.empty() ? std::vector<std::string>{"BFS"} : apps;
    const std::vector<std::uint64_t> seed_list =
        seeds.empty() ? std::vector<std::uint64_t>{1} : seeds;

    std::vector<ExperimentPoint> out;
    for (const std::string &sname : sys) {
        SystemKind kind;
        if (!systemKindByName(sname, &kind))
            hh::sim::fatal("ExperimentSpec \"", name,
                           "\": unknown system \"", sname, "\"");
        SystemConfig base = hh::cluster::makeSystem(kind);
        for (const auto &[k, v] : overrides) {
            std::string err;
            if (!applySpecKey(base, k, v, &err))
                hh::sim::fatal("ExperimentSpec \"", name, "\": ", err);
        }

        // Cross product over the sweep axes, last axis fastest.
        std::size_t combos = 1;
        for (const auto &axis : sweeps)
            combos *= axis.values.size();
        for (std::size_t c = 0; c < combos; ++c) {
            SystemConfig cfg = base;
            std::string sweep_label;
            std::size_t rem = c;
            std::vector<std::size_t> idx(sweeps.size(), 0);
            for (std::size_t a = sweeps.size(); a-- > 0;) {
                idx[a] = rem % sweeps[a].values.size();
                rem /= sweeps[a].values.size();
            }
            for (std::size_t a = 0; a < sweeps.size(); ++a) {
                const std::string &v = sweeps[a].values[idx[a]];
                std::string err;
                if (!applySpecKey(cfg, sweeps[a].key, v, &err))
                    hh::sim::fatal("ExperimentSpec \"", name,
                                   "\": ", err);
                sweep_label += "/" + sweeps[a].key + "=" + v;
            }
            for (const std::string &app : app_list) {
                for (const std::uint64_t seed : seed_list) {
                    ExperimentPoint p;
                    p.cfg = cfg;
                    p.batchApp = app;
                    p.seed = seed;
                    p.label = sname + "/" + app + "/seed" +
                              std::to_string(seed) + sweep_label;
                    out.push_back(std::move(p));
                }
            }
        }
    }
    return out;
}

bool
parseSpec(const std::string &text, ExperimentSpec *out,
          std::string *error)
{
    ExperimentSpec spec;
    std::istringstream is(text);
    std::string line;
    unsigned lineno = 0;
    hh::cluster::SystemConfig scratch; // key/value validation only
    while (std::getline(is, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            if (!tokens(line).empty()) {
                if (error)
                    *error = "line " + std::to_string(lineno) +
                             ": expected key = value";
                return false;
            }
            continue;
        }
        const auto key_toks = tokens(line.substr(0, eq));
        const auto vals = tokens(line.substr(eq + 1));
        if (key_toks.size() != 1 || vals.empty()) {
            if (error)
                *error = "line " + std::to_string(lineno) +
                         ": expected key = value";
            return false;
        }
        const std::string &key = key_toks[0];

        if (key == "name") {
            spec.name = vals[0];
        } else if (key == "systems") {
            for (const auto &v : vals) {
                hh::cluster::SystemKind k;
                if (!systemKindByName(v, &k)) {
                    if (error)
                        *error = "line " + std::to_string(lineno) +
                                 ": unknown system \"" + v + "\"";
                    return false;
                }
            }
            spec.systems = vals;
        } else if (key == "apps") {
            spec.apps = vals;
        } else if (key == "seeds") {
            spec.seeds.clear();
            for (const auto &v : vals) {
                unsigned s = 0;
                if (!parseUnsigned(v, &s)) {
                    if (error)
                        *error = "line " + std::to_string(lineno) +
                                 ": bad seed \"" + v + "\"";
                    return false;
                }
                spec.seeds.push_back(s);
            }
        } else if (key.rfind("sweep.", 0) == 0) {
            SweepAxis axis;
            axis.key = key.substr(6);
            axis.values = vals;
            for (const auto &v : vals) {
                std::string err;
                if (!applySpecKey(scratch, axis.key, v, &err)) {
                    if (error)
                        *error = "line " + std::to_string(lineno) +
                                 ": " + err;
                    return false;
                }
            }
            spec.sweeps.push_back(std::move(axis));
        } else {
            if (vals.size() != 1) {
                if (error)
                    *error = "line " + std::to_string(lineno) +
                             ": scalar key \"" + key +
                             "\" takes one value";
                return false;
            }
            std::string err;
            if (!applySpecKey(scratch, key, vals[0], &err)) {
                if (error)
                    *error =
                        "line " + std::to_string(lineno) + ": " + err;
                return false;
            }
            spec.overrides.emplace_back(key, vals[0]);
        }
    }
    *out = std::move(spec);
    return true;
}

} // namespace hh::exp
