#include "svc/graph_spec.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

#include "sim/log.h"
#include "sim/parse.h"
#include "workload/alibaba.h"
#include "workload/service.h"

namespace hh::svc {

namespace {

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

using hh::sim::parseDouble;
using hh::sim::parseUnsigned;

/** "a..b" (inclusive) or a single "a". */
bool
parseRange(const std::string &v, unsigned *lo, unsigned *hi)
{
    const auto dots = v.find("..");
    if (dots == std::string::npos) {
        if (!parseUnsigned(v, lo))
            return false;
        *hi = *lo;
        return true;
    }
    return parseUnsigned(v.substr(0, dots), lo) &&
           parseUnsigned(v.substr(dots + 2), hi);
}

bool
knownService(const std::string &name)
{
    for (const auto &s : hh::workload::deathStarBenchServices()) {
        if (s.name == name)
            return true;
    }
    return false;
}

/**
 * Structure checks that need no server-shape context. The packet
 * header bit-packs srcServer into 16 bits, dstVm into 10 and tier
 * into 8 (src/net/packet.h), so those widths are spec limits too.
 */
bool
validateStructure(const ServiceGraphSpec &spec, std::string *error)
{
    const auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    std::ostringstream os;
    if (spec.name.empty())
        return fail("graph.name must be non-empty");
    if (spec.servers == 0)
        return fail("graph.servers must be > 0");
    if (spec.servers > 65535)
        return fail("graph.servers exceeds the 16-bit packet field");
    if (!(spec.rpcLatencyUs > 0.0))
        return fail("graph.rpcLatencyUs must be > 0");
    if (spec.maxLiveNodesPerVm == 0)
        return fail("graph.maxLiveNodesPerVm must be >= 1");
    if (spec.tiers.empty())
        return fail("a graph needs at least one tier");
    if (spec.tiers.size() > 255)
        return fail("tier count exceeds the 8-bit packet field");
    for (std::size_t t = 0; t < spec.tiers.size(); ++t) {
        const TierSpec &tier = spec.tiers[t];
        os.str("");
        os << "tier" << t << ": ";
        if (tier.service.empty())
            return fail(os.str() + "service must be set");
        if (!knownService(tier.service))
            return fail(os.str() + "unknown service '" +
                        tier.service + "'");
        if (tier.serverLo > tier.serverHi)
            return fail(os.str() + "server range is inverted");
        if (tier.serverHi >= spec.servers) {
            os << "server range ends at " << tier.serverHi
               << " but the graph has " << spec.servers << " servers";
            return fail(os.str());
        }
        if (tier.vmsPerServer == 0)
            return fail(os.str() + "vms must be >= 1");
        const bool last = t + 1 == spec.tiers.size();
        if (last && tier.fanout != 0) {
            os << "the last tier must have fanout 0 (got "
               << tier.fanout << ")";
            return fail(os.str());
        }
        if (!last && tier.fanout == 0)
            return fail(os.str() +
                        "only the last tier may have fanout 0");
    }
    return true;
}

} // namespace

std::string
ServiceGraphSpec::canonicalText() const
{
    std::ostringstream os;
    os << "graph.name = " << name << "\n";
    os << "graph.servers = " << servers << "\n";
    os << std::setprecision(17);
    os << "graph.rpcLatencyUs = " << rpcLatencyUs << "\n";
    os << "graph.maxLiveNodesPerVm = " << maxLiveNodesPerVm << "\n";
    for (std::size_t t = 0; t < tiers.size(); ++t) {
        const TierSpec &tier = tiers[t];
        os << "tier" << t << ".service = " << tier.service << "\n";
        os << "tier" << t << ".fanout = " << tier.fanout << "\n";
        os << "tier" << t << ".mode = "
           << (tier.sync ? "sync" : "async") << "\n";
        os << "tier" << t << ".servers = " << tier.serverLo << ".."
           << tier.serverHi << "\n";
        os << "tier" << t << ".vms = " << tier.vmsPerServer << "\n";
    }
    return os.str();
}

bool
parseGraphSpec(const std::string &text, ServiceGraphSpec *out,
               std::string *error)
{
    ServiceGraphSpec spec;
    spec.name.clear();
    std::map<unsigned, TierSpec> tiers;

    std::istringstream is(text);
    std::string raw;
    unsigned lineno = 0;
    const auto fail = [&](const std::string &msg) {
        if (error) {
            std::ostringstream os;
            os << "line " << lineno << ": " << msg;
            *error = os.str();
        }
        return false;
    };

    while (std::getline(is, raw)) {
        ++lineno;
        const auto hash = raw.find('#');
        if (hash != std::string::npos)
            raw.erase(hash);
        const std::string line = trim(raw);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            return fail("expected 'key = value'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty() || value.empty())
            return fail("expected 'key = value'");

        if (key == "graph.name") {
            spec.name = value;
        } else if (key == "graph.servers") {
            if (!parseUnsigned(value, &spec.servers))
                return fail("invalid unsigned '" + value + "'");
        } else if (key == "graph.rpcLatencyUs") {
            if (!parseDouble(value, &spec.rpcLatencyUs))
                return fail("invalid number '" + value + "'");
        } else if (key == "graph.maxLiveNodesPerVm") {
            if (!parseUnsigned(value, &spec.maxLiveNodesPerVm))
                return fail("invalid unsigned '" + value + "'");
        } else if (key.rfind("tier", 0) == 0) {
            const auto dot = key.find('.');
            if (dot == std::string::npos)
                return fail("expected tierN.<key>");
            unsigned idx = 0;
            if (!parseUnsigned(key.substr(4, dot - 4), &idx))
                return fail("invalid tier index in '" + key + "'");
            TierSpec &tier = tiers[idx];
            const std::string sub = key.substr(dot + 1);
            if (sub == "service") {
                tier.service = value;
            } else if (sub == "fanout") {
                if (!parseUnsigned(value, &tier.fanout))
                    return fail("invalid unsigned '" + value + "'");
            } else if (sub == "mode") {
                if (value == "sync")
                    tier.sync = true;
                else if (value == "async")
                    tier.sync = false;
                else
                    return fail("mode must be sync or async, got '" +
                                value + "'");
            } else if (sub == "servers") {
                if (!parseRange(value, &tier.serverLo,
                                &tier.serverHi))
                    return fail("invalid server range '" + value +
                                "' (want a..b)");
            } else if (sub == "vms") {
                if (!parseUnsigned(value, &tier.vmsPerServer))
                    return fail("invalid unsigned '" + value + "'");
            } else {
                return fail("unknown tier key '" + sub + "'");
            }
        } else {
            return fail("unknown key '" + key + "'");
        }
    }

    // Assemble the tier vector; indices must be contiguous from 0.
    lineno = 0; // structural errors below are not line-specific
    for (const auto &[idx, tier] : tiers) {
        if (idx != spec.tiers.size()) {
            if (error) {
                std::ostringstream os;
                os << "tier indices must be contiguous from 0 "
                      "(missing tier"
                   << spec.tiers.size() << ")";
                *error = os.str();
            }
            return false;
        }
        spec.tiers.push_back(tier);
    }
    if (spec.name.empty())
        spec.name = "graph";
    if (!validateStructure(spec, error))
        return false;
    *out = std::move(spec);
    return true;
}

bool
validateGraphSpec(const ServiceGraphSpec &spec, unsigned primaryVms,
                  std::string *error)
{
    if (!validateStructure(spec, error))
        return false;
    if (primaryVms > 1024) {
        if (error)
            *error = "primaryVms exceeds the 10-bit packet vm field";
        return false;
    }
    // Per-server capacity: the tiers hosted on a server must fit in
    // its Primary slots together.
    std::vector<unsigned> used(spec.servers, 0);
    for (std::size_t t = 0; t < spec.tiers.size(); ++t) {
        const TierSpec &tier = spec.tiers[t];
        for (unsigned s = tier.serverLo; s <= tier.serverHi; ++s)
            used[s] += tier.vmsPerServer;
    }
    for (unsigned s = 0; s < spec.servers; ++s) {
        if (used[s] > primaryVms) {
            if (error) {
                std::ostringstream os;
                os << "server " << s << " would host " << used[s]
                   << " tier VMs but has only " << primaryVms
                   << " Primary slots";
                *error = os.str();
            }
            return false;
        }
    }
    return true;
}

ServiceGraphSpec
makeLayeredGraphSpec(unsigned depth, unsigned fanout, unsigned servers)
{
    if (depth == 0 || servers < depth)
        hh::sim::fatal("makeLayeredGraphSpec: need depth >= 1 and ",
                       "servers >= depth (got depth=", depth,
                       " servers=", servers, ")");
    const auto services = hh::workload::deathStarBenchServices();
    ServiceGraphSpec spec;
    std::ostringstream os;
    os << "layered-d" << depth << "-f" << fanout;
    spec.name = os.str();
    spec.servers = servers;
    // Even contiguous partition: the first (servers % depth) ranges
    // get one extra server.
    unsigned next = 0;
    for (unsigned t = 0; t < depth; ++t) {
        const unsigned size =
            servers / depth + (t < servers % depth ? 1 : 0);
        TierSpec tier;
        tier.service = services[t % services.size()].name;
        tier.fanout = t + 1 < depth ? fanout : 0;
        tier.sync = true;
        tier.serverLo = next;
        tier.serverHi = next + size - 1;
        tier.vmsPerServer = 8;
        next += size;
        spec.tiers.push_back(tier);
    }
    return spec;
}

GraphPlacement
buildGraphPlacement(const ServiceGraphSpec &spec,
                    const hh::cluster::SystemConfig &cfg,
                    std::uint64_t seed)
{
    std::string err;
    if (!validateGraphSpec(spec, cfg.primaryVms, &err))
        hh::sim::fatal("buildGraphPlacement: invalid spec: ", err);

    GraphPlacement out;
    out.plans.resize(spec.servers);
    auto routing = std::make_shared<GraphRouting>();
    routing->tierSlots.resize(spec.tiers.size());

    std::vector<unsigned> nextFree(spec.servers, 0);
    for (auto &plan : out.plans) {
        plan.enabled = true;
        plan.vms.resize(cfg.primaryVms);
    }
    for (std::size_t t = 0; t < spec.tiers.size(); ++t) {
        const TierSpec &tier = spec.tiers[t];
        for (unsigned s = tier.serverLo; s <= tier.serverHi; ++s) {
            for (unsigned i = 0; i < tier.vmsPerServer; ++i) {
                const unsigned vm = nextFree[s]++;
                hh::cluster::GraphVmPlan &gp = out.plans[s].vms[vm];
                gp.used = true;
                gp.front = t == 0;
                gp.tier = static_cast<std::uint32_t>(t);
                gp.service = tier.service;
                routing->tierSlots[t].emplace_back(s, vm);
            }
        }
    }

    // Front-tier load imbalance: per-VM rate scales drawn from one
    // Alibaba-like stream in (server, vm) slot order, so the draw
    // sequence is independent of worker count and of which server
    // constructs first.
    hh::workload::AlibabaTrace trace(seed);
    for (const auto &[s, vm] : routing->tierSlots[0]) {
        const double util = trace.drawAvgUtil();
        const double scale =
            util / hh::workload::kAlibabaMedianAvgUtil;
        out.plans[s].vms[vm].rateScale =
            std::clamp(scale, 0.25, 3.0);
    }

    out.routing = std::move(routing);
    return out;
}

} // namespace hh::svc
