/**
 * @file
 * ExperimentSpec contract tests: the key=value text format parses
 * with line-numbered diagnostics, grids expand in the documented
 * order, and applySpecKey() covers every field type.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "cluster/system_config.h"
#include "exp/spec.h"

using hh::cluster::SystemConfig;
using hh::cluster::SystemKind;
using hh::exp::applySpecKey;
using hh::exp::ExperimentSpec;
using hh::exp::parseSpec;
using hh::exp::systemKindByName;

TEST(ExpSpec, ParsesAndExpandsGrid)
{
    const std::string text =
        "# fig19-style candidate sweep\n"
        "name = candidate-sweep\n"
        "systems = HardHarvestBlock NoHarvest\n"
        "apps = BFS PRank\n"
        "seeds = 1 2\n"
        "requestsPerVm = 40\n"
        "sweep.candidateFraction = 0.5 1.0\n";
    ExperimentSpec spec;
    std::string err;
    ASSERT_TRUE(parseSpec(text, &spec, &err)) << err;
    EXPECT_EQ(spec.name, "candidate-sweep");
    ASSERT_EQ(spec.systems.size(), 2u);
    ASSERT_EQ(spec.apps.size(), 2u);
    ASSERT_EQ(spec.seeds.size(), 2u);
    ASSERT_EQ(spec.overrides.size(), 1u);
    ASSERT_EQ(spec.sweeps.size(), 1u);
    EXPECT_EQ(spec.sweeps[0].key, "candidateFraction");

    const auto pts = spec.points();
    ASSERT_EQ(pts.size(), 2u * 2u * 2u * 2u);

    // Systems-major, then sweep combos, then apps, then seeds.
    EXPECT_EQ(pts[0].label,
              "HardHarvestBlock/BFS/seed1/candidateFraction=0.5");
    EXPECT_EQ(pts[1].label,
              "HardHarvestBlock/BFS/seed2/candidateFraction=0.5");
    EXPECT_EQ(pts[2].label,
              "HardHarvestBlock/PRank/seed1/candidateFraction=0.5");
    EXPECT_EQ(pts[4].label,
              "HardHarvestBlock/BFS/seed1/candidateFraction=1.0");
    EXPECT_EQ(pts.back().label,
              "NoHarvest/PRank/seed2/candidateFraction=1.0");

    // Overrides and sweep values land on every expanded config.
    for (const auto &p : pts)
        EXPECT_EQ(p.cfg.requestsPerVm, 40u);
    EXPECT_DOUBLE_EQ(pts[0].cfg.candidateFraction, 0.5);
    EXPECT_DOUBLE_EQ(pts[4].cfg.candidateFraction, 1.0);
    EXPECT_EQ(pts[0].seed, 1u);
    EXPECT_EQ(pts[1].seed, 2u);
    EXPECT_EQ(pts[2].batchApp, "PRank");
}

TEST(ExpSpec, EmptySpecDefaultsToOnePoint)
{
    const ExperimentSpec spec;
    const auto pts = spec.points();
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].label, "HardHarvestBlock/BFS/seed1");
    EXPECT_EQ(pts[0].batchApp, "BFS");
    EXPECT_EQ(pts[0].seed, 1u);
}

TEST(ExpSpec, ErrorsCarryLineNumbers)
{
    ExperimentSpec spec;
    std::string err;

    EXPECT_FALSE(parseSpec("requestsPerVm = 40\nbogusKey = 3\n",
                           &spec, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("bogusKey"), std::string::npos) << err;

    EXPECT_FALSE(parseSpec("requestsPerVm = abc\n", &spec, &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;

    EXPECT_FALSE(parseSpec("systems = NotASystem\n", &spec, &err));
    EXPECT_NE(err.find("unknown system"), std::string::npos) << err;

    EXPECT_FALSE(parseSpec("just some words\n", &spec, &err));
    EXPECT_NE(err.find("expected key = value"), std::string::npos)
        << err;

    EXPECT_FALSE(parseSpec("seeds = 1 two\n", &spec, &err));
    EXPECT_NE(err.find("bad seed"), std::string::npos) << err;
    EXPECT_FALSE(parseSpec("name = x\nseeds = 1 -1\n", &spec, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("bad seed"), std::string::npos) << err;

    // Negative and over-wide unsigned values are rejected, not wrapped.
    for (const char *v : {"-1", "4294967296", "18446744073709551616"}) {
        EXPECT_FALSE(parseSpec("name = x\nrequestsPerVm = " +
                                   std::string(v) + "\n",
                               &spec, &err))
            << v;
        EXPECT_NE(err.find("line 2"), std::string::npos) << err;
        EXPECT_NE(err.find("bad unsigned"), std::string::npos) << err;
    }

    // Sweep values are validated at parse time too.
    EXPECT_FALSE(
        parseSpec("sweep.candidateFraction = 0.5 oops\n", &spec, &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;

    // Scalar keys take exactly one value.
    EXPECT_FALSE(parseSpec("requestsPerVm = 40 80\n", &spec, &err));
    EXPECT_NE(err.find("one value"), std::string::npos) << err;
}

TEST(ExpSpec, CommentsAndBlankLinesIgnored)
{
    ExperimentSpec spec;
    std::string err;
    ASSERT_TRUE(parseSpec("\n# only a comment\n\nname = x # tail\n",
                          &spec, &err))
        << err;
    EXPECT_EQ(spec.name, "x");
}

TEST(ExpSpec, ApplySpecKeyCoversFieldTypes)
{
    SystemConfig cfg;
    std::string err;

    ASSERT_TRUE(applySpecKey(cfg, "requestsPerVm", "123", &err)) << err;
    EXPECT_EQ(cfg.requestsPerVm, 123u);

    ASSERT_TRUE(applySpecKey(cfg, "warmupFraction", "0.25", &err))
        << err;
    EXPECT_DOUBLE_EQ(cfg.warmupFraction, 0.25);

    ASSERT_TRUE(applySpecKey(cfg, "harvesting", "false", &err)) << err;
    EXPECT_FALSE(cfg.harvesting);
    ASSERT_TRUE(applySpecKey(cfg, "harvesting", "1", &err)) << err;
    EXPECT_TRUE(cfg.harvesting);

    ASSERT_TRUE(applySpecKey(cfg, "repl", "CDP", &err)) << err;
    EXPECT_EQ(cfg.repl, hh::cache::ReplKind::CDP);

    EXPECT_FALSE(applySpecKey(cfg, "repl", "FIFO", &err));
    EXPECT_NE(err.find("unknown replacement policy"),
              std::string::npos)
        << err;

    EXPECT_FALSE(applySpecKey(cfg, "noSuchField", "1", &err));
    EXPECT_NE(err.find("unknown config key"), std::string::npos) << err;

    for (const char *v : {"12x", "-1", "4294967296"}) {
        EXPECT_FALSE(applySpecKey(cfg, "requestsPerVm", v, &err)) << v;
        EXPECT_NE(err.find("bad unsigned"), std::string::npos) << err;
    }
    EXPECT_EQ(cfg.requestsPerVm, 123u);
    ASSERT_TRUE(applySpecKey(cfg, "requestsPerVm", "4294967295", &err))
        << err;
    EXPECT_EQ(cfg.requestsPerVm, 4294967295u);

    // NaN and out-of-range doubles are rejected and leave the field
    // as it was.
    const SystemConfig before = cfg;
    const std::pair<const char *, const char *> kBad[] = {
        {"loadScale", "-1"},          {"loadScale", "0"},
        {"loadScale", "nan"},         {"loadScale", "inf"},
        {"warmupFraction", "nan"},    {"warmupFraction", "-0.1"},
        {"warmupFraction", "1"},      {"candidateFraction", "nan"},
        {"candidateFraction", "0"},   {"candidateFraction", "1.5"},
        {"llcMbPerCore", "nan"},      {"llcMbPerCore", "0"},
        {"llcMbPerCore", "inf"},      {"waysFraction", "nan"},
        {"policyEwmaAlpha", "nan"},   {"policyLendUtil", "nan"},
        {"policyHoldUtil", "nan"},    {"cacheLendL2WayFraction", "nan"},
    };
    for (const auto &[key, value] : kBad) {
        EXPECT_FALSE(applySpecKey(cfg, key, value, &err))
            << key << " = " << value;
        EXPECT_NE(err.find(key), std::string::npos) << err;
    }
    EXPECT_DOUBLE_EQ(cfg.loadScale, before.loadScale);
    EXPECT_DOUBLE_EQ(cfg.warmupFraction, before.warmupFraction);
    EXPECT_DOUBLE_EQ(cfg.candidateFraction, before.candidateFraction);
    EXPECT_DOUBLE_EQ(cfg.llcMbPerCore, before.llcMbPerCore);
    EXPECT_DOUBLE_EQ(cfg.waysFraction, before.waysFraction);
    EXPECT_DOUBLE_EQ(cfg.policyEwmaAlpha, before.policyEwmaAlpha);
    EXPECT_DOUBLE_EQ(cfg.policyLendUtil, before.policyLendUtil);
    EXPECT_DOUBLE_EQ(cfg.policyHoldUtil, before.policyHoldUtil);
    EXPECT_DOUBLE_EQ(cfg.cacheLendL2WayFraction,
                     before.cacheLendL2WayFraction);
}

TEST(ExpSpec, SystemKindNamesResolveBothForms)
{
    SystemKind k;
    ASSERT_TRUE(systemKindByName("Harvest-Term", &k));
    EXPECT_EQ(k, SystemKind::HarvestTerm);
    ASSERT_TRUE(systemKindByName("HarvestTerm", &k));
    EXPECT_EQ(k, SystemKind::HarvestTerm);
    ASSERT_TRUE(systemKindByName("NoHarvest", &k));
    EXPECT_EQ(k, SystemKind::NoHarvest);
    ASSERT_TRUE(systemKindByName("HardHarvest-Block", &k));
    EXPECT_EQ(k, SystemKind::HardHarvestBlock);
    EXPECT_FALSE(systemKindByName("hardharvestblock", &k));
    EXPECT_FALSE(systemKindByName("", &k));
}
