#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <string>

#include "common/config.hh"
#include "common/logging.hh"

namespace astra
{
namespace
{

TEST(Config, TableIvDefaults)
{
    SimConfig cfg;
    // Intra-package (Table IV).
    EXPECT_DOUBLE_EQ(cfg.local.bandwidth, 200.0);
    EXPECT_EQ(cfg.local.latency, 90u);
    EXPECT_DOUBLE_EQ(cfg.local.efficiency, 0.94);
    EXPECT_EQ(cfg.local.packetSize, 512u);
    EXPECT_EQ(cfg.local.rings, 2);
    // Inter-package.
    EXPECT_DOUBLE_EQ(cfg.package.bandwidth, 25.0);
    EXPECT_EQ(cfg.package.latency, 200u);
    EXPECT_EQ(cfg.package.packetSize, 256u);
    EXPECT_EQ(cfg.package.rings, 2);
    // NPU / NMU.
    EXPECT_EQ(cfg.flitWidthBits, 1024);
    EXPECT_EQ(cfg.routerLatency, 1u);
    EXPECT_EQ(cfg.vcsPerVnet, 50);
    EXPECT_EQ(cfg.buffersPerVc, 5000);
    EXPECT_EQ(cfg.endpointDelay, 10u);
}

TEST(Config, TorusAndAllToAllHelpers)
{
    SimConfig cfg;
    cfg.torus(4, 4, 4);
    EXPECT_EQ(cfg.topology, TopologyKind::Torus3D);
    EXPECT_EQ(cfg.numNpus(), 64);
    EXPECT_EQ(cfg.numPackages(), 16);

    cfg.allToAll(2, 8, 7);
    EXPECT_EQ(cfg.topology, TopologyKind::AllToAll);
    EXPECT_EQ(cfg.numNpus(), 16);
    EXPECT_EQ(cfg.globalSwitches, 7);
    EXPECT_EQ(cfg.verticalDim, 1);
}

TEST(Config, SetCoversTableIiiParameters)
{
    SimConfig cfg;
    cfg.set("dnn-name", "resnet50.txt");
    cfg.set("num-passes", "3");
    cfg.set("algorithm", "enhanced");
    cfg.set("topology", "AllToAll");
    cfg.set("scheduling-policy", "FIFO");
    cfg.set("global-switches", "7");
    cfg.set("endpoint-delay", "25");
    cfg.set("packet-routing", "hardware");
    cfg.set("injection-policy", "aggressive");
    cfg.set("preferred-set-splits", "8");
    cfg.set("local-link-efficiency", "0.9");
    cfg.set("package-link-efficiency", "0.8");
    cfg.set("flit-width", "512");
    cfg.set("local-packet-size", "1KB");
    cfg.set("package-packet-size", "128");
    cfg.set("vcs-per-vnet", "4");
    cfg.set("router-latency", "2");
    cfg.set("local-link-latency", "45");
    cfg.set("package-link-latency", "400");
    cfg.set("buffers-per-vc", "16");
    cfg.set("local-rings", "4");
    cfg.set("horizontal-rings", "3");

    EXPECT_EQ(cfg.dnnName, "resnet50.txt");
    EXPECT_EQ(cfg.numPasses, 3);
    EXPECT_EQ(cfg.algorithm, AlgorithmFlavor::Enhanced);
    EXPECT_EQ(cfg.topology, TopologyKind::AllToAll);
    EXPECT_EQ(cfg.schedulingPolicy, SchedulingPolicy::FIFO);
    EXPECT_EQ(cfg.globalSwitches, 7);
    EXPECT_EQ(cfg.endpointDelay, 25u);
    EXPECT_EQ(cfg.packetRouting, PacketRouting::Hardware);
    EXPECT_EQ(cfg.injectionPolicy, InjectionPolicy::Aggressive);
    EXPECT_EQ(cfg.preferredSetSplits, 8);
    EXPECT_DOUBLE_EQ(cfg.local.efficiency, 0.9);
    EXPECT_DOUBLE_EQ(cfg.package.efficiency, 0.8);
    EXPECT_EQ(cfg.flitWidthBits, 512);
    EXPECT_EQ(cfg.local.packetSize, 1024u);
    EXPECT_EQ(cfg.package.packetSize, 128u);
    EXPECT_EQ(cfg.vcsPerVnet, 4);
    EXPECT_EQ(cfg.routerLatency, 2u);
    EXPECT_EQ(cfg.local.latency, 45u);
    EXPECT_EQ(cfg.package.latency, 400u);
    EXPECT_EQ(cfg.buffersPerVc, 16);
    EXPECT_EQ(cfg.local.rings, 4);
    EXPECT_EQ(cfg.package.rings, 3);
}

TEST(Config, SetAcceptsUnderscoresAndCase)
{
    SimConfig cfg;
    cfg.set("NUM_PASSES", "5");
    EXPECT_EQ(cfg.numPasses, 5);
}

TEST(Config, SetRejectsUnknownKeysAndBadValues)
{
    SimConfig cfg;
    EXPECT_THROW(cfg.set("no-such-param", "1"), FatalError);
    EXPECT_THROW(cfg.set("num-passes", "abc"), FatalError);
    EXPECT_THROW(cfg.set("num-passes", "3x"), FatalError);
    EXPECT_THROW(cfg.set("algorithm", "fancy"), FatalError);
    EXPECT_THROW(cfg.set("topology", "hypercube"), FatalError);
    EXPECT_THROW(cfg.set("scheduling-policy", "random"), FatalError);
}

TEST(Config, LoadFileParsesKeyValueWithComments)
{
    const char *path = "/tmp/astra_config_test.cfg";
    {
        std::ofstream out(path);
        out << "# a comment\n"
            << "num-passes = 4\n"
            << "\n"
            << "algorithm=enhanced   # trailing comment\n"
            << "  local-dim = 2  \n";
    }
    SimConfig cfg;
    cfg.loadFile(path);
    EXPECT_EQ(cfg.numPasses, 4);
    EXPECT_EQ(cfg.algorithm, AlgorithmFlavor::Enhanced);
    EXPECT_EQ(cfg.localDim, 2);
    std::remove(path);
}

TEST(Config, LoadFileErrors)
{
    SimConfig cfg;
    EXPECT_THROW(cfg.loadFile("/nonexistent/file.cfg"), FatalError);
    const char *path = "/tmp/astra_config_bad.cfg";
    {
        std::ofstream out(path);
        out << "this is not key value\n";
    }
    EXPECT_THROW(cfg.loadFile(path), FatalError);
    std::remove(path);
}

TEST(Config, LoadFileHandlesCrlfAndMissingTrailingNewline)
{
    const char *path = "/tmp/astra_config_crlf.cfg";
    {
        std::ofstream out(path, std::ios::binary);
        out << "# dos file\r\n"
            << "num-passes = 4\r\n"
            << "\r\n"
            << "local-dim = 2"; // no trailing newline
    }
    SimConfig cfg;
    cfg.loadFile(path);
    EXPECT_EQ(cfg.numPasses, 4);
    EXPECT_EQ(cfg.localDim, 2);
    std::remove(path);
}

TEST(Config, LoadFileCollectsAllErrorsWithFileAndLine)
{
    const char *path = "/tmp/astra_config_multi_bad.cfg";
    {
        std::ofstream out(path);
        out << "num-passes = 4\n"      // fine
            << "not a key value\n"     // malformed line
            << "no-such-param = 1\n"   // unknown key
            << "flit-width = 4\n"      // out of range (min 8)
            << "local-dim = 2\n"       // fine
            << "local-dim = 3\n";      // duplicate key
    }
    SimConfig cfg;
    try {
        cfg.loadFile(path);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("4 error(s)"), std::string::npos) << what;
        EXPECT_NE(what.find(":2:"), std::string::npos) << what;
        EXPECT_NE(what.find(":3:"), std::string::npos) << what;
        EXPECT_NE(what.find(":4:"), std::string::npos) << what;
        EXPECT_NE(what.find(":6:"), std::string::npos) << what;
        EXPECT_NE(what.find("unknown parameter"), std::string::npos)
            << what;
        EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
    }
    std::remove(path);
}

TEST(Config, KeyTableMatchesParametersDoc)
{
    // Both directions drift: a new key lands without docs, or a doc
    // row outlives a rename. The documented names are the backticked
    // words in the first column of the docs/PARAMETERS.md tables.
    std::ifstream doc(std::string(ASTRA_SOURCE_DIR) + "/docs/PARAMETERS.md");
    ASSERT_TRUE(doc.good());
    std::set<std::string> documented;
    std::regex name("`([a-z0-9-]+)`");
    std::string line;
    while (std::getline(doc, line)) {
        if (line.rfind('|', 0) != 0)
            continue;
        std::string first = line.substr(1, line.find('|', 1) - 1);
        for (auto it = std::sregex_iterator(first.begin(), first.end(), name);
             it != std::sregex_iterator(); ++it)
            documented.insert((*it)[1].str());
    }
    std::vector<std::string> names = SimConfig::keyNames();
    std::set<std::string> parsed(names.begin(), names.end());
    EXPECT_EQ(parsed.size(), names.size()) << "a key is listed twice";
    for (const std::string &k : parsed)
        EXPECT_TRUE(documented.count(k)) << k << " is not documented";
    for (const std::string &k : documented)
        EXPECT_TRUE(parsed.count(k)) << k << " is documented but not parsed";
}

TEST(Config, TrySetReportsInsteadOfThrowing)
{
    SimConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.trySet("num-passes", "3", &err));
    EXPECT_EQ(cfg.numPasses, 3);
    EXPECT_FALSE(cfg.trySet("num-passes", "abc", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(cfg.numPasses, 3); // unchanged on failure
    EXPECT_FALSE(cfg.trySet("no-such-param", "1", &err));
    EXPECT_NE(err.find("unknown parameter"), std::string::npos);
}

TEST(Config, FaultKeysAreRepeatableAndValidated)
{
    SimConfig cfg;
    cfg.set("fault", "down link=0 from=0 to=10");
    cfg.set("fault", "straggle node=1 factor=2");
    ASSERT_EQ(cfg.faultRules.size(), 2u);
    cfg.set("fault-plan", "/tmp/some_plan.txt");
    EXPECT_EQ(cfg.faultPlanFile, "/tmp/some_plan.txt");
    cfg.set("fault-timeout", "500");
    EXPECT_EQ(cfg.faultTimeout, 500u);
    cfg.set("fault-max-retries", "0");
    EXPECT_EQ(cfg.faultMaxRetries, 0);
    EXPECT_THROW(cfg.set("fault-timeout", "0"), FatalError);
    EXPECT_THROW(cfg.set("fault-max-retries", "-1"), FatalError);
}

TEST(Config, RepeatedFaultKeyIsNotADuplicateInFiles)
{
    const char *path = "/tmp/astra_config_faults.cfg";
    {
        std::ofstream out(path);
        out << "fault = down link=0 from=0 to=10\n"
            << "fault = drop link=1 every=8\n";
    }
    SimConfig cfg;
    cfg.loadFile(path);
    EXPECT_EQ(cfg.faultRules.size(), 2u);
    std::remove(path);
}

TEST(Config, ValidateCatchesBadConfigurations)
{
    {
        SimConfig cfg;
        cfg.torus(1, 1, 1);
        EXPECT_THROW(cfg.validate(), FatalError); // < 2 NPUs
    }
    {
        SimConfig cfg;
        cfg.torus(2, 2, 2);
        cfg.local.bandwidth = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        SimConfig cfg;
        cfg.torus(2, 2, 2);
        cfg.local.efficiency = 1.5;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        SimConfig cfg;
        cfg.allToAll(2, 4);
        cfg.verticalDim = 2; // inconsistent with AllToAll family
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        SimConfig cfg;
        cfg.torus(2, 2, 2);
        cfg.preferredSetSplits = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        SimConfig cfg;
        cfg.torus(2, 2, 2);
        cfg.lsqConcurrency = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        SimConfig cfg;
        cfg.torus(2, 2, 2);
        EXPECT_NO_THROW(cfg.validate());
    }
}

TEST(Config, RejectsNonFiniteAndNegativeDoubles)
{
    const SimConfig before;
    SimConfig cfg;
    std::string err;
    EXPECT_FALSE(cfg.trySet("local-link-bw", "inf", &err));
    EXPECT_NE(err.find("local-link-bw"), std::string::npos) << err;
    EXPECT_FALSE(cfg.trySet("local-pj-per-bit", "nan", &err));
    EXPECT_NE(err.find("local-pj-per-bit"), std::string::npos) << err;
    EXPECT_FALSE(cfg.trySet("package-pj-per-bit", "-4", &err));
    EXPECT_NE(err.find(">= 0"), std::string::npos) << err;
    EXPECT_DOUBLE_EQ(cfg.local.bandwidth, before.local.bandwidth);
    EXPECT_DOUBLE_EQ(cfg.energy.localPjPerBit, before.energy.localPjPerBit);
    EXPECT_DOUBLE_EQ(cfg.energy.packagePjPerBit,
                     before.energy.packagePjPerBit);
    EXPECT_EQ(cfg.toString(), before.toString());
}

TEST(Config, DefaultsValidateAndBudgetZeroMeansOff)
{
    // Every key's default lies inside its range; only the topology
    // needs the two NPUs of the cross-field rule.
    SimConfig cfg;
    cfg.torus(2, 1, 1);
    EXPECT_NO_THROW(cfg.validate());
    for (const char *key : {"max-events", "max-sim-time", "max-slab-bytes",
                            "watchdog-window"}) {
        std::string err;
        EXPECT_TRUE(cfg.trySet(key, "5", &err)) << key << ": " << err;
        EXPECT_TRUE(cfg.trySet(key, "0", &err)) << key << ": " << err;
    }
    EXPECT_EQ(cfg.maxEvents, 0u);
    EXPECT_EQ(cfg.maxSimTime, 0u);
    EXPECT_EQ(cfg.maxSlabBytes, 0u);
    EXPECT_EQ(cfg.watchdogWindow, 0u);
    EXPECT_NO_THROW(cfg.validate());
}

template <typename E>
void
expectNamesRoundTrip(const std::vector<const char *> &displayNames)
{
    const EnumNames &names = enumNames(E{});
    ASSERT_EQ(names.size(), displayNames.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const E value = static_cast<E>(i);
        EXPECT_STREQ(toString(value), displayNames[i]);
        std::vector<std::string> spellings = {toString(value)};
        for (const char *alias : names[i]) {
            std::string upper = alias;
            for (char &ch : upper)
                ch = static_cast<char>(std::toupper(ch));
            spellings.push_back(alias);
            spellings.push_back(upper);
        }
        for (const std::string &s : spellings) {
            E out = static_cast<E>((i + 1) % names.size());
            EXPECT_EQ(parseValue(s, &out), "") << s;
            EXPECT_EQ(out, value) << s;
        }
    }
    E untouched = E{};
    EXPECT_NE(parseValue("no-such-value", &untouched), "");
    EXPECT_EQ(untouched, E{});
}

TEST(Config, EnumNameTablesRoundTrip)
{
    // The display names feed SimConfig::toString() and with it the
    // explore journal key, so they must not change.
    expectNamesRoundTrip<TopologyKind>({"Torus3D", "AllToAll"});
    expectNamesRoundTrip<AlgorithmFlavor>({"baseline", "enhanced"});
    expectNamesRoundTrip<SchedulingPolicy>({"LIFO", "FIFO",
                                            "layer-priority"});
    expectNamesRoundTrip<NetworkBackend>({"analytical", "garnet-lite"});
    expectNamesRoundTrip<PacketRouting>({"software", "hardware"});
    expectNamesRoundTrip<InjectionPolicy>({"normal", "aggressive"});
}

TEST(Config, ToStringMentionsKeyFacts)
{
    SimConfig cfg;
    cfg.torus(4, 4, 4);
    std::string s = cfg.toString();
    EXPECT_NE(s.find("Torus3D"), std::string::npos);
    EXPECT_NE(s.find("npus=64"), std::string::npos);
    EXPECT_NE(s.find("baseline"), std::string::npos);
}

} // namespace
} // namespace astra
