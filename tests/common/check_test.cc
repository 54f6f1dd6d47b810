/**
 * @file
 * Integrity-layer tests (docs/validation.md): the ASTRA_CHECK macro
 * family, the validation-level switch, the ValidatorRegistry, the
 * determinism digest, and — the heart of the layer — death tests
 * proving each checker actually catches an injected violation.
 */

#include <gtest/gtest.h>

#include "collective/chunk_state.hh"
#include "collective/validate.hh"
#include "common/check.hh"
#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/validate.hh"
#include "core/cluster.hh"
#include "net/validate.hh"

namespace astra
{
namespace
{

/** Pin the process-global validation level for one test body. */
class ScopedValidation
{
  public:
    explicit ScopedValidation(ValidateLevel level)
        : _prev(validationLevel())
    {
        setValidationLevel(level);
    }

    ~ScopedValidation() { setValidationLevel(_prev); }

  private:
    ValidateLevel _prev;
};

std::string
failureMessage(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return std::string();
}

// --- the macro family ------------------------------------------------

TEST(Check, PassingCheckIsSilent)
{
    ASTRA_CHECK(1 + 1 == 2, "never printed");
    ASTRA_DCHECK(1 + 1 == 2, "never printed");
}

TEST(Check, FailingCheckCarriesLocationExpressionAndValues)
{
    const int npu = 7;
    const std::string msg = failureMessage(
        [&] { ASTRA_CHECK(npu < 4, "npu=%d out of range", npu); });
    EXPECT_NE(msg.find("check_test.cc"), std::string::npos) << msg;
    EXPECT_NE(msg.find("npu < 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("npu=7"), std::string::npos) << msg;
}

TEST(Check, DcheckConditionIsNotEvaluatedInOffBuilds)
{
#ifndef ASTRA_VALIDATE
    int evaluations = 0;
    ASTRA_DCHECK(++evaluations > 0, "off build must not evaluate");
    EXPECT_EQ(evaluations, 0);
#else
    EXPECT_THROW(ASTRA_DCHECK(false, "on build must check"),
                 FatalError);
#endif
}

TEST(Check, LevelParseAndRoundTrip)
{
    EXPECT_EQ(parseValidateLevel(""), ValidateLevel::kFull);
    EXPECT_EQ(parseValidateLevel("full"), ValidateLevel::kFull);
    EXPECT_EQ(parseValidateLevel("2"), ValidateLevel::kFull);
    EXPECT_EQ(parseValidateLevel("basic"), ValidateLevel::kBasic);
    EXPECT_EQ(parseValidateLevel("1"), ValidateLevel::kBasic);
    EXPECT_EQ(parseValidateLevel("off"), ValidateLevel::kOff);
    EXPECT_EQ(parseValidateLevel("0"), ValidateLevel::kOff);
    EXPECT_THROW(parseValidateLevel("loud"), FatalError);
    EXPECT_STREQ(toString(ValidateLevel::kBasic), "basic");
}

TEST(Check, LevelThresholding)
{
    ScopedValidation guard(ValidateLevel::kBasic);
    EXPECT_TRUE(validationAtLeast(ValidateLevel::kOff));
    EXPECT_TRUE(validationAtLeast(ValidateLevel::kBasic));
    EXPECT_FALSE(validationAtLeast(ValidateLevel::kFull));
}

// --- the registry ----------------------------------------------------

TEST(ValidatorRegistryTest, RunsCheckersInRegistrationOrder)
{
    ValidatorRegistry reg;
    std::vector<int> order;
    reg.add("first", [&] { order.push_back(1); });
    reg.add("second", [&] { order.push_back(2); });
    reg.add("third", [&] { order.push_back(3); });
    reg.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"first", "second", "third"}));
}

TEST(ValidatorRegistryTest, ViolationInACheckerPropagates)
{
    ValidatorRegistry reg;
    reg.add("bad", [] { ASTRA_CHECK(false, "invariant broken"); });
    EXPECT_THROW(reg.runAll(), FatalError);
}

// --- the determinism digest ------------------------------------------

TEST(Digest, RepeatableAndOrderSensitive)
{
    Fnv1aDigest a, b, c;
    a.mix(1);
    a.mix(2);
    b.mix(1);
    b.mix(2);
    c.mix(2);
    c.mix(1);
    EXPECT_EQ(a.value(), b.value());
    EXPECT_NE(a.value(), c.value());
    EXPECT_NE(a.value(), Fnv1aDigest{}.value());

    // Known answers from the offset basis.
    auto once = [](std::uint64_t v) {
        Fnv1aDigest d;
        d.mix(v);
        return d.value();
    };
    EXPECT_EQ(once(0), 0xa8c7f832281a39c5ULL);
    EXPECT_EQ(once(0x61), 0x6926124a7b1433c4ULL);
    EXPECT_EQ(once(~0ULL), 0x8cf51a8bfca3883dULL);

    // mix() folds the zero bytes above the highest non-zero byte as
    // one multiply; it must equal the plain 8-step byte loop.
    std::uint64_t ref = Fnv1aDigest::kOffsetBasis;
    auto refMix = [&ref](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            ref ^= (v >> (8 * i)) & 0xffU;
            ref *= Fnv1aDigest::kPrime;
        }
    };
    Fnv1aDigest d;
    const std::uint64_t edges[] = {
        0, 1, 0xff, 0x100, 0xffffffffULL, 1ULL << 56, ~0ULL,
        static_cast<std::uint64_t>(std::int64_t(-1)), // priority -1
    };
    for (std::uint64_t v : edges) {
        d.mix(v);
        refMix(v);
        ASSERT_EQ(d.value(), ref) << "after mixing " << v;
    }
    Rng rng(2024);
    for (int i = 0; i < 20000; ++i) {
        // Spread values over every significant-byte count 0..8.
        const int bits = static_cast<int>(rng.below(65));
        const std::uint64_t v =
            bits == 0 ? 0 : rng.next() >> (64 - bits);
        d.mix(v);
        refMix(v);
        ASSERT_EQ(d.value(), ref) << "after mixing " << v;
    }
}

TEST(Digest, EventQueueDigestIsRunInvariant)
{
    auto run_once = [] {
        EventQueue eq;
        eq.enableDigest();
        for (int i = 0; i < 50; ++i)
            eq.schedule(Tick(100 - i), [] {}, i % 3);
        eq.run();
        return eq.digest();
    };
    EXPECT_EQ(run_once(), run_once());
}

// --- event-queue checkers --------------------------------------------

TEST(EventOrderChecker, CatchesInjectedViolations)
{
    // In-order progressions pass...
    validate::eventOrder(10, 0, 5, 10, 0, 6); // FIFO within a tick
    validate::eventOrder(10, 0, 5, 10, 1, 2); // higher priority later
    validate::eventOrder(10, 1, 5, 11, 0, 2); // later tick resets both
    // ...and each corrupted component dies.
    EXPECT_THROW(validate::eventOrder(10, 0, 5, 9, 0, 6), FatalError);
    EXPECT_THROW(validate::eventOrder(10, 1, 5, 10, 0, 6), FatalError);
    EXPECT_THROW(validate::eventOrder(10, 0, 5, 10, 0, 5), FatalError);
}

TEST(EventOrderChecker, AuditedQueuePassesOnRealTraffic)
{
    EventQueue eq;
    eq.setOrderAudit(true);
    int fired = 0;
    for (int i = 0; i < 100; ++i)
        eq.schedule(Tick(i % 10), [&] { ++fired; }, -(i % 4));
    eq.run();
    EXPECT_EQ(fired, 100);
}

TEST(EventQueueDrainChecker, CatchesPendingEvents)
{
    EventQueue eq;
    eq.validateDrained(); // empty queue passes
    eq.schedule(5, [] {});
    const std::string msg =
        failureMessage([&] { eq.validateDrained(); });
    EXPECT_NE(msg.find("live event"), std::string::npos) << msg;
}

TEST(EventQueueSchedule, PastEventDiagnosticNamesTicks)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    const std::string msg =
        failureMessage([&] { eq.schedule(3, [] {}); });
    EXPECT_NE(msg.find("when=3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("now=10"), std::string::npos) << msg;
}

// --- network checkers ------------------------------------------------

TEST(CreditChecker, CatchesLeakAndOverGrant)
{
    validate::creditBounds(0, 0, 8);
    validate::creditBounds(0, 8, 8);
    // A released-twice credit drives occupancy negative...
    EXPECT_THROW(validate::creditBounds(3, -2, 8), FatalError);
    // ...and a grant without credits overflows the buffer.
    const std::string msg = failureMessage(
        [] { validate::creditBounds(3, 9, 8); });
    EXPECT_NE(msg.find("link 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("occupancy=9"), std::string::npos) << msg;
}

TEST(ConservationChecker, CatchesLostPackets)
{
    validate::packetConservation("packet", 100, 100);
    const std::string msg = failureMessage(
        [] { validate::packetConservation("flit", 100, 97); });
    EXPECT_NE(msg.find("flit"), std::string::npos) << msg;
    EXPECT_NE(msg.find("injected=100"), std::string::npos) << msg;
    EXPECT_NE(msg.find("retired=97"), std::string::npos) << msg;
}

TEST(BusyIntervalChecker, CatchesOverlappingGrants)
{
    validate::linkGrantNonOverlap(0, 100, 100);
    validate::linkGrantNonOverlap(0, 101, 100);
    EXPECT_THROW(validate::linkGrantNonOverlap(0, 99, 100),
                 FatalError);
}

TEST(DrainQueueChecker, CatchesStuckTransfers)
{
    validate::drainQueueEmpty("garnet-lite", 0, 0);
    EXPECT_THROW(validate::drainQueueEmpty("garnet-lite", 2, 3),
                 FatalError);
}

// --- chunk state machine ---------------------------------------------

TEST(ChunkFsm, TransitionTableMatchesCollectiveSemantics)
{
    using validate::chunkOpLegal;
    // Reduce-scatter moves partials: reduce yes, install no.
    EXPECT_TRUE(chunkOpLegal(CollectiveKind::ReduceScatter,
                             ChunkOp::ApplyReduce, false));
    EXPECT_FALSE(chunkOpLegal(CollectiveKind::ReduceScatter,
                              ChunkOp::ApplyInstall, false));
    // All-gather moves finished elements: install yes, reduce no.
    EXPECT_TRUE(chunkOpLegal(CollectiveKind::AllGather,
                             ChunkOp::ApplyInstall, false));
    EXPECT_FALSE(chunkOpLegal(CollectiveKind::AllGather,
                              ChunkOp::ApplyReduce, false));
    // All-to-all never touches the range view and vice versa.
    EXPECT_TRUE(chunkOpLegal(CollectiveKind::AllToAll,
                             ChunkOp::TakeBlocks, false));
    EXPECT_FALSE(chunkOpLegal(CollectiveKind::AllToAll,
                              ChunkOp::MakePayload, false));
    EXPECT_FALSE(chunkOpLegal(CollectiveKind::AllReduce,
                              ChunkOp::AddBlocks, false));
    // A finalized chunk accepts nothing.
    EXPECT_FALSE(chunkOpLegal(CollectiveKind::AllReduce,
                              ChunkOp::ApplyReduce, true));
    EXPECT_FALSE(chunkOpLegal(CollectiveKind::AllReduce,
                              ChunkOp::Finalize, true));
}

TEST(ChunkFsm, AllGatherChunkRejectsReducePayload)
{
    ScopedValidation guard(ValidateLevel::kBasic);
    ChunkState s(4, 0, 4096, CollectiveKind::AllGather);
    ChunkPayload p = s.makeRangePayload(ElemRange{0, 1}, false);
    p.reduce = true; // a reduce payload reaching an all-gather chunk
    const std::string msg =
        failureMessage([&] { s.applyRangePayload(p); });
    EXPECT_NE(msg.find("apply-reduce"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ALLGATHER"), std::string::npos) << msg;
}

TEST(ChunkFsm, AllToAllChunkRejectsRangeOps)
{
    ScopedValidation guard(ValidateLevel::kBasic);
    ChunkState s(4, 1, 4096, CollectiveKind::AllToAll);
    EXPECT_THROW(s.makeRangePayload(ElemRange{0, 1}, false),
                 FatalError);
    EXPECT_THROW(s.restrictValidTo(ElemRange{0, 1}), FatalError);
}

TEST(ChunkFsm, FinalizedChunkRejectsFurtherMutation)
{
    ScopedValidation guard(ValidateLevel::kBasic);
    ChunkState s(4, 2, 4096, CollectiveKind::AllReduce);
    EXPECT_FALSE(s.finalized());
    s.finalize();
    EXPECT_TRUE(s.finalized());
    EXPECT_THROW(s.restrictValidTo(ElemRange{0, 1}), FatalError);
    EXPECT_THROW(s.finalize(), FatalError); // double finish
    const std::string msg = failureMessage(
        [&] { s.makeRangePayload(ElemRange{0, 1}, false); });
    EXPECT_NE(msg.find("finalized"), std::string::npos) << msg;
}

TEST(ChunkFsm, ChecksAreOffAtLevelOff)
{
    ScopedValidation guard(ValidateLevel::kOff);
    ChunkState s(4, 1, 4096, CollectiveKind::AllToAll);
    // Illegal per the table, but the gate is disarmed: the op falls
    // through to the (well-defined) underlying behaviour.
    EXPECT_NO_THROW(s.restrictValidTo(ElemRange{0, 4}));
}

// --- whole-platform integration --------------------------------------

TEST(ClusterValidation, CheckersRegisterAndPassOnARealRun)
{
    ScopedValidation guard(ValidateLevel::kFull);
    SimConfig cfg;
    cfg.torus(2, 2, 1);
    Cluster cluster(cfg);
    // Event queue + network + one scheduler per node.
    EXPECT_EQ(cluster.validators().size(),
              2u + std::size_t(cfg.numNpus()));
    EXPECT_GT(cluster.runCollective(CollectiveKind::AllReduce,
                                    64 * 1024),
              0u);
}

TEST(ClusterValidation, GarnetBackendCheckersPass)
{
    ScopedValidation guard(ValidateLevel::kFull);
    SimConfig cfg;
    cfg.torus(2, 2, 1);
    cfg.backend = NetworkBackend::GarnetLite;
    Cluster cluster(cfg);
    EXPECT_GT(cluster.runCollective(CollectiveKind::AllToAll,
                                    64 * 1024),
              0u);
}

TEST(ClusterValidation, NoCheckersAtLevelOff)
{
    ScopedValidation guard(ValidateLevel::kOff);
    SimConfig cfg;
    cfg.torus(2, 2, 1);
    Cluster cluster(cfg);
    EXPECT_EQ(cluster.validators().size(), 0u);
}

TEST(ClusterValidation, DigestMatchesAcrossIdenticalRuns)
{
    SimConfig cfg;
    cfg.torus(2, 2, 1);
    cfg.digest = true;
    auto run_once = [&] {
        Cluster cluster(cfg);
        cluster.runCollective(CollectiveKind::AllReduce, 256 * 1024);
        return cluster.digest();
    };
    const std::uint64_t first = run_once();
    EXPECT_NE(first, 0u);
    EXPECT_EQ(first, run_once());
}

TEST(ClusterValidation, DigestOffByDefault)
{
    SimConfig cfg;
    cfg.torus(2, 2, 1);
    Cluster cluster(cfg);
    cluster.runCollective(CollectiveKind::AllReduce, 64 * 1024);
    EXPECT_EQ(cluster.digest(), Fnv1aDigest{}.value());
}

} // namespace
} // namespace astra
