#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "workload/layer.hh"

namespace astra
{
namespace
{

const char *kGood = R"(# example
PARALLELISM: HYBRID
LAYERS: 2
LAYER conv1
COMPUTE 1200 1100 900
COMM NONE 0 NONE 0 ALLREDUCE 37632
UPDATE 2.0
LAYER fc
COMPUTE 800 700 600
COMM ALLGATHER 4096 ALLTOALL 2048 NONE 0
UPDATE 1.5
)";

TEST(WorkloadFile, ParsesTheReferenceExample)
{
    std::istringstream in(kGood);
    WorkloadSpec spec = WorkloadSpec::parse(in, "inline");
    EXPECT_EQ(spec.parallelism, ParallelismKind::Hybrid);
    ASSERT_EQ(spec.layers.size(), 2u);
    const LayerSpec &c = spec.layers[0];
    EXPECT_EQ(c.name, "conv1");
    EXPECT_EQ(c.fwdCompute, 1200u);
    EXPECT_EQ(c.igCompute, 1100u);
    EXPECT_EQ(c.wgCompute, 900u);
    EXPECT_EQ(c.wgComm, CollectiveKind::AllReduce);
    EXPECT_EQ(c.wgCommSize, 37632u);
    EXPECT_EQ(c.fwdComm, CollectiveKind::None);
    EXPECT_DOUBLE_EQ(c.updateTimePerKiB, 2.0);
    const LayerSpec &f = spec.layers[1];
    EXPECT_EQ(f.fwdComm, CollectiveKind::AllGather);
    EXPECT_EQ(f.igComm, CollectiveKind::AllToAll);
    EXPECT_EQ(f.igCommSize, 2048u);
}

TEST(WorkloadFile, SerializeParsesBackIdentically)
{
    std::istringstream in(kGood);
    WorkloadSpec spec = WorkloadSpec::parse(in, "inline");
    std::istringstream again(spec.serialize());
    WorkloadSpec spec2 = WorkloadSpec::parse(again, "round-trip");
    ASSERT_EQ(spec2.layers.size(), spec.layers.size());
    EXPECT_EQ(spec2.parallelism, spec.parallelism);
    for (std::size_t i = 0; i < spec.layers.size(); ++i) {
        const LayerSpec &a = spec.layers[i];
        const LayerSpec &b = spec2.layers[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.fwdCompute, b.fwdCompute);
        EXPECT_EQ(a.igCompute, b.igCompute);
        EXPECT_EQ(a.wgCompute, b.wgCompute);
        EXPECT_EQ(a.fwdComm, b.fwdComm);
        EXPECT_EQ(a.igComm, b.igComm);
        EXPECT_EQ(a.wgComm, b.wgComm);
        EXPECT_EQ(a.fwdCommSize, b.fwdCommSize);
        EXPECT_EQ(a.igCommSize, b.igCommSize);
        EXPECT_EQ(a.wgCommSize, b.wgCommSize);
        EXPECT_DOUBLE_EQ(a.updateTimePerKiB, b.updateTimePerKiB);
    }
}

TEST(WorkloadFile, FileRoundTrip)
{
    std::istringstream in(kGood);
    WorkloadSpec spec = WorkloadSpec::parse(in, "inline");
    const char *path = "/tmp/astra_workload_test.txt";
    spec.writeFile(path);
    WorkloadSpec spec2 = WorkloadSpec::parseFile(path);
    EXPECT_EQ(spec2.layers.size(), 2u);
    std::remove(path);
}

struct BadCase
{
    const char *name;
    const char *text;
};

// gtest would print a BadCase as its raw bytes, and those (pointer
// values) end up in every ctest id; print the name instead.
void
PrintTo(const BadCase &c, std::ostream *os)
{
    *os << c.name;
}

class WorkloadFileErrors : public ::testing::TestWithParam<BadCase>
{
};

TEST_P(WorkloadFileErrors, AreFatalWithoutCrashing)
{
    std::istringstream in(GetParam().text);
    EXPECT_THROW(WorkloadSpec::parse(in, "bad"), FatalError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, WorkloadFileErrors,
    ::testing::Values(
        BadCase{"no_parallelism", "LAYERS: 1\n"},
        BadCase{"bad_parallelism", "PARALLELISM: SIDEWAYS\nLAYERS: 1\n"},
        BadCase{"zero_layers_given", "PARALLELISM: DATA\nLAYERS: 0\n"},
        BadCase{"missing_layer",
                "PARALLELISM: DATA\nLAYERS: 1\n"},
        BadCase{"compute_line_with_two_values",
                "PARALLELISM: DATA\nLAYERS: 1\nLAYER a\n"
                "COMPUTE 1 2\nCOMM NONE 0 NONE 0 NONE 0\nUPDATE 1\n"},
        BadCase{"bad_comm_kind",
                "PARALLELISM: DATA\nLAYERS: 1\nLAYER a\n"
                "COMPUTE 1 2 3\nCOMM WIBBLE 1 NONE 0 NONE 0\nUPDATE 1\n"},
        BadCase{"comm_with_zero_size",
                "PARALLELISM: DATA\nLAYERS: 1\nLAYER a\n"
                "COMPUTE 1 2 3\nCOMM NONE 0 NONE 0 ALLREDUCE 0\n"
                "UPDATE 1\n"},
        BadCase{"missing_update",
                "PARALLELISM: DATA\nLAYERS: 1\nLAYER a\n"
                "COMPUTE 1 2 3\nCOMM NONE 0 NONE 0 NONE 0\n"},
        BadCase{"negative_compute",
                "PARALLELISM: DATA\nLAYERS: 1\nLAYER a\n"
                "COMPUTE 1 -2 3\nCOMM NONE 0 NONE 0 NONE 0\nUPDATE 1\n"},
        BadCase{"trailing_garbage",
                "PARALLELISM: DATA\nLAYERS: 1\nLAYER a\n"
                "COMPUTE 1 2 3\nCOMM NONE 0 NONE 0 NONE 0\nUPDATE 1\n"
                "EXTRA\n"},
        BadCase{"empty_workload_file", ""}),
    [](const ::testing::TestParamInfo<BadCase> &i) {
        return i.param.name;
    });

TEST(WorkloadFile, MissingFileIsFatal)
{
    EXPECT_THROW(WorkloadSpec::parseFile("/does/not/exist.txt"),
                 FatalError);
}

TEST(LayerSpec, SlotAccessors)
{
    LayerSpec l;
    l.fwdCompute = 1;
    l.igCompute = 2;
    l.wgCompute = 3;
    l.fwdComm = CollectiveKind::AllGather;
    l.igComm = CollectiveKind::AllToAll;
    l.wgComm = CollectiveKind::AllReduce;
    l.fwdCommSize = 10;
    l.igCommSize = 20;
    l.wgCommSize = 30;
    EXPECT_EQ(l.compute(CommSlot::Forward), 1u);
    EXPECT_EQ(l.compute(CommSlot::InputGrad), 2u);
    EXPECT_EQ(l.compute(CommSlot::WeightGrad), 3u);
    EXPECT_EQ(l.comm(CommSlot::Forward), CollectiveKind::AllGather);
    EXPECT_EQ(l.commSize(CommSlot::WeightGrad), 30u);
}

TEST(LayerSpec, UpdateDelayScalesPerKiB)
{
    LayerSpec l;
    l.wgComm = CollectiveKind::AllReduce;
    l.wgCommSize = 4096; // 4 KiB
    l.updateTimePerKiB = 2.5;
    EXPECT_EQ(l.updateDelay(CommSlot::WeightGrad), 10u);
    EXPECT_EQ(l.updateDelay(CommSlot::Forward), 0u);
}

TEST(WorkloadSpec, Totals)
{
    std::istringstream in(kGood);
    WorkloadSpec spec = WorkloadSpec::parse(in, "inline");
    EXPECT_EQ(spec.totalCompute(), 1200u + 1100 + 900 + 800 + 700 + 600);
    EXPECT_EQ(spec.totalCommBytes(), 37632u + 4096 + 2048);
}

} // namespace
} // namespace astra
