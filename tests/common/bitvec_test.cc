#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/bitvec.hh"
#include "common/logging.hh"

namespace astra
{
namespace
{

TEST(BitVec, StartsEmpty)
{
    BitVec v(100);
    EXPECT_EQ(v.size(), 100u);
    EXPECT_TRUE(v.none());
    EXPECT_FALSE(v.all());
    EXPECT_EQ(v.count(), 0u);
}

TEST(BitVec, SetResetTest)
{
    BitVec v(130); // spans three words
    v.set(0);
    v.set(64);
    v.set(129);
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(64));
    EXPECT_TRUE(v.test(129));
    EXPECT_FALSE(v.test(1));
    EXPECT_EQ(v.count(), 3u);
    v.reset(64);
    EXPECT_FALSE(v.test(64));
    EXPECT_EQ(v.count(), 2u);
}

TEST(BitVec, AllDetectsFullVector)
{
    BitVec v(67);
    for (std::size_t i = 0; i < 67; ++i)
        v.set(i);
    EXPECT_TRUE(v.all());
    EXPECT_EQ(v.count(), 67u);
    v.reset(66);
    EXPECT_FALSE(v.all());
}

TEST(BitVec, UnionAndIntersection)
{
    BitVec a(10), b(10);
    a.set(1);
    a.set(3);
    b.set(3);
    b.set(7);
    EXPECT_TRUE(a.intersects(b));
    BitVec u = a;
    u |= b;
    EXPECT_EQ(u.count(), 3u);
    EXPECT_TRUE(u.test(1));
    EXPECT_TRUE(u.test(3));
    EXPECT_TRUE(u.test(7));
    BitVec i = a;
    i &= b;
    EXPECT_EQ(i.count(), 1u);
    EXPECT_TRUE(i.test(3));
}

TEST(BitVec, DisjointVectorsDoNotIntersect)
{
    BitVec a(128), b(128);
    a.set(0);
    b.set(127);
    EXPECT_FALSE(a.intersects(b));
}

TEST(BitVec, SizeMismatchPanics)
{
    BitVec a(10), b(11);
    EXPECT_THROW(a |= b, FatalError);
    EXPECT_THROW(a &= b, FatalError);
    EXPECT_THROW((void)a.intersects(b), FatalError);
}

TEST(BitVec, EqualityAndToString)
{
    BitVec a(4), b(4);
    a.set(1);
    b.set(1);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.toString(), "0100");
    b.set(3);
    EXPECT_NE(a, b);
}

TEST(BitVec, ZeroSized)
{
    BitVec v(0);
    EXPECT_TRUE(v.none());
    EXPECT_TRUE(v.all()); // vacuously
    EXPECT_EQ(v.count(), 0u);
}

// --- inline/heap storage boundary -------------------------------------
//
// Up to BitVec::kInlineBits bits live inside the object; larger vectors
// keep their words on the heap. Every operation must behave the same on
// both sides of (and exactly at) that boundary.

class BitVecBoundary : public ::testing::TestWithParam<std::size_t>
{
};

/** Bits 0, n/2 and n-1 set (one bit when n == 1). */
BitVec
sparse(std::size_t n)
{
    BitVec v(n);
    v.set(0);
    v.set(n / 2);
    v.set(n - 1);
    return v;
}

/** Every bit set. */
BitVec
full(std::size_t n)
{
    BitVec v(n);
    for (std::size_t i = 0; i < n; ++i)
        v.set(i);
    return v;
}

std::size_t
sparseCount(std::size_t n)
{
    return n == 1 ? 1 : n == 2 ? 2 : 3;
}

TEST_P(BitVecBoundary, StorageKindFollowsSize)
{
    const std::size_t n = GetParam();
    BitVec v(n);
    EXPECT_EQ(v.size(), n);
    EXPECT_EQ(v.onHeap(), n > BitVec::kInlineBits);
    EXPECT_TRUE(v.none());
    EXPECT_FALSE(v.all());
    EXPECT_EQ(v.count(), 0u);
    EXPECT_EQ(v.toString(), std::string(n, '0'));
}

TEST_P(BitVecBoundary, SetTestCountAllAndToString)
{
    const std::size_t n = GetParam();
    BitVec v = sparse(n);
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(n - 1));
    EXPECT_FALSE(v.none());
    EXPECT_EQ(v.count(), sparseCount(n));
    std::string want(n, '0');
    want[0] = want[n / 2] = want[n - 1] = '1';
    EXPECT_EQ(v.toString(), want);

    BitVec f = full(n);
    EXPECT_TRUE(f.all());
    EXPECT_EQ(f.count(), n);
    EXPECT_EQ(f.toString(), std::string(n, '1'));
    f.reset(n - 1);
    EXPECT_FALSE(f.all());
    EXPECT_EQ(f.count(), n - 1);
}

TEST_P(BitVecBoundary, AlgebraAndEquality)
{
    const std::size_t n = GetParam();
    const BitVec a = sparse(n);
    BitVec b(n);
    b.set(n - 1);
    EXPECT_TRUE(a.intersects(b));
    EXPECT_TRUE(b.intersects(a));
    EXPECT_FALSE(a.intersects(BitVec(n)));

    BitVec u = b;
    u |= a;
    EXPECT_EQ(u, a);
    BitVec i = a;
    i &= b;
    EXPECT_EQ(i, b);
    EXPECT_NE(a, BitVec(n));
    EXPECT_NE(a, sparse(n + 1)); // different sizes never compare equal

    BitVec z = a;
    z &= BitVec(n);
    EXPECT_TRUE(z.none());
    EXPECT_EQ(z, BitVec(n));

    BitVec f = BitVec(n);
    f |= full(n);
    EXPECT_TRUE(f.all());
    EXPECT_TRUE(f.intersects(a));
}

TEST_P(BitVecBoundary, CopyIsDeepAndMoveEmptiesTheSource)
{
    const std::size_t n = GetParam();
    const BitVec a = sparse(n);
    BitVec copy(a);
    EXPECT_EQ(copy, a);
    copy.reset(0);
    EXPECT_TRUE(a.test(0)); // no shared storage
    EXPECT_FALSE(copy.test(0));

    BitVec src = sparse(n);
    BitVec moved(std::move(src));
    EXPECT_EQ(moved, a);
    // The moved-from state is specified: empty.
    EXPECT_EQ(src.size(), 0u);
    EXPECT_TRUE(src.none());

    BitVec target(7);
    target = std::move(moved);
    EXPECT_EQ(target, a);
    EXPECT_EQ(moved.size(), 0u);

    // A moved-from vector is reusable.
    moved = a;
    EXPECT_EQ(moved, a);
}

TEST_P(BitVecBoundary, AssignmentAcrossStorageKinds)
{
    const std::size_t n = GetParam();
    const BitVec a = sparse(n);
    // Assign into an inline-sized, a same-sized and a heap-sized target.
    for (std::size_t from : {std::size_t(3), n, std::size_t(300)}) {
        BitVec t = full(from);
        t = a;
        EXPECT_EQ(t.size(), n);
        EXPECT_EQ(t.onHeap(), a.onHeap());
        EXPECT_EQ(t, a);
        EXPECT_EQ(t.count(), sparseCount(n));
        BitVec m = full(from);
        BitVec tmp = a;
        m = std::move(tmp);
        EXPECT_EQ(m, a);
    }
    BitVec self = a;
    const BitVec &alias = self;
    self = alias;
    EXPECT_EQ(self, a);
}

TEST_P(BitVecBoundary, SizeMismatchPanicsOnBothStorageKinds)
{
    const std::size_t n = GetParam();
    for (std::size_t other : {n + 1, std::size_t(300) + n}) {
        BitVec a(n), b(other);
        EXPECT_THROW(a |= b, FatalError);
        EXPECT_THROW(a &= b, FatalError);
        EXPECT_THROW((void)a.intersects(b), FatalError);
        EXPECT_THROW(b |= a, FatalError);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVecBoundary,
                         ::testing::Values(1, 64, 65, 128, 129, 300));

} // namespace
} // namespace astra
