/**
 * @file
 * A small dynamic bit vector used for collective contribution tracking.
 *
 * Every data segment travelling through a collective carries a BitVec
 * recording which participants' partial values have been reduced into
 * it. The property tests use these to prove the algorithms implement
 * the semantics of Fig. 4 (e.g. after all-reduce, every node holds
 * every segment with all N contributions).
 *
 * Up to kInlineBits bits live inside the object, so constructing or
 * copying a contribution set of a group of at most 128 nodes (every
 * configuration of the paper, Fig. 17's 2x8x8 included) allocates
 * nothing; larger vectors keep their words on the heap.
 */

#ifndef ASTRA_COMMON_BITVEC_HH
#define ASTRA_COMMON_BITVEC_HH

#include <cstdint>
#include <cstddef>
#include <memory>
#include <string>

namespace astra
{

/**
 * Fixed-size-at-construction bit vector with set-algebra operations.
 */
class BitVec
{
  public:
    /** Words stored inline; larger vectors use the heap. */
    static constexpr std::size_t kInlineWords = 2;
    static constexpr std::size_t kInlineBits = kInlineWords * 64;

    BitVec() = default;

    /** Construct @p nbits zeroed bits. */
    explicit BitVec(std::size_t nbits);

    BitVec(const BitVec &o) { *this = o; }
    BitVec(BitVec &&o) noexcept { *this = std::move(o); }
    BitVec &operator=(const BitVec &o);
    /** Leaves @p o empty (size 0). */
    BitVec &operator=(BitVec &&o) noexcept;

    /** Number of bits. */
    std::size_t size() const { return _nbits; }

    /** True when the words live on the heap (size() > kInlineBits). */
    bool onHeap() const { return _nbits > kInlineBits; }

    /** Set bit @p i. */
    void
    set(std::size_t i)
    {
        words()[i / 64] |= (std::uint64_t{1} << (i % 64));
    }

    /** Clear bit @p i. */
    void
    reset(std::size_t i)
    {
        words()[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    }

    /** Test bit @p i. */
    bool
    test(std::size_t i) const
    {
        return (words()[i / 64] >> (i % 64)) & 1;
    }

    /** Number of set bits. */
    std::size_t count() const;

    /** True if no bit is set. */
    bool none() const;

    /** True if every bit is set. */
    bool all() const { return count() == _nbits; }

    /** In-place union. Sizes must match. */
    BitVec &operator|=(const BitVec &o);

    /** In-place intersection. Sizes must match. */
    BitVec &operator&=(const BitVec &o);

    /** True if this and @p o share any set bit. Sizes must match. */
    bool intersects(const BitVec &o) const;

    /** Same size and same bits (different sizes compare unequal). */
    bool operator==(const BitVec &o) const;

    /** "0101..." rendering, bit 0 first. */
    std::string toString() const;

  private:
    std::size_t numWords() const { return (_nbits + 63) / 64; }

    std::uint64_t *words() { return _heap ? _heap.get() : _inline; }
    const std::uint64_t *
    words() const
    {
        return _heap ? _heap.get() : _inline;
    }

    /** Panic unless @p o has this vector's size. */
    void checkSize(const BitVec &o) const;

    std::size_t _nbits = 0;
    std::uint64_t _inline[kInlineWords] = {};
    std::unique_ptr<std::uint64_t[]> _heap; //!< set iff onHeap()
};

} // namespace astra

#endif // ASTRA_COMMON_BITVEC_HH
